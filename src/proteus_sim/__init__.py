"""Discrete-event simulator of a PCI-attached self-reconfigurable FPGA board."""

from .bitstream import (
    DESK_GEOMETRY,
    Bitstream,
    BitstreamKind,
    ConfigurationMemory,
    DeviceGeometry,
    encode,
    parse,
)
from .board import BoardConfig, Device, World
from .fixed_part import IrqCause, TargetId
from .pci import HostMemory, PciBus, PciConfig
from .runner import RunResult, ScenarioRunner, emit_metrics, run_scenario
from .scenario import ParseError, Scenario, parse_scenario
from .sim import ClockDomain, Simulator
from .trace import TraceRecorder, emit_trace

__version__ = "0.1.0"

__all__ = [
    "DESK_GEOMETRY",
    "Bitstream",
    "BitstreamKind",
    "BoardConfig",
    "ClockDomain",
    "ConfigurationMemory",
    "Device",
    "DeviceGeometry",
    "HostMemory",
    "IrqCause",
    "ParseError",
    "PciBus",
    "PciConfig",
    "RunResult",
    "Scenario",
    "ScenarioRunner",
    "Simulator",
    "TargetId",
    "TraceRecorder",
    "World",
    "emit_metrics",
    "emit_trace",
    "encode",
    "parse",
    "parse_scenario",
    "run_scenario",
]
