"""Scenario execution: the host supervisor driving one simulated board.

Commands run strictly in order against a fresh world; ``expect`` failures
are collected and the run continues, while runtime faults (reconfigure
before boot, missing input data, device errors) abort with the failing
command's index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from . import bitstream as bits
from .board import BoardConfig, BoardFault, World
from .fixed_part import TargetId
from .kernels import BUILTIN_KERNELS, DuplicateId
from .pci import PciConfig, PciError
from .scenario import (
    BindCmd,
    BootCmd,
    BusCmd,
    ExpectCmd,
    GeometryCmd,
    MakebitCmd,
    ReadbackCmd,
    ReconfigCmd,
    Scenario,
    StallCmd,
    StreamCmd,
)
from .selectmap import SelectMapError


class RuntimeFault(Exception):
    def __init__(self, index: int, line: int, message: str) -> None:
        super().__init__(f"command {index} (line {line}): {message}")
        self.index = index
        self.line = line


@dataclass
class RunResult:
    metrics: dict
    trace_records: list
    exit_status: int
    expect_failures: list[str] = field(default_factory=list)
    fault: str | None = None


def emit_metrics(metrics: dict, path) -> None:
    """key=value lines, keys sorted; durations are integer picoseconds,
    throughput bytes/second with 3 decimals, utilization with 6."""
    with open(path, "w") as fh:
        for key in sorted(metrics):
            value = metrics[key]
            if isinstance(value, float):
                digits = 6 if key == "bus_utilization" else 3
                fh.write(f"{key}={value:.{digits}f}\n")
            else:
                fh.write(f"{key}={value}\n")


def makebit(cmd: MakebitCmd, geometry: bits.DeviceGeometry, seed: int) -> bytes:
    """The image a ``makebit`` command describes on ``geometry``: its columns
    filled with the constant byte, or with random bytes from the fill's own
    seed, else from ``seed``."""
    nbytes = (cmd.last - cmd.first + 1) * geometry.column_bytes
    fill = cmd.fill
    if fill.byte is not None:
        payload = bytes([fill.byte]) * nbytes
    else:
        payload = random.Random(seed if fill.seed is None else fill.seed).randbytes(nbytes)
    kind = bits.BitstreamKind.FULL if cmd.kind == "full" else bits.BitstreamKind.PARTIAL
    return bits.encode(geometry, kind, cmd.kernel_id, cmd.first, payload)


class ScenarioRunner:
    def __init__(self, scenario: Scenario, base_dir, seed: int = 0,
                 tracing: bool = False) -> None:
        self.scenario = scenario
        self.base = Path(base_dir)
        self.seed = seed
        self.tracing = tracing
        self.config = BoardConfig()
        self.world: World | None = None
        self.pending_stalls: list[tuple[int, int]] = []
        self.pending_binds: list[BindCmd] = []
        self.expect_failures: list[str] = []
        self._queued_bind_ids: set[int] = set()
        self._rand_fills = 0
        self._counters = {"downstream_bytes": 0, "upstream_bytes": 0}
        self._windows = {"down": 0, "up": 0}

    # -- public entry ---------------------------------------------------------

    def run(self) -> RunResult:
        fault = None
        for index, cmd in enumerate(self.scenario.commands, 1):
            try:
                self._dispatch(cmd)
            except (BoardFault, PciError, bits.BitstreamError, SelectMapError,
                    DuplicateId, OSError, ValueError) as exc:
                fault = str(RuntimeFault(index, cmd.line, f"{type(exc).__name__}: {exc}"))
                break
        metrics = self._metrics_snapshot()
        records = self.world.trace.records if (self.world and self.world.trace) else []
        status = 2 if fault else (1 if self.expect_failures else 0)
        return RunResult(metrics, records, status, self.expect_failures, fault)

    # -- command dispatch ---------------------------------------------------------

    def _dispatch(self, cmd) -> None:
        handler = self._HANDLERS[type(cmd)]
        handler(self, cmd)

    def _require_world(self) -> World:
        if self.world is None:
            raise BoardFault("board has not been booted")
        return self.world

    def _cmd_geometry(self, cmd: GeometryCmd) -> None:
        if self.world is not None:
            raise BoardFault("geometry must be set before boot")
        self.config.geometry = bits.DeviceGeometry(
            cmd.cols, cmd.frames, cmd.fbytes, cmd.fixed_first)

    def _cmd_bus(self, cmd: BusCmd) -> None:
        if self.world is not None:
            raise BoardFault("bus parameters must be set before boot")
        self.config.pci = PciConfig(grant_latency_cycles=cmd.grant,
                                    max_burst_cycles=cmd.burst)

    def _cmd_makebit(self, cmd: MakebitCmd) -> None:
        # Each random fill without a seed of its own draws from the run's
        # seed plus the number of such fills before it.
        seed = (self.seed + self._rand_fills) & 0xFFFFFFFFFFFFFFFF
        if cmd.fill.byte is None and cmd.fill.seed is None:
            self._rand_fills += 1
        (self.base / cmd.out).write_bytes(makebit(cmd, self.config.geometry, seed))

    def _cmd_boot(self, cmd: BootCmd) -> None:
        if self.world is not None:
            raise BoardFault("board already booted")
        flash = (self.base / cmd.flash).read_bytes()
        world = World(self.config, tracing=self.tracing)
        for at, dur in self.pending_stalls:
            world.bus.inject_stall(at, dur)
        for bind in self.pending_binds:
            world.device.registry.bind(bind.kernel_id, bind.kernel)
        self.world = world
        world.boot(flash)

    def _cmd_bind(self, cmd: BindCmd) -> None:
        if cmd.kernel not in BUILTIN_KERNELS:
            raise ValueError(f"unknown kernel {cmd.kernel!r}; available: "
                             f"{', '.join(sorted(BUILTIN_KERNELS))}")
        if self.world is not None:
            self.world.device.registry.bind(cmd.kernel_id, cmd.kernel)
        else:
            if cmd.kernel_id in self._queued_bind_ids:
                raise DuplicateId(f"kernel id {cmd.kernel_id:#x} already bound")
            self._queued_bind_ids.add(cmd.kernel_id)
            self.pending_binds.append(cmd)

    def _cmd_reconfig(self, cmd: ReconfigCmd) -> None:
        self._require_world().reconfigure((self.base / cmd.file).read_bytes())

    def _cmd_readback(self, cmd: ReadbackCmd) -> None:
        world = self._require_world()
        image = world.readback(cmd.first, cmd.last - cmd.first + 1)
        (self.base / cmd.out).write_bytes(image)

    def _cmd_stream(self, cmd: StreamCmd) -> None:
        world = self._require_world()
        dev = world.device
        nbytes = cmd.words * 4
        data = (self.base / cmd.in_path).read_bytes()
        if len(data) < nbytes:
            raise ValueError(f"input {cmd.in_path} holds {len(data)} bytes, "
                             f"need {nbytes}")
        (self.base / cmd.out_path).write_bytes(world.stream(data[:nbytes]))
        self._counters["downstream_bytes"] += nbytes
        self._counters["upstream_bytes"] += nbytes
        down = dev.engines[TargetId.DOWNSTREAM]
        up = dev.engines[TargetId.UPSTREAM]
        self._windows["down"] += down.finished_at - down.started_at
        self._windows["up"] += up.finished_at - up.started_at

    def _cmd_stall(self, cmd: StallCmd) -> None:
        if self.world is not None:
            self.world.bus.inject_stall(cmd.at_ps, cmd.for_ps)
        else:
            self.pending_stalls.append((cmd.at_ps, cmd.for_ps))

    def _cmd_expect(self, cmd: ExpectCmd) -> None:
        snapshot = self._metrics_snapshot()
        if cmd.key not in snapshot:
            self.expect_failures.append(
                f"line {cmd.line}: unknown metrics key {cmd.key!r}")
            return
        actual = float(snapshot[cmd.key])
        ok = {"<=": actual <= cmd.value,
              ">=": actual >= cmd.value,
              "==": actual == cmd.value}[cmd.op]
        if not ok:
            self.expect_failures.append(
                f"line {cmd.line}: expected {cmd.key} {cmd.op} {cmd.value:g}, "
                f"got {actual:g}")

    _HANDLERS = {
        GeometryCmd: _cmd_geometry,
        BusCmd: _cmd_bus,
        MakebitCmd: _cmd_makebit,
        BootCmd: _cmd_boot,
        BindCmd: _cmd_bind,
        ReconfigCmd: _cmd_reconfig,
        ReadbackCmd: _cmd_readback,
        StreamCmd: _cmd_stream,
        StallCmd: _cmd_stall,
        ExpectCmd: _cmd_expect,
    }

    # -- metrics -----------------------------------------------------------------

    def _metrics_snapshot(self) -> dict:
        m = dict(self._counters)
        m["seed"] = self.seed
        # The device's own results of its last boot, configuration and
        # readback; 0 before each first one.
        dev = self.world and self.world.device
        boot = dev and dev.boot_report
        config = dev and dev.last_config
        readback = dev and dev.last_readback
        m["boot_ok"] = int(boot.ok) if boot else 0
        m["boot_duration_ps"] = boot.duration if boot else 0
        m["reconfig_duration_ps"] = config.duration if config else 0
        m["reconfig_pauses"] = config.pauses if config else 0
        m["readback_duration_ps"] = readback.duration if readback else 0
        if dev:
            now = self.world.sim.now
            m["bus_utilization"] = self.world.bus.busy_ticks / now if now else 0.0
            m["interrupts_raised"] = dev.irq.raised
        else:
            m["bus_utilization"] = 0.0
            m["interrupts_raised"] = 0
        for direction, key in (("down", "downstream"), ("up", "upstream")):
            window = self._windows[direction]
            moved = m[f"{key}_bytes"]
            m[f"{key}_throughput_bytes_per_second"] = (
                moved / (window * 1e-12) if window else 0.0)
        return m


def run_scenario(scenario: Scenario, base_dir, seed: int = 0,
                 tracing: bool = False) -> RunResult:
    return ScenarioRunner(scenario, base_dir, seed=seed, tracing=tracing).run()
