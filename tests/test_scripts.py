"""The experiment scripts under scripts/, run on small inputs."""

import bus_saturation
import reconfig_stall_sweep
import run_bundled

from proteus_sim.pci import PCI_CLOCK_PERIOD


def test_bus_saturation_reaches_wire_peak_without_grant_latency():
    # 64-cycle bursts back to back: one 4-byte word on every PCI cycle.
    assert bus_saturation.run_point(0, 64, 16 * 1024) == 4 / (PCI_CLOCK_PERIOD * 1e-12)


def test_stall_sweep_pauses_without_changing_memory(capsys):
    reconfig_stall_sweep.run_sweep([0.0, 0.5], 40.0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "payload: 8192 bytes; clean duration 163.84 us"
    assert [line.split() for line in lines[3:]] == [
        ["0%", "163.84", "0.0%", "0", "ok"],
        ["50%", "217.92", "33.0%", "5", "ok"],
    ]


def test_run_bundled_scenarios_all_pass(capsys):
    assert run_bundled.main() == 0
    assert "(exit 0)" in capsys.readouterr().out
