"""Acceptance suite: the exit criteria for the simulator, one test per
criterion, each checked at its stated tolerance.

Shared oracles: analytic cycle counts for timings (exact integers),
reference replays for memory contents, and wire-rate ceilings proven by
exact cycle-spacing checks (disjoint cycles imply no window can measure
above bytes-per-cycle / period).
"""

import random
import shutil
from pathlib import Path

import pytest
from conftest import criterion
from records import bus_cycles, measure_throughput, port_byte_times

from proteus_sim import bitstream as bits
from proteus_sim.board import BoardConfig, BoardInert, World
from proteus_sim.fixed_part import (
    ARBITRATION_ORDER,
    REG_CONTROL,
    ArbiterState,
    IrqCause,
    arbitrate,
)
from proteus_sim.kernels import SinkKernel
from proteus_sim.pci import (
    PCI_CLOCK_PERIOD,
    BusTransaction,
    Direction,
    HostMemory,
    PciBus,
    PciConfig,
)
from proteus_sim.runner import emit_metrics, run_scenario
from proteus_sim.scenario import parse_scenario
from proteus_sim.sim import Simulator
from proteus_sim.trace import emit_trace

P = PCI_CLOCK_PERIOD        # 30303 ps; 4 bytes/cycle
CFG = 20_000                # ps; 1 byte/cycle = 50 MB/s
BOOT_PS = 655_360_000       # desk-geometry full payload at 50 MB/s
G = bits.DESK_GEOMETRY

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def full_flash(geometry=G):
    payload = bytes(geometry.total_bytes)
    return bits.encode(geometry, bits.BitstreamKind.FULL, 0, 0, payload)


def partial_image(geometry=G, kernel_id=0x21, first=0, columns=4, seed=5):
    payload = random.Random(seed).randbytes(columns * geometry.column_bytes)
    return bits.encode(geometry, bits.BitstreamKind.PARTIAL, kernel_id, first, payload)


def booted_world(config=None, **world_kwargs):
    world = World(config, **world_kwargs)
    assert world.boot(full_flash(world.config.geometry)).ok
    return world


def assert_min_gap(times, gap):
    if len(times) > 1:
        assert min(b - a for a, b in zip(times, times[1:])) >= gap


@criterion("1. SelectMap rate cap: 8 KB partial in exactly 163.84 us, <= 50 MB/s")
def test_selectmap_rate_cap():
    world = booted_world(tracing=True)
    world.device.registry.bind(0x21, "identity")
    result = world.reconfigure(partial_image())
    assert result.duration == 163_840_000  # 8192 cycles, +-0
    assert result.pauses == 0
    # Ceiling: byte cycles never closer than one configuration-clock period,
    # so no window can measure above 1 byte / 20000 ps = 50 MB/s exactly.
    times = port_byte_times(world.trace.records, CFG)
    assert len(times) == len(partial_image())
    assert_min_gap(times, CFG)
    cycles = [(t, 1, "cfg") for t in times]
    for window in ((times[0], times[0] + 10**6),
                   (times[0], times[-1] + CFG),
                   (times[len(times) // 2], times[len(times) // 2] + 5 * 10**7)):
        measured = measure_throughput(cycles, window, CFG)
        assert measured <= 50e6 * (1 + 1e-12)


@criterion("2. PCI ceiling: <= 132.0 MB/s every window, >= 125 MB/s over 1 ms")
def test_pci_throughput_envelope():
    config = BoardConfig(pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=4096))
    world = booted_world(config, tracing=True)
    world.device.registry.bind(0x50, SinkKernel)
    world.reconfigure(partial_image(kernel_id=0x50))
    nbytes = 256 * 1024
    world.start_stream(random.Random(1).randbytes(nbytes), up=False)
    world.run_until_cause(IrqCause.DOWNSTREAM_DONE, "downstream")
    cycles = bus_cycles(world.trace.records, config.pci)
    log = [rec for rec in cycles if rec[2] == "downstream"]
    assert sum(n for _, n, _ in log) == nbytes
    # Exact ceiling over EVERY window: all bus data cycles (any target) are
    # spaced at least one PCI clock period apart, so the fluid measure can
    # never exceed 4 bytes/cycle = 132.000132 MB/s (30303 ps tick grid).
    assert_min_gap([t for t, _, _ in cycles], P)
    peak = 4 / (P * 1e-12)
    t0 = log[0][0]
    window_measures = [
        measure_throughput(log, (t0, t0 + 10**9), P),            # the stated 1 ms window
        measure_throughput(log, (t0, t0 + 10**8), P),
        measure_throughput(log, (t0 + 5 * 10**8, t0 + 15 * 10**8), P),
        measure_throughput(log, (log[-1][0] - 10**9, log[-1][0]), P),
    ]
    for measured in window_measures:
        assert measured <= peak * (1 + 1e-12)
        assert measured <= 132.0e6 + 0.05e6  # nominal cap at its stated precision
    assert window_measures[0] >= 125e6


@criterion("3. PCI is not the bottleneck: zero pauses up to 1 MB bitstreams")
def test_configuration_never_pauses_with_default_bus():
    # Pause behavior is governed by the fill/drain rate ratio and the
    # hysteresis thresholds, not by length; sample small, medium, and the
    # full 1 MB (2^20-byte payload) point.
    cases = [
        (G, 4),                                            # 8 KB
        (bits.DeviceGeometry(18, 128, 64, 16), 16),        # 128 KB
        (bits.DeviceGeometry(130, 128, 64, 128), 128),     # 1 MB
    ]
    for geometry, columns in cases:
        world = booted_world(BoardConfig(geometry=geometry))
        result = world.reconfigure(partial_image(geometry, columns=columns, seed=3))
        assert result.bytes == columns * geometry.column_bytes
        assert result.pauses == 0, f"paused for {result.bytes}-byte payload"


@criterion("4. Pause/resume equivalence: 100 random stall patterns, same memory")
def test_pause_resume_equivalence():
    image = partial_image(seed=11)
    clean_world = booted_world()
    clean = clean_world.reconfigure(image)
    clean_mem = clean_world.device.config_mem.snapshot()
    assert clean.pauses == 0

    rng = random.Random(2026)
    forced_pause_trials = 0
    for _ in range(100):
        world = booted_world()
        forced = False
        for _ in range(rng.randint(1, 3)):
            start = BOOT_PS + rng.randint(5_000_000, 160_000_000)
            duration = rng.randint(1_000_000, 40_000_000)
            world.bus.inject_stall(start, duration)
            # The buffer holds at most 1024 bytes = 20.48 us of drain, so a
            # >=25 us stall inside the active transfer must underflow it.
            if duration >= 25_000_000 and start <= BOOT_PS + 100_000_000:
                forced = True
        result = world.reconfigure(image)
        assert world.device.config_mem.snapshot() == clean_mem
        if forced:
            assert result.pauses >= 1
            forced_pause_trials += 1
        if result.pauses:
            assert result.duration > clean.duration
    assert forced_pause_trials >= 10  # the oracle actually exercised pauses


@criterion("5. Restart at next address: preempted streams byte-equal, 1000 trials")
def test_preemption_restart_byte_streams():
    rng = random.Random(77)
    for _ in range(1000):
        sim = Simulator()
        host = HostMemory()
        bus = PciBus(sim, host, PciConfig(
            grant_latency_cycles=rng.randint(0, 8),
            max_burst_cycles=rng.randint(1, 48)))
        nbytes = rng.randint(1, 512)
        _rid, base = host.map_shared_region(nbytes)
        content = rng.randbytes(nbytes)
        host.write(base, content)
        for _ in range(rng.randint(0, 3)):
            bus.inject_stall(rng.randint(0, 400) * P, rng.randint(1, 120) * P)

        delivered = bytearray()
        state = {"off": 0}

        def fetch():
            if state["off"] >= nbytes:
                return None
            return BusTransaction(
                "dev", Direction.TO_DEVICE, base + state["off"], nbytes - state["off"],
                word_sink=lambda w, n: delivered.extend(w.to_bytes(4, "little")[:n]),
                on_finish=lambda txn: state.__setitem__("off", state["off"] + txn.transferred_bytes))

        bus.set_master(fetch)
        bus.poke()
        sim.run_until_idle()
        assert bytes(delivered) == content  # equals the unpreempted stream


@criterion("6. Arbitration: no repeat grant under contention; exact 4N fairness")
def test_arbitration_rule():
    rng = random.Random(5)
    state = ArbiterState()
    last = None
    for _ in range(5000):
        pending = rng.sample(ARBITRATION_ORDER, rng.randint(1, 4))
        granted = arbitrate(state, pending)
        assert granted in pending
        if len(pending) > 1:
            assert granted != last
        last = granted

    n = 250
    state = ArbiterState()
    grants = [arbitrate(state, ARBITRATION_ORDER) for _ in range(4 * n)]
    for target in ARBITRATION_ORDER:
        assert grants.count(target) == n
    assert all(a != b for a, b in zip(grants, grants[1:]))


@criterion("7. Readback fidelity: 200 random geometry/region cases byte-exact")
def test_readback_fidelity():
    rng = random.Random(9)
    for _case in range(200):
        columns = rng.randint(2, 12)
        geometry = bits.DeviceGeometry(
            columns=columns,
            frames_per_column=rng.randint(1, 8),
            bytes_per_frame=rng.randint(1, 32),
            fixed_first=rng.randint(1, columns - 1),
        )
        mem = bits.ConfigurationMemory(geometry)
        reference = bytearray(geometry.total_bytes)
        for _ in range(rng.randint(1, 4)):
            count = rng.randint(1, geometry.fixed_first)
            first = rng.randint(0, geometry.fixed_first - count)
            payload = rng.randbytes(count * geometry.column_bytes)
            mem.apply(bits.parse(bits.encode(
                geometry, bits.BitstreamKind.PARTIAL, 1, first, payload)))
            cb = geometry.column_bytes
            reference[first * cb:first * cb + len(payload)] = payload
        first = rng.randint(0, geometry.columns - 1)
        count = rng.randint(1, geometry.columns - first)
        back = bits.parse(mem.readback(first, count))
        cb = geometry.column_bytes
        assert back.payload == bytes(reference[first * cb:(first + count) * cb])

    # And through the timed device path, registers to host RAM.
    world = booted_world()
    world.reconfigure(partial_image(seed=13))
    assert world.readback(0, 4) == world.device.config_mem.readback(0, 4)


@criterion("8. Boot gate: nothing works before boot; corrupt flash stays inert")
def test_boot_gate():
    world = World()
    with pytest.raises(BoardInert):
        world.device.host_reg_read(0)
    with pytest.raises(BoardInert):
        world.device.host_reg_write(REG_CONTROL, 4)  # reconfigure attempt
    report = world.device.power_up(full_flash())
    world.sim.run_until(report.duration - 1)
    with pytest.raises(BoardInert):
        world.device.host_reg_read(0)
    world.sim.run_until(report.duration)
    world.device.host_reg_read(0)  # now accessible

    corrupt = bytearray(full_flash())
    corrupt[-1] ^= 0x80
    dead = World()
    assert not dead.device.power_up(bytes(corrupt)).ok
    dead.sim.run_until_idle()
    with pytest.raises(BoardInert):
        dead.device.host_reg_read(0)
    assert dead.device.config_mem.snapshot() == bytes(G.total_bytes)


@criterion("9. End-to-end integrity: 1 MB identity round trip; fir4 vs oracle")
def test_end_to_end_integrity():
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image())
    rng = random.Random(4242)
    payload = rng.randbytes(1 << 20)
    for _ in range(12):
        world.bus.inject_stall(world.sim.now + rng.randint(0, 30) * 10**9,
                               rng.randint(1, 400) * 10**6)
    assert world.stream(payload) == payload

    world2 = booted_world()
    world2.device.registry.bind(0x33, "fir4")
    world2.reconfigure(partial_image(kernel_id=0x33))
    words = [rng.getrandbits(32) for _ in range(4096)]
    got = world2.stream(b"".join(w.to_bytes(4, "little") for w in words))
    out_words = [int.from_bytes(got[i:i + 4], "little") for i in range(0, len(got), 4)]
    oracle = [sum(words[max(0, i - 3):i + 1]) & 0xFFFFFFFF for i in range(len(words))]
    assert out_words == oracle


@criterion("10. Determinism: bundled scenarios rerun byte-identically")
def test_bundled_scenarios_deterministic(tmp_path):
    bundled = sorted(SCENARIOS.glob("*.pscn"))
    assert len(bundled) >= 3
    for source in bundled:
        emitted = []
        for attempt in ("first", "second"):
            workdir = tmp_path / f"{source.stem}_{attempt}"
            workdir.mkdir()
            shutil.copy(source, workdir / source.name)
            scenario = parse_scenario(source.read_text(), base_dir=workdir)
            result = run_scenario(scenario, workdir, seed=7, tracing=True)
            assert result.fault is None, f"{source.name}: {result.fault}"
            assert result.exit_status == 0, f"{source.name}: {result.expect_failures}"
            mpath = workdir / "metrics.txt"
            tpath = workdir / "trace.csv"
            emit_metrics(result.metrics, mpath)
            emit_trace(result.trace_records, tpath)
            emitted.append((mpath.read_bytes(), tpath.read_bytes()))
        assert emitted[0] == emitted[1], f"{source.name} not reproducible"
