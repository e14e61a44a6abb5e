"""Register-driven integration tests for the composed board."""

import random
import struct
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fast_paths import HOST, assert_same_states, per_word, recording_states

from proteus_sim import bitstream as bits
from proteus_sim import board
from proteus_sim.board import (
    _ENGINE,
    BoardConfig,
    BoardInert,
    CommandConflict,
    Deadlock,
    Device,
    JobActive,
    SteadyState,
    World,
)
from proteus_sim.fixed_part import (
    CTRL_START_DOWN,
    CTRL_START_READBACK,
    CTRL_START_RECONFIG,
    CTRL_START_UP,
    REG_CFG_BASE,
    REG_CFG_LEN,
    REG_CONTROL,
    REG_DOWN_BASE,
    REG_DOWN_LEN,
    REG_IRQ_MASK,
    REG_STATUS,
    REG_UP_BASE,
    REG_UP_LEN,
    SLICE_BYTES,
    DmaAddressState,
    IrqCause,
    TargetId,
)
from proteus_sim.kernels import MapKernel
from proteus_sim.pci import PCI_CLOCK_PERIOD, PciConfig, UnmappedAddress
from proteus_sim.selectmap import Mode
from proteus_sim.trace import emit_trace

G = bits.DESK_GEOMETRY


def full_flash(mark=0):
    payload = bytes((i + mark) % 256 for i in range(G.total_bytes))
    return bits.encode(G, bits.BitstreamKind.FULL, 0, 0, payload)


def partial_image(kernel_id=0x21, first=0, columns=4, seed=5):
    payload = bytes((seed * 41 + i) % 256 for i in range(columns * G.column_bytes))
    return bits.encode(G, bits.BitstreamKind.PARTIAL, kernel_id, first, payload)


def booted_world():
    world = World()
    assert world.boot(full_flash()).ok
    assert world.device.booted
    return world


def test_registers_inaccessible_before_boot():
    world = World()
    with pytest.raises(BoardInert):
        world.device.host_reg_read(0)
    report = world.device.power_up(full_flash())
    world.sim.run_until(report.duration - 1)
    with pytest.raises(BoardInert):
        world.device.host_reg_write(0, 1)
    world.sim.run_until(report.duration)
    world.device.host_reg_write(0, 1)
    assert world.device.host_reg_read(0) == 1


def test_corrupt_flash_leaves_board_inert():
    world = World()
    flash = bytearray(full_flash())
    flash[100] ^= 1
    report = world.device.power_up(bytes(flash))
    assert not report.ok
    world.sim.run_until_idle()
    with pytest.raises(BoardInert):
        world.device.host_reg_read(0)
    assert world.device.config_mem.snapshot() == bytes(G.total_bytes)


def test_reconfigure_applies_and_activates_kernel():
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    image = partial_image(kernel_id=0x21)
    result = world.reconfigure(image)
    assert result.duration == 163_840_000  # 8192 payload bytes at 50 MB/s
    assert result.pauses == 0
    assert world.device.config_mem.readback(0, 4, kernel_id=0x21) == image
    assert world.device.host_reg_read(REG_STATUS) == 0x21
    assert not world.device.irq.asserted


def test_reconfigure_unknown_kernel_is_inert():
    world = booted_world()
    world.reconfigure(partial_image(kernel_id=0x77))
    assert world.device.host_reg_read(REG_STATUS) == 0
    assert world.device.registry.active is None


def test_stalled_reconfigure_matches_clean_memory():
    def run(stalls):
        world = booted_world()
        world.device.registry.bind(0x21, "negate")
        for at, dur in stalls:
            world.bus.inject_stall(at, dur)
        result = world.reconfigure(partial_image(kernel_id=0x21, seed=8))
        return result, world.device.config_mem.snapshot()

    boot_ps = 655_360_000
    clean, clean_mem = run([])
    stalled, stalled_mem = run([(boot_ps + 50_000_000, 100_000_000)])
    assert stalled_mem == clean_mem
    assert clean.pauses == 0
    assert stalled.pauses >= 1
    assert stalled.duration > clean.duration


def test_readback_via_registers():
    world = booted_world()
    world.reconfigure(partial_image(kernel_id=0, seed=3))
    dev = world.device
    assert world.readback(0, 4) == dev.config_mem.readback(0, 4)
    assert dev.last_readback.duration == 163_840_000


def test_stream_identity_roundtrip():
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    payload = bytes((i * 29) % 256 for i in range(2048 * 4))
    assert world.stream(payload) == payload


def test_results_own_their_bytes():
    """Host reads, readback images and stream outputs are ``bytes`` that no
    later host write or reconfiguration of the same columns changes."""
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21, seed=1))
    data = bytes((i * 29) % 256 for i in range(8192))
    base = world.stage(data)
    read = world.host.read(base, len(data))
    image = world.readback(0, 4)
    out = world.stream(data)
    world.host.write(base, bytes(len(data)))
    world.reconfigure(partial_image(kernel_id=0x21, seed=2))
    assert [type(x) for x in (read, image, out)] == [bytes] * 3
    assert read == out == data
    assert bits.parse(image).payload == bits.parse(partial_image(seed=1)).payload
    assert world.readback(0, 4) != image


class RecordingKernel(MapKernel):
    """Identity that keeps every ``data`` it is given, with a copy."""

    def __init__(self) -> None:
        self.seen = []

    def map_words(self, io, data):
        self.seen.append((data, bytearray(data)))
        return data


def test_map_kernels_receive_bytes_they_may_keep():
    """Word by word, in stretches and in jumps, a map kernel is given
    ``bytes``, which nothing changes after the call."""
    world = booted_world()
    world.device.registry.bind(0x30, RecordingKernel)
    world.reconfigure(partial_image(kernel_id=0x30))
    kernel = world.device.registry.active
    data = random.Random(6).randbytes(1 << 18)
    assert world.stream(data) == data
    first = len(kernel.seen)
    world.stream(bytes(len(data)))
    assert {type(d) for d, _copy in kernel.seen} == {bytes}
    assert all(d == copy for d, copy in kernel.seen)
    assert b"".join(d for d, _copy in kernel.seen[:first]) == data
    sizes = {len(d) for d, _copy in kernel.seen}
    assert 4 in sizes and max(sizes) > 4 * PciConfig().max_burst_cycles   # a jump's slice


def test_stream_into_inert_region_deadlocks():
    world = booted_world()
    with pytest.raises(Deadlock, match="kernel inert"):
        world.stream(bytes(4096))


def test_downstream_only_deadlock_says_why():
    # Nothing drains the upstream buffer: the kernel fills it and sleeps,
    # then the downstream buffer fills above its low mark and the job stops.
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    assert world.start_stream(bytes(4 * 600), up=False)[1] is None
    with pytest.raises(Deadlock) as err:
        world.wait(IrqCause.DOWNSTREAM_DONE, "downstream job")
    assert str(err.value) == (
        "simulation idle while waiting for downstream job: busy engines: downstream; "
        "downstream buffer 256/256 words, upstream buffer 256/256 words; "
        "kernel asleep: upstream full")


def test_interrupt_mask_register():
    world = booted_world()
    dev = world.device
    dev.host_reg_write(REG_IRQ_MASK, int(IrqCause.KERNEL_REQUEST))
    dev.irq.raise_(IrqCause.KERNEL_REQUEST)
    assert not dev.irq.asserted
    dev.host_reg_write(REG_IRQ_MASK, 0)
    assert dev.irq.asserted


def test_kernel_interrupt_reaches_host():
    class Poker:
        name = "poker"

        def step(self, io):
            if io.in_available and io.out_space:
                io.write(io.read())
                io.request_interrupt()

    world = booted_world()
    world.device.registry.bind(0x31, Poker)
    world.reconfigure(partial_image(kernel_id=0x31))
    world.start_stream(bytes(range(16)))
    world.run_until_cause(IrqCause.KERNEL_REQUEST, "kernel irq")
    assert world.device.irq.pending & IrqCause.KERNEL_REQUEST


def assert_idle(world, executed_before):
    dev = world.device
    assert dev.controller.mode is Mode.IDLE
    assert not any(engine.busy for engine in dev.engines.values())
    world.sim.run_until_idle()
    assert world.sim.executed == executed_before   # nothing was scheduled


def test_control_rejects_cfg_span_past_staged_region():
    world = booted_world()
    dev = world.device
    image = partial_image(kernel_id=0x77)
    dev.host_reg_write(REG_CFG_BASE, world.stage(image))
    dev.host_reg_write(REG_CFG_LEN, len(image) + 4096)
    executed = world.sim.executed
    with pytest.raises(UnmappedAddress):
        dev.host_reg_write(REG_CONTROL, CTRL_START_RECONFIG)
    assert_idle(world, executed)
    assert world.reconfigure(image).pauses == 0   # a valid job still runs


def test_control_rejects_reconfig_and_readback_together():
    world = booted_world()
    dev = world.device
    image = partial_image(kernel_id=0x77)
    dev.host_reg_write(REG_CFG_BASE, world.stage(image))
    dev.host_reg_write(REG_CFG_LEN, len(image))
    executed = world.sim.executed
    with pytest.raises(CommandConflict):
        dev.host_reg_write(REG_CONTROL, CTRL_START_RECONFIG | CTRL_START_READBACK)
    assert_idle(world, executed)
    assert dev.engines[TargetId.SELECTMAP_WRITE].started_at is None
    assert world.reconfigure(image).pauses == 0


def test_port_strobe_rejected_while_the_buffer_holds_readback_words():
    """The controller ends a readback once its last word is in the shared
    SelectMap buffer; until the bus has drained it, a configuration-port
    strobe is rejected and starts nothing, so no reconfiguration consumes a
    readback's words."""
    world = World(BoardConfig(pci=PciConfig(max_burst_cycles=4)))
    assert world.boot(full_flash()).ok
    dev = world.device
    total = bits.WRAPPER_BYTES + G.column_bytes
    _buf, rb_base = world.host.map_shared_region(total)
    dev.host_reg_write(REG_CFG_BASE, rb_base)
    dev.host_reg_write(REG_CFG_LEN, (1 << 16) | 0)
    dev.host_reg_write(REG_CONTROL, CTRL_START_READBACK)
    while dev.controller.mode is not Mode.IDLE:
        world.sim.step()
    assert dev.smap_buf.occupancy and dev.engines[TargetId.SELECTMAP_READ].busy
    image = partial_image(kernel_id=0x77)
    dev.host_reg_write(REG_CFG_BASE, world.stage(image))
    dev.host_reg_write(REG_CFG_LEN, len(image))
    with pytest.raises(JobActive):
        dev.host_reg_write(REG_CONTROL, CTRL_START_RECONFIG)
    assert dev.controller.mode is Mode.IDLE
    assert dev.engines[TargetId.SELECTMAP_WRITE].started_at is None
    world.wait(IrqCause.READBACK_DONE)
    assert world.host.read(rb_base, total) == dev.config_mem.readback(0, 1)
    assert world.reconfigure(image).bytes == 4 * G.column_bytes


def test_reconfig_done_waits_for_the_last_configuration_burst_end():
    """With a configuration clock fast enough that the controller applies
    the image before the write engine's last burst ends, RECONFIG_DONE comes
    at that burst end, so a readback strobed at the interrupt finds the
    engine and the controller idle.  Timing also given by the per-word
    engine of the first commit with ``tests/oracle`` applied."""
    world = World(BoardConfig(cfg_clock_period=5000))
    assert world.boot(full_flash()).ok
    dev = world.device
    payload = bytes((i * 41) % 256 for i in range(2 * G.column_bytes))
    world.reconfigure(bits.encode(G, bits.BitstreamKind.PARTIAL, 0x21, 0, payload))
    writer, reader = dev.engines[TargetId.SELECTMAP_WRITE], dev.engines[TargetId.SELECTMAP_READ]
    assert not writer.busy and dev.controller.mode is Mode.IDLE
    # The controller completed at 687,805,000 ps; the last burst ends after it.
    assert writer.finished_at == world.sim.now == 687_814_513
    assert bits.parse(world.readback(0, 2)).payload == payload
    assert (dev.last_readback.duration, dev.last_readback.bytes) == (28_115_000, 4096)
    assert (reader.started_at, reader.finished_at) == (687_814_513, 724_089_513)
    assert len(dev.controller.pause_windows) == 672
    assert (world.bus.total_data_cycles, world.bus.busy_ticks) == (2062, 64_909_026)


@pytest.mark.parametrize("config", [
    # The controller applies the image before the write engine's last burst ends.
    BoardConfig(cfg_clock_period=5000),
    # The read engine's last burst ends before the controller's completion.
    BoardConfig(pci=PciConfig(clock_period=10_000, grant_latency_cycles=0),
                geometry=bits.DeviceGeometry(6, 1, 3, 4), buffer_capacity=4,
                fill_low=1, fill_high=3, user_clock_period=30_000),
], ids=["configure", "readback"])
def test_a_done_interrupt_finds_its_job_idle(monkeypatch, config):
    """At every done interrupt the job's engine has ended and, for a port
    job, the controller has completed it: whichever of the two comes second
    raises the interrupt, so the result is there to read."""
    causes = {IrqCause.DOWNSTREAM_DONE: (TargetId.DOWNSTREAM, None),
              IrqCause.UPSTREAM_DONE: (TargetId.UPSTREAM, None),
              IrqCause.RECONFIG_DONE: (TargetId.SELECTMAP_WRITE, "last_config"),
              IrqCause.READBACK_DONE: (TargetId.SELECTMAP_READ, "last_readback")}
    seen = []
    raise_ = Device._raise

    def check(self, cause):
        target, result = causes[cause]
        assert not self.engines[target].busy
        assert self.controller.mode is Mode.IDLE
        if result:
            assert getattr(self, result) is not None
            setattr(self, result, None)     # the next job's interrupt needs its own
        seen.append(cause)
        raise_(self, cause)

    monkeypatch.setattr(Device, "_raise", check)
    world = World(config)
    g = config.geometry
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x21, "identity")
    payload = bytes((i * 41) % 256 for i in range(g.column_bytes))
    for _ in range(2):
        world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, payload))
        assert bits.parse(world.readback(0, 1)).payload == payload
    assert world.stream(bytes(range(64))) == bytes(range(64))
    assert seen == [IrqCause.RECONFIG_DONE, IrqCause.READBACK_DONE] * 2 + [
        IrqCause.DOWNSTREAM_DONE, IrqCause.UPSTREAM_DONE]


def test_rejected_driver_jobs_unmap_their_regions():
    """A driver call whose register writes the device rejects started
    nothing, so it leaves no region mapped."""
    mapped = []   # (host, base) of every region a driver call maps
    live = []     # those not unmapped since (addresses are mapped again)

    def recording(world):
        host = world.host
        map_region, unmap = host.map_shared_region, host.unmap

        def map_shared_region(nbytes):
            buf, base = map_region(nbytes)
            mapped.append((host, base))
            live.append((host, base))
            return buf, base

        def unmap_region(base):
            unmap(base)
            live.remove((host, base))
        host.map_shared_region, host.unmap = map_shared_region, unmap_region
        return world

    inert = recording(World())
    with pytest.raises(BoardInert):
        inert.reconfigure(partial_image())
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    recording(world)
    for _ in range(3):
        with pytest.raises(bits.RegionOutOfBounds):
            world.readback(0, 0)
    running = world.start_stream(bytes(4096))
    del mapped[-2:]
    with pytest.raises(JobActive):
        world.start_stream(bytes(64))
    with pytest.raises(JobActive):
        world.stream(bytes(64))
    assert len(mapped) == 1 + 3 + 2 + 2
    assert live == [(world.host, base) for base in running]
    world.wait(IrqCause.DOWNSTREAM_DONE)
    world.wait(IrqCause.UPSTREAM_DONE)
    assert world.host.read(running[1], 4096) == bytes(4096)


def test_configuration_port_jobs_cost_events_per_burst_not_per_word():
    """The controller moves consecutive port words inside one event, and
    runs of them in closed form, so a 64 KiB reconfiguration and its
    readback each run a few events, and a few single-word pushes and pops
    of the SelectMap buffer, per bus burst (a per-word controller runs more
    than one event per image word, and two buffer calls)."""
    g = bits.DeviceGeometry(18, 64, 64, 16)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    payload = bytes((i * 7 + i // 251) % 256 for i in range(16 * g.column_bytes))
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x77, 0, payload)
    words = len(image) // 4
    sim = world.sim
    buf = world.device.smap_buf
    calls = []
    for name in ("push", "pop"):
        def counted(*args, method=getattr(buf, name)):
            calls.append(1)
            return method(*args)
        setattr(buf, name, counted)

    def cost(job):
        before, calls[:] = sim.executed, []
        result = job()
        return result, sim.executed - before, len(calls)

    _config, configure, configure_calls = cost(lambda: world.reconfigure(image))
    rb_image, readback, readback_calls = cost(lambda: world.readback(0, 16))
    assert bits.parse(rb_image).payload == payload
    assert configure * 64 < words
    assert readback * 64 < words
    assert configure_calls * 8 < words
    assert readback_calls * 8 < words


def test_driver_rounds_keep_memory_bounded():
    """Driver rounds leave nothing behind: each round's host regions are
    unmapped once its result is read, and the interrupt line keeps a count,
    not a log."""
    g = bits.DeviceGeometry(8, 4, 16, 6)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x21, "identity")
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, bytes(range(2 * g.column_bytes)))
    data = bytes(range(256))

    def rounds(count):
        for _ in range(count):
            world.reconfigure(image)
            assert world.stream(data) == data
            world.readback(0, 2)

    rounds(10)   # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rounds(450)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth <= 16 * 1024


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_streams_of_any_length_under_cut_bursts_end_each_address_at_the_job_end(data):
    """Streams of 1-4096 bytes (the last word may be short), burst limits of
    1-64 words and stall windows on the bus's word lattice, which cut bursts
    anywhere, at their first word too (a window that opens between a grant
    and its first word): every byte comes back, and each engine's address
    provider ends at (base + length, 0)."""
    g = bits.DeviceGeometry(8, 4, 16, 6)
    grant = data.draw(st.integers(0, 8), "grant")
    pci = PciConfig(grant_latency_cycles=grant, max_burst_cycles=data.draw(st.integers(1, 64)))
    world = World(BoardConfig(geometry=g, pci=pci))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, bytes(g.column_bytes)))
    engines = world.device.engines
    for _ in range(data.draw(st.integers(1, 3), "streams")):
        nbytes = data.draw(st.integers(1, 4096), "bytes")
        payload = data.draw(st.binary(min_size=nbytes, max_size=nbytes), "payload")
        start = world.sim.now + grant * PCI_CLOCK_PERIOD    # the first burst's first word
        stalls = st.tuples(st.integers(0, nbytes // 2 + 64), st.sampled_from((0, -1, 1, 15_000)),
                           st.integers(1, 40 * PCI_CLOCK_PERIOD))
        for word, phase, duration in data.draw(st.lists(stalls, max_size=6), "stalls"):
            world.bus.inject_stall(start + word * PCI_CLOCK_PERIOD + phase, duration)
        in_base, out_base = world.start_stream(payload)
        world.wait(IrqCause.DOWNSTREAM_DONE)
        world.wait(IrqCause.UPSTREAM_DONE)
        assert world.host.read(out_base, nbytes) == payload
        assert engines[TargetId.DOWNSTREAM].addr == DmaAddressState(in_base + nbytes, 0)
        assert engines[TargetId.UPSTREAM].addr == DmaAddressState(out_base + nbytes, 0)
        world.host.unmap(in_base)
        world.host.unmap(out_base)


def _timed(world, job):
    """Run ``job``; returns its result, its events and its (simulated ps,
    bus busy ps, bus data cycles)."""
    sim, bus = world.sim, world.bus
    before = sim.executed, sim.now, bus.busy_ticks, bus.total_data_cycles
    result = job()
    after = sim.executed, sim.now, bus.busy_ticks, bus.total_data_cycles
    return result, after[0] - before[0], tuple(b - a for a, b in zip(before[1:], after[1:]))


def test_long_jobs_jump_whole_periods_to_the_per_word_figures():
    """A 1 MiB reconfiguration and its readback settle into a steady state
    whose periods are jumped in closed form: a few hundred events, where
    burst by burst they take over 5,400.  Simulated time, bus busy time and
    data cycles are those the per-word engine recorded for the benchmark's
    workload (``perfbench/reference.json``)."""
    g = bits.DeviceGeometry(130, 128, 64, 128)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    payload = random.Random(1).randbytes(128 * g.column_bytes)
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x5A, 0, payload)
    rb_image, events, figures = _timed(world, lambda: (world.reconfigure(image),
                                                        world.readback(0, 128))[1])
    assert bits.parse(rb_image).payload == payload
    assert figures == (41_947_114_537, 16_550_225_874, 524_302)
    assert events <= 200


def test_a_stream_paced_by_the_bus_jumps_with_the_period_of_its_bursts():
    """At the default clocks (bus 30,303 ps, kernel 20,000 ps) a 1 MiB
    identity stream repeats every two bursts while the kernel sleeps at each
    burst end, though the two clocks line up again only every 20,000 bus
    words: it jumps after its first periods and ends in a few dozen events,
    where burst by burst it takes 5,461.  Its output and figures are the
    per-word engine's (``perfbench/reference.json``)."""
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    data = random.Random(2).randbytes(1 << 20)
    out, events, figures = _timed(world, lambda: world.stream(data))
    assert out == data
    assert figures == (16_549_559_208, 16_549_559_208, 524_288)
    assert events < 50


US = 1_000_000      # ps


def _periodic_stalls(world):
    """A 10 us stall every 40 us from time 0 to 100 ms, as in the benchmark's
    scenario mix."""
    for start in range(0, 100_000, 40):
        world.bus.inject_stall(start * US, 10 * US)


def _with_and_without_jumps(build, job):
    """Run ``job`` on the world ``build`` returns, then on a fresh one whose
    steady state finds no segment to replay (``_timed``), recording the
    state after every burst end (``recording_states``): every replay, and
    every period jumped, starts from ``SteadyState.lookup``, so the second
    run walks every burst.  Checks that every burst end of the first run is
    one of the second's, in the same state but for the kernel host's phase
    after some landings (``assert_same_states``); returns both runs'
    result, events and figures."""
    runs = []
    for jumps in (True, False):
        with recording_states(jumps) as recorded:
            world = build()
            runs.append((*_timed(world, lambda: job(world)), *recorded))
    (*jumped, states, drifts), (*walked, want, _none) = runs
    assert_same_states(states, drifts, want)
    return jumped, walked


def test_a_stream_under_periodic_stalls_jumps_across_the_windows():
    """Under a 10 us stall every 40 us, a 1 MiB identity round trip recurs
    every ten stall periods and jumps across the windows: fewer than 300
    events, where burst by burst it takes 6,422.  Its output and figures
    are those of a run without jumps, and so is the state at every burst end
    it sees, the kernel's last awake burst end included: a jump moves it on
    with the period when it lies in the jumped one."""
    def build():
        world = booted_world()
        world.device.registry.bind(0x21, "identity")
        world.reconfigure(partial_image(kernel_id=0x21))
        _periodic_stalls(world)
        return world

    data = random.Random(2).randbytes(1 << 20)
    jumped, walked = _with_and_without_jumps(build, lambda world: world.stream(data))
    assert jumped[0] == walked[0] == data
    assert jumped[2] == walked[2] == (22_135_767_853, 16_639_013_664, 524_288)
    assert jumped[1] < 300 and walked[1] == 6_422


def test_a_reconfiguration_under_periodic_stalls_jumps_across_the_windows():
    """Under a 10 us stall every 40 us, a 1 MiB reconfiguration on 130x128x64
    jumps across the windows: fewer than 100 events, where burst by burst it
    takes 4,321.  Its result, the configuration memory and its figures are
    those of a run without jumps."""
    g = bits.DeviceGeometry(130, 128, 64, 128)
    payload = random.Random(1).randbytes(128 * g.column_bytes)
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x5A, 0, payload)

    def build():
        world = World(BoardConfig(geometry=g))
        assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
        _periodic_stalls(world)
        return world

    jumped, walked = _with_and_without_jumps(
        build,
        lambda world: (world.reconfigure(image), world.device.config_mem.snapshot()))
    assert jumped[0] == walked[0]
    assert jumped[2] == walked[2] == (21_599_780_000, 8_336_688_633, 262_151)
    assert jumped[1] < 100 and walked[1] == 4_321


def test_cross_window_snapshots_outlive_the_jumps_within_a_gap():
    """An 8 KiB reconfiguration and its readback over the benchmark's
    scenario-mix bus (64-word bursts, grant latency 8) under a 10 us stall
    every 40 us jump within each gap, and replay the segments that cross
    the windows where a stall period earlier's came back: the segments
    walked before a jump outlive it.  Fewer than 70 events; the results and
    figures are those of a run without replays."""
    def build():
        world = World(BoardConfig(pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=64)))
        assert world.boot(full_flash()).ok
        _periodic_stalls(world)
        return world

    def job(world):
        return world.reconfigure(partial_image(kernel_id=0x5A)), world.readback(0, 4)

    jumped, walked = _with_and_without_jumps(build, job)
    assert jumped[0] == walked[0]
    assert jumped[2] == walked[2]
    assert jumped[1] < 70 < walked[1]


def _mix_bus_world():
    """A booted world on the benchmark's scenario-mix bus: grant latency 8,
    64-word bursts."""
    world = World(BoardConfig(pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=64)))
    assert world.boot(full_flash()).ok
    return world


@pytest.mark.parametrize("kernel", ["identity", "fir4"])
def test_streams_replay_learned_periods_in_every_stall_gap(kernel):
    """A 16 KiB stream over the scenario-mix bus under a 10 us stall every
    40 us: its burst cuts drift from gap to gap, so its gaps rarely recur
    whole, but the steady states within them do.  The segments walked in
    one gap replay in the later gaps as soon as a signature comes back, and
    the periods they close are jumped: fewer than 150 events, where burst by
    burst it takes 269.  Output, figures and the state at every burst end
    are those of a run without replays, but for the kernel's phase after a
    drifting replay: at 839,656,344 ps the run without replays finds it
    awake for an edge that moves nothing where the replayed run finds it
    asleep, and the two agree again at the next burst end at which either
    kernel shows (``assert_same_states``)."""
    def build():
        world = _mix_bus_world()
        world.device.registry.bind(0x21, kernel)
        world.reconfigure(partial_image(kernel_id=0x21))
        _periodic_stalls(world)
        return world

    data = random.Random(5).randbytes(1 << 14)
    jumped, walked = _with_and_without_jumps(build, lambda world: world.stream(data))
    assert jumped[0] == walked[0]
    assert jumped[2] == walked[2] == (371_131_494, 281_454_264, 8_192)
    assert jumped[1] < 150 and walked[1] == 269


def _traced_stalled_stream_world(kernel):
    """A traced world on the scenario-mix bus with ``kernel`` live, under
    ``_periodic_stalls``."""
    world = World(BoardConfig(pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=64)),
                  tracing=True)
    assert world.boot(full_flash()).ok
    world.device.registry.bind(0x21, kernel)
    world.reconfigure(partial_image(kernel_id=0x21))
    _periodic_stalls(world)
    return world


@pytest.mark.parametrize("kernel", ["identity", "fir4"])
def test_replays_after_a_drifting_landing_match_the_per_word_run(kernel):
    """The same traced stream, against the run with every fast path off.
    The replay that lands at 839,656,344 ps drifts: the kernel slept at both
    of its segment's burst ends but moved words under the phase of the run
    that recorded it, so it lands asleep where the per-word run's kernel is
    awake, and its last edge is off its clock.  Later replays and jumps from
    other kernel terms, which the phase-free kernel rule allows, read only
    the quiescence that their own segments' signatures record, not the
    kernel host's history, so the drift cannot mislead them: there are
    several, and the output, the figures and every trace record are the
    per-word run's."""
    data = random.Random(5).randbytes(1 << 14)
    weighed, rule = [], SteadyState._rule

    def weighing(self, start_terms, stirs, edged, terms):
        # Each replay or jump from other kernel terms that the phase-free
        # kernel rule would allow.
        if start_terms != terms and not stirs:
            weighed.append(self.sim.now)
        return rule(self, start_terms, stirs, edged, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SteadyState, "_rule", weighing)
        with recording_states() as (states, drifts):
            world = _traced_stalled_stream_world(kernel)
            fast = (*_timed(world, lambda: world.stream(data)), world.trace.records)
    with per_word() as walked_states:
        world = _traced_stalled_stream_world(kernel)
        slow = (*_timed(world, lambda: world.stream(data)), world.trace.records)
    first = min(drifts)
    assert first == 839_656_344
    # Asleep since 839,647,264 ps, off its 20,000 ps clock, in the replayed
    # run; awake with its next edge at 839,660,000 ps in the per-word run.
    (sig, terms), (want, _want_terms) = states[first], walked_states[first]
    assert sig[HOST + 1] is None and first + terms[1] == 839_647_264
    assert first + want[HOST + 1] == 839_660_000
    assert sum(t > first for t in weighed) >= 5
    assert fast[0] == slow[0] and fast[2:] == slow[2:]
    assert fast[1] < 150 and slow[1] == 269


def test_a_chain_lands_once(monkeypatch):
    """A chain replays the segments before a period, the period n + 1
    times and each ``SLICE_BYTES`` of segments straight from its path, and
    sets the board's state once, where it stops: over the traced 16 KiB
    identity stream of the drifting-landing test, no chain lands twice, and
    some chain runs a period whole times.  The output is the input."""
    landings, runs = [], []
    chain, land, replay = SteadyState._chain, SteadyState._land, SteadyState._replay

    def chaining(self, *args):
        landings.append(0)
        return chain(self, *args)

    def landing(self, *args):
        landings[-1] += 1
        return land(self, *args)

    def replaying(self, path, end, n=1):
        runs.append(n)
        replay(self, path, end, n)
    monkeypatch.setattr(SteadyState, "_chain", chaining)
    monkeypatch.setattr(SteadyState, "_land", landing)
    monkeypatch.setattr(SteadyState, "_replay", replaying)
    world = _traced_stalled_stream_world("identity")
    data = random.Random(5).randbytes(1 << 14)
    assert world.stream(data) == data
    assert landings and max(landings) == 1 and max(runs) > 1


def test_a_chain_flushes_its_path_at_each_slice(monkeypatch, tmp_path):
    """A chain whose path reaches ``SLICE_BYTES`` replays it there and goes
    on with an empty path.  With slices of 1 KiB, four 16 KiB fir4 streams,
    then an 8 KB reconfiguration and its readback, on the traced stalled
    stream world, flush many paths mid-chain, and their events, outputs,
    trace bytes and pause windows are those at the default slice."""
    def run(slice_bytes):
        monkeypatch.setattr(board, "SLICE_BYTES", slice_bytes)
        world = _traced_stalled_stream_world("fir4")
        replays = []
        replay = world.device.steady._replay

        def replaying(path, end, n=1):
            replays.append(n)
            replay(path, end, n)
        world.device.steady._replay = replaying

        def job():
            outputs = [world.stream(random.Random(i).randbytes(1 << 14)) for i in range(4)]
            return (*outputs, world.reconfigure(partial_image(kernel_id=0x21)),
                    world.readback(0, 4))
        result = _timed(world, job)
        path = tmp_path / f"trace-{slice_bytes}.csv"
        emit_trace(world.trace.records, path)
        return (result, world.sim.executed, path.read_bytes(),
                world.device.controller.pause_windows, len(replays))

    default = run(SLICE_BYTES)
    sliced = run(1024)
    assert sliced[:4] == default[:4]
    assert default[1] == 327        # boot and the first reconfiguration included
    assert sliced[4] > default[4]   # more replays: paths flushed at each 1 KiB


def test_a_device_bound_job_jumps_to_within_one_burst_of_its_end(monkeypatch):
    """A device-bound job's remaining bytes show only in the size of the
    burst it requests, so its jumps may stop one burst and 8 bytes from its
    end, not a buffer's worth: a 4,616-byte reconfiguration over 64-word
    bursts lands its last jump with 264 bytes left (1,032 under one cap for
    both directions).  Result, configuration memory and figures are those
    of a run without jumps."""
    g = bits.DeviceGeometry(16, 31, 37, 12)
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x5A, 0,
                        random.Random(6).randbytes(4 * g.column_bytes))
    left, replay = [], SteadyState._replay

    def recording(self, path, end, n=1):
        replay(self, path, end, n)
        if n > 1:       # a period run whole times: a jump
            # The engine's burst is the chain's first until the chain lands.
            engine = self.device.engines[TargetId.SELECTMAP_WRITE]
            left.append(engine.addr.bytes_remaining - engine.txn.transferred_bytes)
    monkeypatch.setattr(SteadyState, "_replay", recording)

    def build():
        world = World(BoardConfig(geometry=g, pci=PciConfig(grant_latency_cycles=8,
                                                            max_burst_cycles=64)))
        assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0,
                                      bytes(g.total_bytes))).ok
        return world

    jumped, walked = _with_and_without_jumps(
        build,
        lambda world: (world.reconfigure(image), world.device.config_mem.snapshot()))
    assert len(image) == 4_616 and left == [4 * 64 + 8]
    assert jumped[0] == walked[0]
    assert jumped[2] == walked[2]
    assert jumped[1] < walked[1]


def _at_a_double_crossing(steady) -> bool:
    """Whether, at this burst end, some engine's field of the signature reads
    its cap while its bytes to go less the cap (``SteadyState._left``) are
    negative: the burst ending here took it past the cap, and its address
    counts that burst only once it ends."""
    sig, _terms = steady.signature()
    left = steady._left()
    return any(sig[_ENGINE + 1 + 4 * k] == e.cap and left[k] < 0
               for k, e in enumerate(steady.engines))


def _reconfigurations_of_one_length(monkeypatch):
    """Eight reconfigurations with 8,220-byte images of differing payloads
    over the scenario-mix bus under ``_periodic_stalls``, with and without
    replays (``_with_and_without_jumps``).  Each run's result holds the
    configuration results, the configuration memory and, for each
    reconfiguration, the burst ends it walked and those at a double
    crossing (``_at_a_double_crossing``) that it walked or at which a chain
    stopped."""
    tally, land = [], SteadyState._land

    def landing(self, *args):
        txn = land(self, *args)
        tally[-1][1] += _at_a_double_crossing(self)
        return txn
    monkeypatch.setattr(SteadyState, "_land", landing)

    def build():
        world = _mix_bus_world()
        _periodic_stalls(world)
        return world

    def job(world):
        tally.clear()
        steady, at_burst_end = world.device.steady, world.bus.on_burst_end

        def counting(txn):
            tally[-1][0] += 1
            tally[-1][1] += _at_a_double_crossing(steady)
            return at_burst_end(txn)
        world.bus.on_burst_end = counting
        results = []
        for seed in range(8):
            tally.append([0, 0])
            image = partial_image(kernel_id=0x5A, seed=seed)
            assert len(image) == 8_220
            results.append(world.reconfigure(image))
        return results, world.device.config_mem.snapshot(), [tuple(t) for t in tally]

    jumped, walked = _with_and_without_jumps(build, job)
    assert jumped[0][:2] == walked[0][:2]
    assert jumped[2] == walked[2]
    return jumped, walked


def test_jobs_of_one_length_replay_through_the_cap_crossing(monkeypatch):
    """The segment in which an engine crosses its cap is kept under its
    exact bytes to go, so a job whose length an earlier job had replays
    through the crossing and its last bursts.  Of eight reconfigurations of
    one length under a 10 us stall every 40 us, the first walks 8 of its 33
    burst ends and each of the last three only its first: one chain replays
    the rest, where, with the crossing not kept, each walks three (the
    crossing and the two after it).  Results, configuration memory, figures
    and the state at every burst end are those of a run without replays."""
    jumped, walked = _reconfigurations_of_one_length(monkeypatch)
    counts = [w for w, _doubles in jumped[0][2]]
    assert counts[0] == 8 and counts[-3:] == [1, 1, 1]
    assert jumped[1] < walked[1]


def test_a_chain_replays_through_the_double_crossing(monkeypatch):
    """The burst that takes an engine past its cap ends before the engine's
    address counts it, so at that burst end its field of the signature still
    reads the cap while its bytes to go are below it: the segment from there
    crosses too, and is kept under a negative value.  The reconfigurations
    of one length pass such a burst end each.  In the last three, no chain
    stops at it and none walks it, where, with the negative values left out
    of the key, each of their chains stops there."""
    jumped, walked = _reconfigurations_of_one_length(monkeypatch)
    assert [doubles for _w, doubles in walked[0][2]] == [1] * 8
    assert [doubles for _w, doubles in jumped[0][2]][-3:] == [0, 0, 0]


def test_a_job_of_another_length_walks_the_cap_crossing():
    """A stream 4 bytes longer or shorter than one seen before reaches the
    burst end at which that one crossed its caps with the same signature,
    but other bytes to go: it must walk its own crossing, not replay the
    other's.  Outputs, figures and the state at every burst end are those of
    a run without replays."""
    def build():
        world = _mix_bus_world()
        world.device.registry.bind(0x21, "identity")
        world.reconfigure(partial_image(kernel_id=0x21))
        return world

    data = random.Random(8).randbytes(4096 + 4)

    def job(world):
        return [world.stream(data[:n]) for n in (4096, 4096 + 4, 4096 - 4)]

    jumped, walked = _with_and_without_jumps(build, job)
    assert jumped[0] == walked[0] == [data[:n] for n in (4096, 4096 + 4, 4096 - 4)]
    assert jumped[2] == walked[2]


def test_a_jump_in_which_the_kernel_moves_no_word_leaves_its_last_edge():
    """A kernel that moves no word in a period sleeps through it at its last
    edge, so a jump over such periods leaves that edge where it was: a
    16-byte stream through a kernel on a 5 us clock ends early in a
    reconfiguration whose periods an earlier one taught (the stream's done
    interrupts pending in both), which replays them a few microseconds
    after the kernel's last edge.  The state at every burst end, the
    kernel's exact terms included, is that of a run without jumps; with
    the edge shifted by the periods it would read as a recent one."""
    image = partial_image(kernel_id=0x21)
    data = random.Random(7).randbytes(16)

    def build():
        world = World(BoardConfig(user_clock_period=5 * US,
                                  pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=64)))
        assert world.boot(full_flash()).ok
        world.device.registry.bind(0x21, "identity")
        world.reconfigure(image)
        return world

    def job(world):
        in_base, out_base = world.start_stream(data)
        world.run_until_cause(IrqCause.DOWNSTREAM_DONE)
        world.run_until_cause(IrqCause.UPSTREAM_DONE)
        world.reconfigure(image)
        world.acknowledge(IrqCause.DOWNSTREAM_DONE | IrqCause.UPSTREAM_DONE)
        cfg_base = world.stage(image)
        world._program(((REG_DOWN_BASE, in_base), (REG_DOWN_LEN, len(data)),
                        (REG_UP_BASE, out_base), (REG_UP_LEN, len(data)),
                        (REG_CFG_BASE, cfg_base), (REG_CFG_LEN, len(image)),
                        (REG_CONTROL, CTRL_START_DOWN | CTRL_START_UP | CTRL_START_RECONFIG)))
        world.wait(IrqCause.RECONFIG_DONE)
        return world.host.read(out_base, len(data))

    jumped, walked = _with_and_without_jumps(build, job)
    assert jumped[0] == walked[0] == data
    assert jumped[2] == walked[2]
    assert jumped[1] < walked[1]


def test_new_windows_and_register_writes_forget_the_open_segment():
    """A window added at a stop may open before it, within the segment still
    open, and a register write may start a one-time action: each forgets the
    open segment, so that it is never kept.  Neither touches the store: each
    segment in it ran under the windows it keeps, and the signature covers
    all that a register write changes."""
    world = _mix_bus_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    _periodic_stalls(world)
    steady, sim = world.device.steady, world.sim
    data = random.Random(3).randbytes(1 << 16)
    _in_base, out_base = world.start_stream(data)
    sim.run_until(sim.now + 100 * US)
    assert steady.snap is not None and steady.store
    store = dict(steady.store)
    world.bus.inject_stall(sim.now - 5 * US, US)
    assert steady.snap is None and steady.store == store
    sim.run_until(sim.now + 100 * US)
    assert steady.snap is not None
    store = dict(steady.store)
    world.device.host_reg_write(REG_IRQ_MASK, world.device.host_reg_read(REG_IRQ_MASK))
    assert steady.snap is None and steady.store == store
    world.wait(IrqCause.DOWNSTREAM_DONE)
    world.wait(IrqCause.UPSTREAM_DONE)
    assert world.host.read(out_base, len(data)) == data


def test_soak_the_segment_store_stays_within_the_table_limit(monkeypatch):
    """Segments live as long as the board, so their one store is bounded:
    over 210 driver rounds under a 10 us stall every 40 us, with streams of
    differing lengths through two kernels, bursts of 16 and 64 words and
    reconfigurations and readbacks of differing regions, the store (here
    limited to 16 segments) fills to ``TABLE_LIMIT`` and starts afresh,
    never holding more, every stream and readback comes out whole, and
    memory grows by little up to the middle round and not at all after."""
    monkeypatch.setattr(SteadyState, "TABLE_LIMIT", 16)
    seen = {"most": 0, "restarts": 0, "last": 0}     # segments held
    at_burst_end = SteadyState.at_burst_end

    def counting(self, txn):
        txn = at_burst_end(self, txn)
        size = len(self.store)
        seen["most"] = max(seen["most"], size)
        seen["restarts"] += size < seen["last"]
        seen["last"] = size
        return txn
    monkeypatch.setattr(SteadyState, "at_burst_end", counting)
    g = bits.DeviceGeometry(8, 8, 16, 6)

    def rounds(world, first, count):
        for i in range(first, first + count):
            columns = 1 + i % 3
            payload = random.Random(-i).randbytes(columns * g.column_bytes)
            world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21 + i % 2, 0, payload))
            data = random.Random(i).randbytes(4096 + 36 * (i % 29))
            assert world.stream(data) == (data if i % 2 == 0 else b"".join(_fir4_chunks(data)))
            assert bits.parse(world.readback(0, columns)).payload == payload

    worlds = []
    for burst in (16, 64):
        world = World(BoardConfig(geometry=g, pci=PciConfig(grant_latency_cycles=8,
                                                            max_burst_cycles=burst)))
        assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
        world.device.registry.bind(0x21, "identity")
        world.device.registry.bind(0x22, "fir4")
        _periodic_stalls(world)
        worlds.append(world)
    for world in worlds:
        rounds(world, 0, 27)
    tracemalloc.start()
    try:
        sizes = [tracemalloc.get_traced_memory()[0]]
        for first in (27, 66):
            for world in worlds:
                rounds(world, first, 39)
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert seen["most"] == 16 and seen["restarts"] >= 2
    assert sizes[1] - sizes[0] <= 64 * 1024 and sizes[2] - sizes[1] <= 4 * 1024


MiB = 1 << 20


def _peak_above_start(job):
    """Run ``job`` under tracemalloc; returns its result, the peak of traced
    memory above the start, and what it left allocated."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = job()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, now - start


def _identity_round_trip(world, in_base, out_base, nbytes):
    """Stream ``nbytes`` from one mapped region to another and wait for both
    jobs."""
    world._program(((REG_DOWN_BASE, in_base), (REG_DOWN_LEN, nbytes), (REG_UP_BASE, out_base),
                    (REG_UP_LEN, nbytes), (REG_CONTROL, CTRL_START_DOWN | CTRL_START_UP)))
    world.wait(IrqCause.DOWNSTREAM_DONE)
    world.wait(IrqCause.UPSTREAM_DONE)


def test_1_mib_jobs_allocate_their_output_and_one_image():
    """Above the start of the job, with its host regions mapped and staged,
    a 1 MiB identity round trip allocates no more than its output and a
    jump's slice; a 1 MiB reconfiguration and readback on 130x128x64 no
    more than the image it assembles, the payload parsed out of it, and a
    slice.  Both keep only their output."""
    world = booted_world()
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(partial_image(kernel_id=0x21))
    data = random.Random(2).randbytes(MiB)
    in_base = world.stage(data)
    _buf, out_base = world.host.map_shared_region(MiB)

    def round_trip():
        _identity_round_trip(world, in_base, out_base, MiB)
        return world.host.read(out_base, MiB)

    out, peak, kept = _peak_above_start(round_trip)
    assert out == data
    assert MiB <= kept <= peak < MiB + SLICE_BYTES

    g = bits.DeviceGeometry(130, 128, 64, 128)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    payload = random.Random(1).randbytes(128 * g.column_bytes)
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x5A, 0, payload)
    cfg_base = world.stage(image)
    _buf, rb_base = world.host.map_shared_region(len(image))

    def reconfigure_and_read_back():
        world._program(((REG_CFG_BASE, cfg_base), (REG_CFG_LEN, len(image)),
                        (REG_CONTROL, CTRL_START_RECONFIG)))
        world.wait(IrqCause.RECONFIG_DONE)
        world._program(((REG_CFG_BASE, rb_base), (REG_CFG_LEN, 128 << 16),
                        (REG_CONTROL, CTRL_START_READBACK)))
        world.wait(IrqCause.READBACK_DONE)
        return world.host.read(rb_base, len(image))

    rb_image, peak, kept = _peak_above_start(reconfigure_and_read_back)
    assert bits.parse(rb_image).payload == payload
    assert len(image) <= kept <= peak < 2 * len(image) + SLICE_BYTES


def _fir4_chunks(data: bytes, words: int = 1 << 16):
    """The fir4 output of ``data`` (each word plus the three before it,
    wrapping), ``words`` words at a time."""
    tail = (0, 0, 0)
    for pos in range(0, len(data), 4 * words):
        chunk = data[pos:pos + 4 * words]
        n = len(chunk) // 4
        w = tail + struct.unpack(f"<{n}I", chunk)
        sums = list(accumulate(w, initial=0))
        yield struct.pack(f"<{n}I", *[(sums[i + 4] - sums[i]) & 0xFFFFFFFF for i in range(n)])
        tail = w[-3:]


def test_soak_a_16_mib_stream_and_200_driver_rounds_stay_bounded():
    """A 16 MiB fir4 stream in one job jumps most of its periods, in slices
    of whole periods, and its output is the fir4 of its input; then 200
    driver rounds of reconfiguration, stream and readback leave memory flat
    between their first and last quarter, the store of segments stays within
    its limit, and the last register write forgets the open segment."""
    g = bits.DeviceGeometry(8, 4, 16, 6)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x24, "fir4")
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x24, 0, bytes(g.column_bytes)))
    data = random.Random(3).randbytes(16 << 20)
    sim = world.sim
    events = sim.executed
    in_base, out_base = world.start_stream(data)
    world.run_until_cause(IrqCause.UPSTREAM_DONE)
    assert sim.executed - events < 100
    assert len(world.device.steady.store) < SteadyState.TABLE_LIMIT
    world.wait(IrqCause.DOWNSTREAM_DONE)
    world.wait(IrqCause.UPSTREAM_DONE)
    out = world.host.read(out_base, len(data))
    for i, want in enumerate(_fir4_chunks(data)):
        assert out[i * len(want):(i + 1) * len(want)] == want, f"chunk {i}"
    world.host.unmap(in_base)
    world.host.unmap(out_base)
    del data, out

    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, bytes(range(2 * g.column_bytes)))
    stream = bytes(range(256)) * 4

    def rounds(count):
        for _ in range(count):
            world.reconfigure(image)
            assert world.stream(stream) == stream
            world.readback(0, 2)
            assert world.device.steady.snap is None     # forgotten at the last acknowledgement

    tracemalloc.start()
    try:
        rounds(50)
        first = tracemalloc.get_traced_memory()[0]
        rounds(150)
        growth = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert growth <= 16 * 1024


def test_soak_a_64_mib_identity_stream_allocates_less_than_1_mib():
    """A 64 MiB identity stream in one job takes a few dozen events, and
    above the start of the job, with its host regions staged, it allocates
    less than 1 MiB before its output is read: its bytes move through views
    and slices of whole periods.  The output is the input."""
    g = bits.DeviceGeometry(8, 4, 16, 6)
    world = World(BoardConfig(geometry=g))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x21, "identity")
    world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, bytes(g.column_bytes)))
    n = 64 * MiB
    unit = random.Random(4).randbytes(4 * 65_537)   # repeats out of step with bursts and slices
    _buf, in_base = world.host.map_shared_region(n)
    _buf, out_base = world.host.map_shared_region(n)
    for pos in range(0, n, len(unit)):
        world.host.write(in_base + pos, unit[:n - pos])
    events = world.sim.executed
    _none, peak, _kept = _peak_above_start(
        lambda: _identity_round_trip(world, in_base, out_base, n))
    assert world.sim.executed - events < 100
    assert peak < MiB
    for pos in range(0, n, len(unit)):
        want = unit[:n - pos]
        assert world.host.read(out_base + pos, len(want)) == want, f"at byte {pos}"
    world.host.unmap(in_base)
    world.host.unmap(out_base)
