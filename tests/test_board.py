"""Register-driven integration tests for the composed board."""

import random
import struct
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import timing_worlds

from proteus_sim import bitstream as bits
from proteus_sim.board import (
    BoardConfig,
    BoardInert,
    CommandConflict,
    Deadlock,
    DmaEngine,
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


def test_readback_strobed_while_the_last_configuration_burst_ends():
    """With a configuration clock fast enough that RECONFIG_DONE comes
    before the write engine's last burst end, a readback strobed at the
    interrupt starts while that engine is still busy.  Timing recorded with
    a tree whose stretches also waited for the other engine to be idle."""
    world = World(BoardConfig(cfg_clock_period=5000))
    assert world.boot(full_flash()).ok
    dev = world.device
    payload = bytes((i * 41) % 256 for i in range(2 * G.column_bytes))
    world.reconfigure(bits.encode(G, bits.BitstreamKind.PARTIAL, 0x21, 0, payload))
    writer, reader = dev.engines[TargetId.SELECTMAP_WRITE], dev.engines[TargetId.SELECTMAP_READ]
    assert writer.busy
    assert bits.parse(world.readback(0, 2)).payload == payload
    assert not writer.busy
    assert (dev.last_readback.duration, dev.last_readback.bytes) == (28_115_000, 4096)
    assert (reader.started_at, reader.finished_at) == (687_805_000, 724_079_513)
    assert len(dev.controller.pause_windows) == 672
    assert (world.bus.total_data_cycles, world.bus.busy_ticks) == (2062, 64_909_026)


def test_quiet_runs_end_before_the_word_a_listener_acts_on():
    """An engine moves the bus words no buffer listener would act on as one
    slice: none while its word would wake the process on the other side."""
    world = World(BoardConfig(buffer_capacity=8, fill_low=2, fill_high=6))
    assert world.boot(full_flash()).ok
    dev = world.device
    engines = dev.engines
    write = engines[TargetId.SELECTMAP_WRITE]
    data = bytes(range(32))                         # 8 words

    dev.controller.start_configure(100)             # waits for its first word
    assert write.run_sink(data) == 0 and dev.smap_buf.occupancy == 0

    dev.registry.bind(0x21, "identity")
    dev.kernel_host.activate_from_config(bits.parse(partial_image()))   # asleep: nothing to do
    down, up = engines[TargetId.DOWNSTREAM], engines[TargetId.UPSTREAM]
    assert down.run_sink(data) == 0
    dev.up_buf.exchange(data[:8], 0)
    assert up.run_source(8) == data[:8]             # the downstream buffer is empty
    dev.up_buf.exchange(data[:8], 0)
    dev.down_buf.exchange(data[:4], 0)
    assert up.run_source(8) == b""


def test_selectmap_quiet_runs_never_meet_the_other_engine_busy(monkeypatch):
    """A port strobe needs an idle controller and an empty SelectMap buffer,
    so while one SelectMap engine moves a quiet run the other has no active
    job, request or transaction, and its fill status cannot end the run."""
    other = {TargetId.SELECTMAP_WRITE: TargetId.SELECTMAP_READ,
             TargetId.SELECTMAP_READ: TargetId.SELECTMAP_WRITE}
    runs = []
    for name in ("run_sink", "run_source"):
        def checked(self, arg, run=getattr(DmaEngine, name)):
            if self.target in other:
                engine = self.device.engines[other[self.target]]
                assert not engine.addr.active and engine.request is engine.txn is None
                runs.append(self.target)
            return run(self, arg)
        monkeypatch.setattr(DmaEngine, name, checked)
    for i in range(0, timing_worlds.STRETCH_WORLDS, 4):
        timing_worlds.run_register_world(timing_worlds._stretch_spec(i))
    for i in range(0, timing_worlds.DIFF_QUIET_WORLDS, 30):
        timing_worlds.run_register_world(timing_worlds._quiet_spec(i))
    assert runs.count(TargetId.SELECTMAP_WRITE) > 100
    assert runs.count(TargetId.SELECTMAP_READ) > 100


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
    between their first and last quarter, and the recurrence table holds
    only what it saw since the last register write."""
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
    assert len(world.device.steady.table) < SteadyState.TABLE_LIMIT
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
            assert not world.device.steady.table    # cleared by the last acknowledgement

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
