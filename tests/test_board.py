"""Register-driven integration tests for the composed board."""

import tracemalloc

import pytest

from proteus_sim import bitstream as bits
from proteus_sim.board import BoardConfig, BoardInert, CommandConflict, Deadlock, World
from proteus_sim.fixed_part import (
    CTRL_START_READBACK,
    CTRL_START_RECONFIG,
    REG_CFG_BASE,
    REG_CFG_LEN,
    REG_CONTROL,
    REG_IRQ_MASK,
    REG_STATUS,
    IrqCause,
    TargetId,
)
from proteus_sim.pci import UnmappedAddress
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


def test_stream_into_inert_region_deadlocks():
    world = booted_world()
    with pytest.raises(Deadlock):
        world.stream(bytes(4096))


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
