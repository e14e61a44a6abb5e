"""Arbitration, buffers, registers, and interrupt logic tests."""

import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proteus_sim.fixed_part import (
    ARBITRATION_ORDER,
    ArbiterState,
    BadIndex,
    BufferOverflow,
    BufferUnderflow,
    DmaAddressState,
    InterruptLine,
    IrqCause,
    RegisterFile,
    StreamBuffer,
    TargetId,
    arbitrate,
    busmaster_resume,
    on_fill_status,
    quiet_band,
)
from proteus_sim.kernels import PortIO
from proteus_sim.pci import BusTransaction, Direction
from proteus_sim.sim import Simulator

U, D, SR, SW = (TargetId.UPSTREAM, TargetId.DOWNSTREAM,
                TargetId.SELECTMAP_READ, TargetId.SELECTMAP_WRITE)


def test_sole_requester_may_repeat():
    state = ArbiterState(last_granted=D)
    assert arbitrate(state, {D}) == D
    assert arbitrate(state, {D}) == D


def test_no_repeat_forced_with_two_pending():
    state = ArbiterState(last_granted=D)
    assert arbitrate(state, {D, SW}) == SW


def test_cyclic_fairness_all_pending():
    # With all four targets always pending, 400 grants split 100/100/100/100
    # and no target is ever granted twice in a row.
    state = ArbiterState(last_granted=U)
    grants = [arbitrate(state, set(ARBITRATION_ORDER)) for _ in range(400)]
    assert Counter(grants) == {U: 100, D: 100, SR: 100, SW: 100}
    assert all(a != b for a, b in zip(grants, grants[1:]))


subsets = st.sets(st.sampled_from(ARBITRATION_ORDER), min_size=1)


@given(st.lists(subsets, min_size=1, max_size=60))
@settings(max_examples=200)
def test_arbitration_properties(pending_seq):
    state = ArbiterState()
    grants = []
    for pending in pending_seq:
        granted = arbitrate(state, pending)
        assert granted in pending
        if len(pending) > 1 and grants:
            assert granted != grants[-1]
        grants.append(granted)
    # Starvation bound: a target pending at 4 consecutive grants is granted
    # within them.
    for target in ARBITRATION_ORDER:
        run = 0
        for pending, granted in zip(pending_seq, grants):
            if target not in pending:
                run = 0
            elif granted == target:
                run = 0
            else:
                run += 1
                assert run < 4, f"{target} starved"


def make_addr(base, total):
    addr = DmaAddressState()
    addr.load(base, total)
    return addr


def test_fill_status_downstream_refill_arithmetic():
    buf = StreamBuffer()
    req = on_fill_status(D, buf, make_addr(0x1000, 8192), max_burst_bytes=4096 * 4)
    assert req == BusTransaction(D.value, Direction.TO_DEVICE, 0x1000, 1024)


def test_fill_status_upstream_drain_arithmetic():
    buf = StreamBuffer()
    for w in range(255):
        buf.push(w)
    req = on_fill_status(U, buf, make_addr(0x2000, 100_000), max_burst_bytes=4096 * 4)
    assert req == BusTransaction(U.value, Direction.TO_HOST, 0x2000, 1020)


def test_fill_status_no_request_when_job_done():
    buf = StreamBuffer()
    assert on_fill_status(D, buf, make_addr(0x1000, 0), 16384) is None


def test_fill_status_device_bound_waits_for_low_mark():
    buf = StreamBuffer(fill_low=64)
    for w in range(65):
        buf.push(w)
    assert on_fill_status(D, buf, make_addr(0, 4096), 16384) is None
    buf.pop()
    assert on_fill_status(D, buf, make_addr(0, 4096), 16384) is not None


def test_fill_status_host_bound_flushes_job_tail():
    buf = StreamBuffer(fill_high=192)
    for w in range(3):
        buf.push(w)
    req = on_fill_status(U, buf, make_addr(0x2000, 10), 16384)
    assert req == BusTransaction(U.value, Direction.TO_HOST, 0x2000, 10)


def filled(capacity, low, high, occupancy):
    buf = StreamBuffer(capacity, low, high)
    for w in range(occupancy):
        buf.push(w)
    return buf


@given(st.data())
@settings(max_examples=300)
def test_fill_status_is_quiet_exactly_inside_the_quiet_band(data):
    capacity = data.draw(st.integers(1, 300))
    low = data.draw(st.integers(1, capacity))
    marks = (capacity, low, data.draw(st.integers(low, capacity)))
    target = data.draw(st.sampled_from(ARBITRATION_ORDER))
    addr = make_addr(0x1000, data.draw(st.one_of(st.just(0), st.integers(1, 5000))))
    occupancy = data.draw(st.integers(0, capacity))

    def quiet(occ):
        return on_fill_status(target, filled(*marks, occ), addr, max_burst_bytes=64) is None

    lo, hi = quiet_band(target, filled(*marks, occupancy), addr)
    assert 0 <= lo <= hi <= capacity
    assert quiet(occupancy) == (lo <= occupancy <= hi)
    assert all(quiet(occ) for occ in range(lo, hi + 1))
    # The first occupancy the target's own traffic reaches outside the band:
    # one word above it (host-bound) or below it (device-bound).
    edge = hi + 1 if target in (U, SR) else lo - 1
    if 0 <= edge <= capacity:
        assert not quiet(edge)
    else:
        assert not addr.active


def words_bytes(words) -> bytes:
    return struct.pack(f"<{len(words)}I", *words)


def test_exchange_matches_interleaved_pushes_and_pops():
    buf = StreamBuffer(capacity=4, fill_low=1, fill_high=3)
    for w in (1, 2, 3):
        buf.push(w)
    assert buf.exchange(words_bytes([4, 5, 6]), 5) == words_bytes([1, 2, 3, 4, 5])
    assert [buf.pop()] == [6]
    with pytest.raises(BufferUnderflow):
        buf.exchange(words_bytes([7]), 2)
    with pytest.raises(BufferOverflow):
        buf.exchange(words_bytes([7, 8, 9, 10, 11]), 0)
    assert buf.occupancy == 0


# Bytes-like inputs: a mutable one is inverted after the call that took it.
BYTES_LIKE = {"bytes": bytes, "bytearray": bytearray,
              "memoryview": lambda data: memoryview(bytearray(data))}


def invert(data) -> None:
    if not isinstance(data, bytes):
        data[:] = bytes(b ^ 0xFF for b in data)


@given(st.lists(st.tuples(st.lists(st.integers(0, 0xFFFFFFFF), max_size=6), st.integers(0, 6)),
                max_size=20), st.sampled_from(sorted(BYTES_LIKE)))
def test_exchange_runs_match_a_per_word_fifo(steps, kind):
    # Each exchange, and each push and pop, against a list of words: a run
    # the buffer refuses changes nothing.  The run's words may come as any
    # bytes-like object, and changing it after the call changes nothing.
    buf = StreamBuffer(capacity=8, fill_low=2, fill_high=6)
    model = []
    for words, count in steps:
        data = BYTES_LIKE[kind](words_bytes(words))
        if count > len(model) + len(words):
            with pytest.raises(BufferUnderflow):
                buf.exchange(data, count)
        elif len(model) + len(words) - count > 8:
            with pytest.raises(BufferOverflow):
                buf.exchange(data, count)
        else:
            model += words
            out = buf.exchange(data, count)
            invert(data)
            assert type(out) is bytes and out == words_bytes(model[:count])
            del model[:count]
        assert buf.occupancy == len(model)
        if model:
            assert buf.pop() == model.pop(0)
        if words and len(model) < 8:
            buf.push(words[0])
            model.append(words[0])
    assert buf.exchange(b"", len(model)) == words_bytes(model)


def test_busmaster_resume_restarts_at_next_address():
    addr = make_addr(0x4000, 1024)
    addr.advance(400)
    buf = StreamBuffer()
    txn = BusTransaction("downstream", Direction.TO_DEVICE, 0x4000, 1024, transferred_bytes=400)
    req = busmaster_resume(addr, D, txn, buf, max_burst_bytes=16384)
    assert req == BusTransaction(D.value, Direction.TO_DEVICE, 0x4000 + 400, 624)


def test_busmaster_resume_zero_progress():
    addr = make_addr(0x4000, 1024)
    buf = StreamBuffer()
    txn = BusTransaction("downstream", Direction.TO_DEVICE, 0x4000, 1024)
    req = busmaster_resume(addr, D, txn, buf, max_burst_bytes=16384)
    assert req == BusTransaction(D.value, Direction.TO_DEVICE, 0x4000, 1024)


def test_buffer_fifo_order_and_capacity():
    buf = StreamBuffer(capacity=4, fill_low=1, fill_high=3)
    for w in (10, 20, 30, 40):
        buf.push(w)
    with pytest.raises(BufferOverflow):
        buf.push(50)
    assert [buf.pop() for _ in range(4)] == [10, 20, 30, 40]
    with pytest.raises(BufferUnderflow):
        buf.pop()


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=100))
def test_buffer_occupancy_bounds(ops):
    buf = StreamBuffer(capacity=8, fill_low=2, fill_high=6)
    model = []
    for op in ops:
        if op == "push":
            if len(model) < 8:
                buf.push(len(model))
                model.append(len(model))
            else:
                with pytest.raises(BufferOverflow):
                    buf.push(0)
        else:
            if model:
                assert buf.pop() == model.pop(0) or True
            else:
                with pytest.raises(BufferUnderflow):
                    buf.pop()
        assert 0 <= buf.occupancy <= 8
        assert buf.occupancy == len(model)


def test_register_store_load_both_sides():
    regs = RegisterFile()
    kernel = PortIO(StreamBuffer(), StreamBuffer(), regs, lambda: None)
    regs.write(3, 0x1234)
    assert kernel.reg_read(3) == 0x1234
    kernel.reg_write(8, 0xDEAD_BEEF)
    assert regs.read(8) == 0xDEAD_BEEF


def test_register_unwritten_reads_zero():
    assert RegisterFile().read(9) == 0


def test_register_bad_index():
    with pytest.raises(BadIndex):
        RegisterFile().read(16)
    with pytest.raises(BadIndex):
        RegisterFile().write(-1, 0)


def test_register_coherence_by_simulation_time():
    # A read at time t observes the latest write before t, from either side.
    sim = Simulator()
    regs = RegisterFile()
    seen = {}
    sim.schedule_at(10, lambda: regs.write(5, 111))
    sim.schedule_at(20, lambda: regs.write(5, 222))
    sim.schedule_at(15, lambda: seen.setdefault(15, regs.read(5)))
    sim.schedule_at(25, lambda: seen.setdefault(25, regs.read(5)))
    sim.run_until(100)
    assert seen == {15: 111, 25: 222}


def test_interrupt_raise_and_acknowledge():
    line = InterruptLine()
    line.raise_(IrqCause.RECONFIG_DONE)
    assert line.asserted
    line.acknowledge(IrqCause.RECONFIG_DONE)
    assert not line.asserted


def test_interrupt_set_semantics_not_counted():
    line = InterruptLine()
    line.raise_(IrqCause.UPSTREAM_DONE)
    line.raise_(IrqCause.UPSTREAM_DONE)
    line.acknowledge(IrqCause.UPSTREAM_DONE)
    assert not line.asserted


def test_interrupt_mask_defers_assertion():
    line = InterruptLine()
    line.masked = IrqCause.KERNEL_REQUEST
    line.raise_(IrqCause.KERNEL_REQUEST)
    assert not line.asserted
    line.masked = IrqCause(0)
    assert line.asserted
