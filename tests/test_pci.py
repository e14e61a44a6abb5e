"""PCI bus-master model tests (timing oracles are analytic cycle counts)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records import bus_cycles, measure_throughput

from proteus_sim.pci import (
    PCI_CLOCK_PERIOD,
    BusTransaction,
    Direction,
    HostMemory,
    PciBus,
    PciConfig,
    TxnState,
    UnmappedAddress,
)
from proteus_sim.sim import Simulator
from proteus_sim.trace import TraceRecorder

P = PCI_CLOCK_PERIOD


def make_bus(grant=0, burst=4096):
    sim = Simulator()
    host = HostMemory()
    bus = PciBus(sim, host, PciConfig(grant_latency_cycles=grant, max_burst_cycles=burst),
                 trace=TraceRecorder(sim))
    return sim, host, bus


def cycle_log(bus):
    return bus_cycles(bus.trace.records, bus.config)


def fill_region(host, nbytes, seed=0):
    buf, base = host.map_shared_region(nbytes)
    for i in range(nbytes):
        buf[i] = (seed + i * 13) % 256
    return base, bytes(buf)


class AutoMaster:
    """Single-job master that restarts preempted bursts at the next address."""

    def __init__(self, bus, address, total_bytes):
        self.bus = bus
        self.address = address
        self.total = total_bytes
        self.next_off = 0
        self.delivered = bytearray()
        self.done_at = None
        bus.set_master(self.fetch)

    def fetch(self):
        if self.next_off >= self.total:
            return None
        return BusTransaction("dev", Direction.TO_DEVICE,
                              self.address + self.next_off, self.total - self.next_off,
                              word_sink=self.sink, on_finish=self.finish)

    def sink(self, word, n):
        self.delivered += word.to_bytes(4, "little")[:n]

    def finish(self, txn):
        self.next_off += txn.transferred_bytes
        if self.next_off >= self.total:
            self.done_at = self.bus.sim.now


def test_map_regions_page_aligned_and_disjoint():
    host = HostMemory()
    spans = []
    for nbytes in (32768, 100, 5000):
        buf, base = host.map_shared_region(nbytes)
        assert base % 4096 == 0
        spans.append((base, base + nbytes))
        assert buf == bytearray(nbytes)
        assert host.locate(base, nbytes) == (buf, 0)
    spans.sort()
    for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
        assert a1 <= b0


def test_map_zero_bytes_rejected():
    with pytest.raises(ValueError):
        HostMemory().map_shared_region(0)


def test_burst_completion_time_analytic():
    # 1024 bytes, no grant latency, no stalls: 256 data cycles.
    sim, host, bus = make_bus(grant=0)
    base, content = fill_region(host, 1024)
    master = AutoMaster(bus, base, 1024)
    bus.poke()
    sim.run_until_idle()
    assert master.done_at == 256 * P == 7_757_568
    assert bytes(master.delivered) == content


def test_grant_latency_delays_first_data_cycle():
    sim, host, bus = make_bus(grant=8)
    base, _ = fill_region(host, 64)
    master = AutoMaster(bus, base, 64)
    bus.poke()
    sim.run_until_idle()
    assert cycle_log(bus)[0][0] == 8 * P


def test_max_burst_preempts_at_limit():
    sim, host, bus = make_bus(grant=0, burst=128)
    base, _ = fill_region(host, 1024)
    states = []
    txn = BusTransaction("dev", Direction.TO_DEVICE, base, 1024,
                         word_sink=lambda w, n: None,
                         on_finish=lambda t: states.append((t.state, t.transferred_bytes)))
    bus.begin_burst(txn)
    sim.run_until_idle()
    assert states == [(TxnState.PREEMPTED, 512)]


def test_unmapped_address_rejected():
    sim, host, bus = make_bus()
    base, _ = fill_region(host, 64)
    txn = BusTransaction("dev", Direction.TO_DEVICE, base + 60, 64, word_sink=lambda w, n: None)
    with pytest.raises(UnmappedAddress):
        bus.begin_burst(txn)


def test_stall_preempts_mid_burst_at_word_boundary():
    # Words land at k*P; a stall opening between word 99 and word 100
    # cuts the burst off at exactly 400 transferred bytes.
    sim, host, bus = make_bus(grant=0)
    base, _ = fill_region(host, 1024)
    bus.inject_stall(99 * P + 1, 50 * P)
    states = []
    txn = BusTransaction("dev", Direction.TO_DEVICE, base, 1024,
                         word_sink=lambda w, n: None,
                         on_finish=lambda t: states.append((t.state, t.transferred_bytes)))
    bus.begin_burst(txn)
    sim.run_until_idle()
    assert states == [(TxnState.PREEMPTED, 400)]


def test_adjacent_stalls_equivalent_to_merged():
    def run(stalls):
        sim, host, bus = make_bus(grant=2)
        base, _ = fill_region(host, 2048)
        for start, dur in stalls:
            bus.inject_stall(start, dur)
        master = AutoMaster(bus, base, 2048)
        bus.poke()
        sim.run_until_idle()
        return cycle_log(bus), master.done_at

    a = run([(100 * P, 40 * P), (140 * P, 60 * P)])
    b = run([(100 * P, 100 * P)])
    assert a == b


def test_stall_over_idle_bus_is_invisible():
    def run(with_stall):
        sim, host, bus = make_bus(grant=0)
        base, _ = fill_region(host, 256)
        if with_stall:
            bus.inject_stall(1000 * P, 500 * P)  # long after the job ends
        master = AutoMaster(bus, base, 256)
        bus.poke()
        sim.run_until_idle()
        return cycle_log(bus), master.done_at

    assert run(True) == run(False)


def test_throughput_saturated_window_is_wire_rate():
    sim, host, bus = make_bus(grant=0, burst=1 << 30)
    base, _ = fill_region(host, 200_000)
    master = AutoMaster(bus, base, 200_000)
    bus.poke()
    sim.run_until_idle()
    peak = 4 / (P * 1e-12)  # 132.000132 MB/s with the 30303 ps tick quantization
    measured = measure_throughput(cycle_log(bus), (0, 10**9), P)
    assert abs(measured - peak) / peak < 1e-9


def test_throughput_idle_window_is_zero():
    assert measure_throughput([], (0, 10**9), P) == 0.0
    assert measure_throughput([(0, 4, "dev")], (10**6, 2 * 10**6), P) == 0.0


def test_throughput_half_duty_stall_pattern():
    sim, host, bus = make_bus(grant=0, burst=1 << 30)
    window = 10**9  # 1 ms
    for k in range(5):
        bus.inject_stall((2 * k + 1) * window, window)
    base, _ = fill_region(host, 10**6)
    master = AutoMaster(bus, base, 10**6)
    bus.poke()
    sim.run_until_idle()
    measured = measure_throughput(cycle_log(bus), (0, 10 * window), P)
    assert abs(measured - 66e6) / 66e6 < 0.01


def test_data_cycles_never_closer_than_one_period():
    sim, host, bus = make_bus(grant=0, burst=64)
    base, _ = fill_region(host, 4096)
    master = AutoMaster(bus, base, 4096)
    bus.poke()
    sim.run_until_idle()
    times = [t for t, _, _ in cycle_log(bus)]
    assert master.done_at is not None
    assert min(b - a for a, b in zip(times, times[1:])) >= P


@given(
    nbytes=st.integers(1, 600),
    grant=st.integers(0, 8),
    burst=st.integers(1, 64),
    stalls=st.lists(st.tuples(st.integers(0, 800), st.integers(1, 200)), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_byte_stream_survives_any_preemption(nbytes, grant, burst, stalls):
    sim = Simulator()
    host = HostMemory()
    bus = PciBus(sim, host, PciConfig(grant_latency_cycles=grant, max_burst_cycles=burst))
    base, content = fill_region(host, nbytes, seed=7)
    for start, dur in stalls:
        bus.inject_stall(start * P, dur * P)
    master = AutoMaster(bus, base, nbytes)
    bus.poke()
    sim.run_until_idle()
    assert master.done_at is not None
    assert bytes(master.delivered) == content
