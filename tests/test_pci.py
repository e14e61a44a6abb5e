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
    OutOfAddressSpace,
    PciBus,
    PciConfig,
    TxnState,
    UnmappedAddress,
)
from proteus_sim.fixed_part import StreamBuffer
from proteus_sim.sim import FOREVER, RunAhead, Simulator
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


def test_unmapped_addresses_are_mapped_again():
    """Four 4 KiB map and unmap pairs fit in a space of three pages."""
    host = HostMemory(base=2**32 - 3 * 4096)
    for _ in range(4):
        _buf, base = host.map_shared_region(4096)
        assert base == 2**32 - 3 * 4096
        host.unmap(base)
    with pytest.raises(OutOfAddressSpace):
        host.map_shared_region(3 * 4096 + 1)


@given(st.lists(st.one_of(st.integers(1, 3 * 4096), st.integers(-8, -1)), max_size=40))
@settings(max_examples=150)
def test_mapped_regions_stay_aligned_disjoint_and_locatable(ops):
    """Any sequence of maps (a size) and unmaps (of a live region, counted
    from the newest): every region is page-aligned, none overlap, a new one
    takes the lowest gap that fits, and ``locate`` resolves exactly the
    mapped spans."""
    floor = 0x1000
    host = HostMemory(base=floor)
    live = []           # (start, end, buffer) in mapping order
    for op in ops:
        if op > 0:
            buf, base = host.map_shared_region(op)
            assert base % 4096 == 0 and len(buf) == op
            fits = [a for a in range(floor, base + 1, 4096)
                    if all(a + op <= s or e <= a for s, e, _buf in live)]
            assert fits[0] == base
            live.append((base, base + op, buf))
        elif live:
            host.unmap(live.pop(op % len(live))[0])
    spans = sorted(live, key=lambda span: span[0])
    assert all(a1 <= b0 for (_a0, a1, _), (b0, _b1, _) in zip(spans, spans[1:]))
    for start, end, buf in spans:
        assert host.locate(start, end - start) == (buf, 0)
        with pytest.raises(UnmappedAddress):
            host.locate(start, end - start + 1)
        for address in (start - 1, end - 1, end):
            inside = [(s, b) for s, e, b in spans if s <= address < e]
            if inside:
                assert host.locate(address, 1) == (inside[0][1], address - inside[0][0])
            else:
                with pytest.raises(UnmappedAddress):
                    host.locate(address, 1)


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


def scan_clear_time(stalls, t):
    """The end of the chain of windows covering t, by a scan of every window."""
    end = t
    for start, stop in sorted(stalls):
        if start > end:
            break
        end = max(end, stop)
    return end


@given(windows=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), max_size=12),
       probes=st.lists(st.integers(0, 100), min_size=1, max_size=10))
def test_stall_clear_time_matches_a_scan(windows, probes):
    # Windows are added in any order, nested, overlapping, adjacent or apart.
    sim, host, bus = make_bus()
    for start, dur in windows:
        bus.inject_stall(start, dur)
    for t in [*probes, *(s for s, _d in windows), *(s + d for s, d in windows)]:
        assert bus.stall_clear_time(t) == scan_clear_time([(s, s + d) for s, d in windows], t)


@given(windows=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), max_size=12),
       probes=st.lists(st.integers(0, 100), min_size=1, max_size=10))
def test_next_stalled_is_the_first_stalled_picosecond(windows, probes):
    sim, host, bus = make_bus()
    for start, dur in windows:
        bus.inject_stall(start, dur)
    for t in [*probes, *(s for s, _d in windows), *(s + d for s, d in windows)]:
        stalled = [u for u in range(t, 100) if any(s <= u < s + d for s, d in windows)]
        assert bus.next_stalled(t) == (stalled[0] if stalled else FOREVER)


def test_stall_clear_time_follows_nested_and_chained_windows():
    sim, host, bus = make_bus()
    for start, dur in ((0, 100), (10, 10), (100, 5), (200, 1), (104, 50)):
        bus.inject_stall(start, dur)
    assert bus.stall_clear_time(15) == 154      # nested, then adjacent, then overlapping
    assert bus.stall_clear_time(160) == 160
    assert bus.stall_clear_time(200) == 201


class Watcher(RunAhead):
    """Points every ``period`` ps that log the buffer's occupancy; every third
    point puts it to sleep until a moved word takes the occupancy to
    ``mark``, which wakes it one ps later."""

    def __init__(self, sim, buf, log, period, mark):
        self.sim, self.buf, self.log, self.period, self.mark = sim, buf, log, period, mark
        self.points = 0

    def _run(self):
        self.run_ahead()

    def point(self):
        t = self.key[0]
        self.sim.now = t
        self.log.append(("point", t, self.buf.occupancy))
        self.points += 1
        self.key = (t + self.period, self.sim.alloc()) if self.points % 3 else None
        return True

    def moved(self):
        if self.key is None and self.buf.occupancy == self.mark:
            self.wake(self.sim.now + 1)


@given(to_device=st.booleans(), data=st.binary(min_size=1, max_size=120),
       extra=st.integers(0, 8), period=st.sampled_from([2, 3, 5]), grant=st.integers(0, 3),
       burst=st.integers(1, 40), step=st.integers(1, 7), mark=st.integers(0, 40),
       events=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 3)), max_size=8),
       stalls=st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)), max_size=3),
       horizons=st.lists(st.integers(0, 400), max_size=3))
@settings(max_examples=300, deadline=None)
def test_quiet_runs_match_word_by_word(to_device, data, extra, period, grant, burst, step,
                                       mark, events, stalls, horizons):
    # A master whose run_sink/run_source take the words before the one that
    # wakes a sleeping watcher, against the same master moving every word
    # alone: the same log of points, queued events and finishes, the same
    # buffer and host memory, the same times.
    words = -(-len(data) // 4)

    def run(quiet):
        sim = Simulator()
        host = HostMemory()
        bus = PciBus(sim, host, PciConfig(clock_period=period, grant_latency_cycles=grant,
                                          max_burst_cycles=burst))
        buf = StreamBuffer(capacity=words + extra + 8, fill_low=1, fill_high=1)
        mem, base = host.map_shared_region(len(data))
        if to_device:
            mem[:] = data
        else:
            for i in range(words + extra):
                buf.push(int.from_bytes(data[4 * i:4 * i + 4], "little") if i < words else i)
        log = []
        watcher = Watcher(sim, buf, log, step, mark)
        (buf.on_enqueue if to_device else buf.on_dequeue)(watcher.moved)
        watcher.wake(0)

        def run_sink(chunk):
            n = min(len(chunk) >> 2, buf.free_words)
            if watcher.key is None and buf.occupancy < mark:
                n = min(n, mark - buf.occupancy - 1)
            if n > 0:
                buf.exchange(chunk[:4 * n], 0)
            return max(n, 0)

        def run_source(count):
            n = min(count, buf.occupancy)
            if watcher.key is None and buf.occupancy > mark:
                n = min(n, buf.occupancy - mark - 1)
            return buf.exchange(b"", n) if n > 0 else b""

        done = [0]

        def finish(txn):
            log.append(("finish", sim.now, txn.state, txn.transferred_bytes))
            done[0] += txn.transferred_bytes

        def fetch():
            if done[0] >= len(data):
                return None
            return BusTransaction(
                "dev", Direction.TO_DEVICE if to_device else Direction.TO_HOST,
                base + done[0], len(data) - done[0],
                word_sink=lambda w, n: buf.push(w), word_source=lambda n: buf.pop(),
                run_sink=run_sink if quiet and to_device else None,
                run_source=run_source if quiet and not to_device else None, on_finish=finish)

        def event(kind):
            log.append(("event", sim.now, buf.occupancy))
            if kind == 1 and to_device and buf.occupancy:
                log.append(("popped", buf.pop()))
            elif kind == 1 and not to_device and buf.free_words:
                buf.push(sim.now)
            elif kind == 2:
                bus.inject_stall(sim.now + 1, 7)

        for start, dur in stalls:
            bus.inject_stall(start, dur)
        for t, kind in events:
            sim.schedule_at(t, lambda kind=kind: event(kind))
        bus.set_master(fetch)
        bus.poke()
        for h in sorted(horizons):
            sim.run_until(h)
            log.append(("horizon", sim.now))
        sim.run_until_idle()
        return log, sim.now, bytes(mem), buf.exchange(b"", buf.occupancy)

    assert run(True) == run(False)
