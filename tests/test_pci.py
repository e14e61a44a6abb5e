"""PCI bus-master model tests (timing oracles are analytic cycle counts)."""

import pytest
from hypothesis import example, given, settings
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
    sim, host, bus = make_bus(grant, burst)
    base, content = fill_region(host, nbytes, seed=7)
    for start, dur in stalls:
        bus.inject_stall(start * P, dur * P)
    master = AutoMaster(bus, base, nbytes)
    bus.poke()
    sim.run_until_idle()
    assert master.done_at is not None
    assert bytes(master.delivered) == content
    # At idle every burst is counted: busy from its grant to its end, one
    # data cycle per word moved.
    grants = [r.time for r in bus.trace.records if r.event == "grant"]
    ends = [r.time for r in bus.trace.records if r.event in ("complete", "preempt")]
    assert len(grants) == len(ends)
    assert bus.busy_ticks == sum(e - g for g, e in zip(grants, ends))
    assert bus.total_data_cycles == -(-nbytes // 4)


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
    # The first stalled picosecond at or after t, as term gives it:
    # t + max(term[0], 0), or none when no window is over t or after it.
    sim, host, bus = make_bus()
    for start, dur in windows:
        bus.inject_stall(start, dur)
    for t in [*probes, *(s for s, _d in windows), *(s + d for s, d in windows)]:
        stalled = [u for u in range(t, 100) if any(s <= u < s + d for s, d in windows)]
        term = bus.term(t)
        assert (term and t + max(term[0], 0)) == (stalled[0] if stalled else None)
        assert bus.stalled_at(t) == any(s <= t < s + d for s, d in windows)


def scan_runs(windows, t, end):
    """The runs of stalled picoseconds in [t, end] as (first, last + 1), by a
    scan of every picosecond."""
    runs = []
    for u in range(t, end + 1):
        if any(s <= u < s + d for s, d in windows):
            if runs and runs[-1][1] == u:
                runs[-1][1] = u + 1
            else:
                runs.append([u, u + 1])
    return [tuple(run) for run in runs]


@given(windows=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), max_size=8),
       probes=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 40)), min_size=1,
                       max_size=6))
@example(windows=[(10, 10), (20, 5), (40, 20), (45, 5), (70, 1)],
         probes=[(12, 28), (25, 14), (50, 20), (71, 0)])
def test_windows_and_term_match_a_scan(windows, probes):
    # Windows nested, touching, overlapping or apart; spans that start and
    # end on every edge, inside a window and outside every window.
    sim, host, bus = make_bus()
    for start, dur in windows:
        bus.inject_stall(start, dur)
    edges = sorted({*(s for s, _d in windows), *(s + d for s, d in windows)})
    spans = [(t, t + n) for t, n in probes] + [(t, e) for t in edges for e in edges if e >= t]
    for t, end in spans:
        assert bus.windows(t, end) == tuple((s - t, e - t) for s, e in scan_runs(windows, t, end))
    runs = scan_runs(windows, 0, 100)
    for t in [*(t for t, _n in probes), *edges]:
        # The window over t, or the next one, whole.
        over = next((run for run in runs if run[1] > t), None)
        assert bus.term(t) == (over and (over[0] - t, over[1] - over[0]))


def test_stall_clear_time_follows_nested_and_chained_windows():
    sim, host, bus = make_bus()
    for start, dur in ((0, 100), (10, 10), (100, 5), (200, 1), (104, 50)):
        bus.inject_stall(start, dur)
    assert bus.stall_clear_time(15) == 154      # nested, then adjacent, then overlapping
    assert bus.stall_clear_time(160) == 160
    assert bus.stall_clear_time(200) == 201


@st.composite
def stall_windows(draw):
    """(start, duration) windows in any order: apart, overlapping, nested in
    another (a later start and an earlier end), adjacent to another, and a
    comb of windows shorter than the bus period."""
    windows = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 80)), max_size=5))
    for start, dur in list(windows):
        shape = draw(st.sampled_from(["", "nested", "adjacent"]))
        if shape == "nested" and dur > 2:
            inner = draw(st.integers(start + 1, start + dur - 2))
            windows.append((inner, draw(st.integers(1, start + dur - inner - 1))))
        elif shape == "adjacent":
            windows.append((start + dur, draw(st.integers(1, 40))))
    if draw(st.booleans()):
        first, step = draw(st.integers(0, 300)), draw(st.integers(1, 50))
        windows += [(first + k * step, draw(st.integers(1, 8)))
                    for k in range(draw(st.integers(1, 8)))]
    return draw(st.permutations(windows))


@given(windows=stall_windows(), period=st.integers(9, 40), first=st.integers(0, 400),
       count=st.integers(0, 30))
def test_first_stalled_matches_a_lattice_scan(windows, period, first, count):
    bus = PciBus(Simulator(), HostMemory(), PciConfig(clock_period=period))
    for start, dur in windows:
        bus.inject_stall(start, dur)
    for t in [first, *(s for s, _d in windows), *(s + d for s, d in windows)]:
        stalled = [k for k in range(count)
                   if any(s <= t + k * period < s + d for s, d in windows)]
        assert bus._first_stalled(t, count) == (stalled[0] if stalled else count)


@given(data=st.data())
def test_stalls_repeat_matches_a_scan(data):
    """``stalls_repeat`` finds the first picosecond at which the windows stop
    repeating those a whole number of periods earlier, as a scan does:
    periodic windows, one of them a picosecond off, lengthened, left out or
    with a window nested in it, and a window anywhere besides."""
    period = data.draw(st.integers(5, 60), "period")
    pattern = data.draw(st.lists(st.tuples(st.integers(0, period - 1), st.integers(1, period)),
                                 min_size=1, max_size=3), "pattern")
    windows = [(s + k * period, d) for k in range(data.draw(st.integers(1, 8), "repeats"))
               for s, d in pattern]
    i = data.draw(st.integers(0, len(windows) - 1), "changed")
    s, d = windows[i]
    change = data.draw(st.sampled_from(["", "early", "late", "longer", "out", "nested", "other"]))
    if change in ("early", "late", "longer"):
        windows[i] = (s + (change == "late") - (change == "early" and s > 0),
                      d + (change == "longer"))
    elif change == "out":
        del windows[i]
    elif change == "nested" and d > 2:
        windows.append((s + 1, d - 2))
    elif change == "other":
        windows.append(data.draw(st.tuples(st.integers(0, 500), st.integers(1, 50)), "other"))
    bus = PciBus(Simulator(), HostMemory())
    for start, dur in windows:
        bus.inject_stall(start, dur)
    t0 = data.draw(st.integers(0, 200), "t0")
    shift = period * data.draw(st.integers(1, 2), "periods")
    end = data.draw(st.integers(t0 + shift, 700), "end")

    def stalled(t):
        return any(s <= t < s + d for s, d in windows)
    want = next((t for t in range(t0 + shift, end) if stalled(t) != stalled(t - shift)), end)
    assert bus.stalls_repeat(t0, t0 + shift, end) == want


@pytest.mark.parametrize("order", [[(0, 100), (10, 10)], [(10, 10), (0, 100)]],
                         ids=["outer-first", "nested-first"])
def test_a_nested_window_ends_no_stall(order):
    """Windows (0, 100) and (10, 20) ps, added while a burst is granted at 0
    whose first word comes at 30 ps: no word moves before 100."""
    sim = Simulator()
    host = HostMemory()
    bus = PciBus(sim, host, PciConfig(clock_period=30, grant_latency_cycles=1),
                 trace=TraceRecorder(sim))
    base, content = fill_region(host, 64)
    master = AutoMaster(bus, base, 64)
    bus.poke()
    for start, dur in order:
        bus.inject_stall(start, dur)
    sim.run_until_idle()
    assert bytes(master.delivered) == content
    assert min(t for t, _n, _m in cycle_log(bus)) >= 100
