"""Event kernel and clock domain tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proteus_sim.sim import SchedulingInPast, Simulator, UnknownDomain


def enumerate_edges(period, phase, hi, gaps=()):
    """Brute-force oracle: lattice points in [0, hi) minus gated windows."""
    out = []
    for t in range(phase, hi, period):
        if any(a <= t < b for a, b in gaps):
            continue
        out.append(t)
    return out


def test_zero_delay_fires_before_later_events():
    sim = Simulator()
    order = []
    sim.schedule_at(5, lambda: order.append("later"))
    sim.schedule_at(sim.now, lambda: order.append("now"))
    sim.run_until(10)
    assert order == ["now", "later"]


def test_equal_time_events_run_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule_at(100, lambda: order.append("a"))
    sim.schedule_at(100, lambda: order.append("b"))
    sim.run_until(100)
    assert order == ["a", "b"]


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.schedule_at(10, lambda: None)
    sim.run_until(10)
    with pytest.raises(SchedulingInPast):
        sim.schedule_at(sim.now - 1, lambda: None)


def test_run_until_empty_queue():
    sim = Simulator()
    assert sim.run_until(10**9) == (10**9, 0)


def test_run_until_boundary_inclusive():
    sim = Simulator()
    for t in (1, 2, 3):
        sim.schedule_at(t, lambda: None)
    now, executed = sim.run_until(2)
    assert (now, executed) == (2, 2)


def test_cascading_events_counted():
    # Hand trace: parent at t=5 schedules a child at t=7; both run by t=10.
    sim = Simulator()
    fired = []
    sim.schedule_at(5, lambda: (fired.append(5), sim.schedule_at(7, lambda: fired.append(7))))
    now, executed = sim.run_until(10)
    assert executed == 2
    assert fired == [5, 7]
    assert now == 10


def test_event_ids_unique():
    sim = Simulator()
    ids = {sim.schedule_at(i, lambda: None) for i in range(50)}
    assert len(ids) == 50


@given(
    period=st.integers(1, 7),
    phase_frac=st.integers(0, 6),
    t1=st.integers(0, 50),
    span=st.integers(0, 50),
)
def test_edge_count_formula_matches_enumeration(period, phase_frac, t1, span):
    phase = phase_frac % period
    sim = Simulator()
    dom = sim.add_domain("d", period, phase)
    t2 = t1 + span
    expected = len([t for t in enumerate_edges(period, phase, t2) if t >= t1])
    assert dom.edges_between(t1, t2) == expected


def test_subscribed_edges_match_enumeration():
    sim = Simulator()
    dom = sim.add_domain("clk", 3, 1)
    seen = []
    dom.subscribe(seen.append)
    sim.run_until(20)
    assert seen == [t for t in enumerate_edges(3, 1, 21)]


def test_gate_masks_edges_and_resumes_on_lattice():
    # 50 MHz domain (20 ns period); gate during [100 ns, 140 ns).
    sim = Simulator()
    dom = sim.add_domain("cfg", 20_000)
    seen = []
    dom.subscribe(seen.append)
    sim.schedule_at(100_000, lambda: dom.gate())
    sim.schedule_at(140_000, lambda: dom.ungate())
    sim.run_until(200_000)
    assert seen == enumerate_edges(20_000, 0, 200_001, gaps=[(100_000, 140_000)])
    assert 140_000 in seen  # first lattice point at/after ungating


def test_gate_then_ungate_same_instant_is_identity():
    def run(with_blip):
        sim = Simulator()
        dom = sim.add_domain("clk", 7, 2)
        seen = []
        dom.subscribe(seen.append)
        if with_blip:
            sim.schedule_at(16, lambda: (dom.gate(), dom.ungate()))
        sim.run_until(60)
        return seen

    assert run(True) == run(False)


def test_gate_unknown_domain():
    sim = Simulator()
    with pytest.raises(UnknownDomain):
        sim.set_clock_gate("nope", False)


def test_set_clock_gate_by_name():
    sim = Simulator()
    dom = sim.add_domain("clk", 10)
    seen = []
    dom.subscribe(seen.append)
    sim.set_clock_gate("clk", False)
    sim.run_until(100)
    assert seen == []
    sim.set_clock_gate("clk", True)
    sim.run_until(200)
    assert seen == enumerate_edges(10, 0, 201, gaps=[(0, 100)])


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9)), max_size=30))
@settings(max_examples=200)
def test_causality_and_determinism(entries):
    def run():
        sim = Simulator()
        log = []
        for t, tag in entries:
            sim.schedule_at(t, lambda t=t, tag=tag: log.append((sim.now, t, tag)))
        sim.run_until(100)
        return log

    log1, log2 = run(), run()
    assert log1 == log2
    times = [rec[0] for rec in log1]
    assert times == sorted(times)
    assert all(now == t for now, t, _ in log1)


def test_nested_scheduling_from_subscriber():
    # An edge handler gating its own domain stops subsequent edges.
    sim = Simulator()
    dom = sim.add_domain("clk", 10)
    seen = []

    def handler(t):
        seen.append(t)
        if len(seen) == 3:
            dom.gate()

    dom.subscribe(handler)
    sim.run_until(500)
    assert seen == [0, 10, 20]


def test_reserved_slot_runs_between_earlier_and_later_events():
    sim = Simulator()
    order = []
    sim.schedule_at(10, lambda: order.append("before"))
    slot = sim.alloc()
    sim.schedule_at(10, lambda: order.append("after"))
    sim.schedule_reserved(10, slot, lambda: order.append("reserved"))
    sim.run_until(10)
    assert order == ["before", "reserved", "after"]


class LazyTicker:
    """Items at 0, 3, 6, ...: each takes the next item's number when it runs,
    as an event that re-schedules itself would."""

    def __init__(self, sim, log, count):
        self.sim, self.log, self.left = sim, log, count
        self.key = (0, sim.alloc())
        sim.stream = self

    def advance(self):
        t = self.key[0]
        self.sim.now = t
        self.log.append(("tick", t))
        self.left -= 1
        if self.left:
            self.key = (t + 3, self.sim.alloc())
        else:
            self.sim.stream = None


def queued_ticker(sim, log, count):
    def tick(t, left):
        log.append(("tick", t))
        if left > 1:
            sim.schedule_at(t + 3, lambda: tick(t + 3, left - 1))
    sim.schedule_at(0, lambda: tick(0, count))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9)), max_size=20))
@settings(max_examples=100)
def test_lazy_stream_runs_in_queued_event_order(entries):
    def run(lazy):
        sim = Simulator()
        log = []
        (LazyTicker if lazy else queued_ticker)(sim, log, 12)

        def other(t, tag):
            log.append((tag, sim.now))
            if tag % 3 == 0:   # some events schedule more work at a tick time
                sim.schedule_at(sim.now + 3, lambda: log.append(("child", sim.now)))
        for t, tag in entries:
            sim.schedule_at(t, lambda t=t, tag=tag: other(t, tag))
        sim.run_until(100)
        return log

    assert run(lazy=True) == run(lazy=False)
