"""Event kernel tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proteus_sim.sim import RunAhead, SchedulingInPast, Simulator


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


class Ticker(RunAhead):
    """Points every 10 ps up to 100; each numbers the next, then calls
    ``action(t)``."""

    def __init__(self, sim, log, action=lambda t: None):
        self.sim, self.log, self.action = sim, log, action

    def _run(self):
        self.run_ahead()

    def point(self):
        t = self.key[0]
        self.sim.now = t
        self.key = (t + 10, self.sim.alloc()) if t < 100 else None
        self.log.append(("tick", t))
        self.action(t)
        return True


def test_run_ahead_yields_to_earlier_keys_only_and_stops_at_the_horizon():
    sim = Simulator()
    log = []

    def action(t):
        if t == 10:   # numbered after the tick at 20: a later key at 20
            sim.schedule_at(20, lambda: log.append(("late", sim.now)))
        if t == 20:   # numbered after the tick at 30, before it is queued
            sim.schedule_at(30, lambda: log.append(("mid", sim.now)))

    Ticker(sim, log, action).wake(0)
    sim.schedule_at(30, lambda: log.append(("early", sim.now)))   # before the tick at 30
    sim.run_until(45)
    assert log == [("tick", 0), ("tick", 10), ("tick", 20), ("late", 20),
                   ("early", 30), ("tick", 30), ("mid", 30), ("tick", 40)]
    # Ticks 0-20 run in one event; the tick at 50 lies past the horizon and
    # waits in its slot.
    assert sim.executed == 6
    sim.schedule_at(50, lambda: log.append(("after", sim.now)))
    sim.run_until(50)
    assert log[-2:] == [("tick", 50), ("after", 50)]


def test_reach_stops_before_the_first_queued_event_and_at_the_horizon():
    sim = Simulator()
    seen = []
    sim.schedule_at(10, lambda: seen.append(sim.reach()))
    sim.schedule_at(70, lambda: seen.append(sim.reach()))
    sim.schedule_at(100, lambda: None)
    sim.run_until(80)     # at 10 the event at 70 comes first, at 70 the horizon
    assert seen == [69, 80]
    sim.step()            # runs the event at 100 with no horizon
    assert sim.reach() == float("inf")


def test_run_ahead_sleeps_through_stream_items_until_one_wakes_it():
    sim = Simulator()
    log = []

    def sleep_after(t):
        if t in (0, 18):
            ticker.key = None

    ticker = Ticker(sim, log, sleep_after)

    class Items:
        """Lazy stream items at 3, 6, ..., 24; the one at 6 wakes the ticker at 8."""

        def __init__(self):
            self.key = (3, sim.alloc())
            sim.stream = self

        def advance(self):
            t = self.key[0]
            sim.now = t
            log.append(("item", t))
            if t == 6:
                ticker.wake(8)
            self.key = (t + 3, sim.alloc())
            if t == 24:
                sim.stream = None

    ticker.wake(0)
    Items()
    sim.run_until(20)
    # The tick at 18 was numbered before the item at 18, so it runs first;
    # asleep again, the event settles items up to the horizon only.
    assert log == [("tick", 0), ("item", 3), ("item", 6), ("tick", 8), ("item", 9),
                   ("item", 12), ("item", 15), ("tick", 18), ("item", 18)]
    assert sim.executed == 1
    sim.run_until(30)
    assert log[-2:] == [("item", 21), ("item", 24)]


def test_every_executed_event_was_queued_through_schedule_at(monkeypatch):
    # ``schedule_at`` is the one way into the queue, so wrapping it sees every
    # event the loop executes (as a per-owner event count does): a board run
    # with a reconfiguration, a stream, a readback and stall wakes.
    from proteus_sim import bitstream as bits
    from proteus_sim.board import BoardConfig, World
    from proteus_sim.pci import PciConfig

    ran = []
    schedule_at = Simulator.schedule_at

    def counted_schedule_at(sim, time, action):
        def counted():
            ran.append(action.__qualname__)
            action()
        return schedule_at(sim, time, counted)

    monkeypatch.setattr(Simulator, "schedule_at", counted_schedule_at)
    g = bits.DESK_GEOMETRY
    world = World(BoardConfig(pci=PciConfig(grant_latency_cycles=8, max_burst_cycles=64)))
    assert world.boot(bits.encode(g, bits.BitstreamKind.FULL, 0, 0, bytes(g.total_bytes))).ok
    world.device.registry.bind(0x21, "fir4")
    for k in range(1, 40):      # 10 us every 40 us
        world.bus.inject_stall(world.sim.now + k * 40_000_000, 10_000_000)
    payload = bytes(range(256)) * (4 * g.column_bytes // 256)
    world.reconfigure(bits.encode(g, bits.BitstreamKind.PARTIAL, 0x21, 0, payload))
    world.stream(bytes(range(256)) * 64)
    assert bits.parse(world.readback(0, 4)).payload == payload
    assert len(ran) == world.sim.executed
    assert {"PciBus._schedule_wake.<locals>.wake", "_Burst._queue_end.<locals>.<lambda>",
            "KernelHost._run", "SelectMapController._run",
            "SelectMapController.power_up_boot.<locals>.finish"} <= set(ran)
