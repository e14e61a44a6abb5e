"""Deterministic discrete-event kernel and periodic clock domains.

Simulated time is an integer tick count (1 tick = 1 picosecond).  Model
activity is expressed as events on a single heap; events with the same fire
time execute in insertion order, which makes every run fully deterministic.

Dense periodic activity need not be queued one event at a time.  A *lazy
stream* (at most one, ``Simulator.stream``) is a run of virtual events whose
keys are known in advance: it exposes ``key``, the (time, insertion number)
of its next item, and ``advance()``, which runs that item.  The loop
settles the stream before any queued event with a later key, so its items
run in exactly the order they would have had as queued events, without
being queued or counted in ``executed``.  Insertion numbers for such items
are taken with ``alloc()`` at the moment the item would have been
scheduled.  The PCI bus moves its burst's words so, one word an item.

A clock domain queues nothing itself: the component it clocks asks it for
the next edge (``next_edge_at``) and schedules its own work there.

A ``RunAhead`` process runs many points of its own timeline inside one
event, settling the lazy stream in between.  Its points may in turn move
whole *stretches* in closed form (temporal decoupling, as in SystemC
TLM-2.0): the SelectMap controller over its port words and the kernel
host over the kernel's edges, each together with the burst's words that
fall between them, up to the next point where anything else could observe
the buffer they share.  Both take the time their stretch ends before from
one place, the board's feed: ``reach`` bounds it by the queue head and the
loop's horizon.  A stretch runs through points that land on the picosecond
of a bus word; which of the two goes first follows from when each was
numbered, and only the order at the stretch's end can show.

The third level skips what it has seen.  The board is a deterministic
system that visits few states: at each burst end (``PciBus._finish``),
where no burst is in flight and no run-ahead process runs, it takes a
signature of its timing-visible state relative to ``now``, and what follows
up to the next burst end, a *segment*, is a function of that signature and
of the stall windows, translated (``board.SteadyState``).  So each segment
walked event by event is kept, and a burst end whose signature has one
replays it and the segments that follow, a *chain*, inside the same event,
as HashLife replays the macro-steps of a cellular automaton.  A chain that
comes back to a signature it passed has closed a period, which it runs as
many whole times as its bounds allow.  The phase of a clock whose process
is quiescent (an idle controller, a kernel asleep at every burst end) is
left out of the signature, so a stream recurs with the period of its
bursts, not with the clocks' common multiple, and under periodic stall
windows a job's segments recur in gap after gap and job after job.  The
segment in which a job comes within its cap of its end (a buffer's worth
and 8 bytes for a host-bound job, a burst and 8 bytes for a device-bound
one) is kept under its exact bytes to go as well, so a job whose length
an earlier job had replays to its end.  A chain stops at a signature it
has not seen, at the loop's horizon and where the windows differ from the
segment's own; there it lands once, which sets ``now`` and queues the
processes' slots afresh, in their order.  The benchmark's scenario mix
(short bursts cut by a periodic stall) walks 360 burst ends where it
walked 3,053 when only whole periods were jumped, and runs 796 events
instead of 6,355.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

FOREVER = float("inf")


class SimError(Exception):
    """Base class for simulator errors."""


class SchedulingInPast(SimError):
    pass


class Simulator:
    """Single-threaded event loop over integer picosecond time."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, object]] = []
        # alloc() takes the next insertion number: the same-time order of an
        # event is the order in which its number was taken.
        self.alloc = itertools.count(1).__next__
        self.executed = 0
        self.stream = None          # the lazy stream, if one is in flight
        self.horizon = FOREVER      # the latest time the running loop may reach

    def schedule_at(self, time: int, action) -> int:
        """Enqueue ``action`` to run at absolute ``time``; returns the event id."""
        if time < self.now:
            raise SchedulingInPast(f"cannot schedule at {time} ps, now is {self.now} ps")
        seq = self.alloc()
        heapq.heappush(self._heap, (time, seq, action))
        return seq

    def schedule_reserved(self, time: int, seq: int, action) -> int:
        """Queue ``action`` at ``time`` in the same-time slot ``seq`` taken
        earlier with ``alloc``: it runs after events numbered before that
        moment and before events numbered since."""
        alloc, self.alloc = self.alloc, iter((seq,)).__next__
        try:
            return self.schedule_at(time, action)
        finally:
            self.alloc = alloc

    def settle(self, time, seq) -> bool:
        """Run the lazy stream's items keyed before (time, seq) and before the
        first queued event; True if (time, seq) also precedes that event."""
        heap = self._heap
        limit = (time, seq)
        stream = self.stream
        while stream is not None:
            key = stream.key
            if key >= limit:
                break
            if heap and key > heap[0]:
                return False
            stream.advance()
            stream = self.stream
        return not heap or limit < heap[0]

    def settle_next(self, time_limit) -> bool:
        """Run the lazy stream's next item if it is due by ``time_limit`` and
        precedes every queued event; True if it ran."""
        stream = self.stream
        if stream is None:
            return False
        heap = self._heap
        key = stream.key
        if key[0] > time_limit or (heap and key > heap[0]):
            return False
        stream.advance()
        return True

    def reach(self):
        """The latest time a point numbered now may take and still run inside
        the running event: before the first queued event (which was numbered
        earlier) and within the horizon."""
        if self._heap and self._heap[0][0] <= self.horizon:
            return self._heap[0][0] - 1
        return self.horizon

    def step(self) -> bool:
        """Execute the next event, advancing time to it.  False if queue empty.

        Lazy-stream items due before it run first; they are not counted.
        """
        self.horizon = FOREVER
        self.settle(FOREVER, FOREVER)
        if not self._heap:
            return False
        time, _seq, action = heapq.heappop(self._heap)
        self.now = time
        self.executed += 1
        action()
        return True

    def run_until(self, t_end: int) -> tuple[int, int]:
        """Run all events with fire time <= t_end; returns (now, executed count).

        On return ``now`` equals ``t_end`` even if the queue drained earlier.
        """
        if t_end < self.now:
            raise SchedulingInPast(f"cannot run to {t_end} ps, now is {self.now} ps")
        executed = self._run(t_end)
        self.now = t_end
        return t_end, executed

    def run_until_idle(self, t_limit: int | None = None) -> tuple[int, int]:
        """Run until the queue drains (or past ``t_limit``); now stays at the
        last executed event or lazy-stream item."""
        executed = self._run(FOREVER if t_limit is None else t_limit)
        return self.now, executed

    def _run(self, t_end) -> int:
        heap = self._heap
        pop = heapq.heappop
        settle = self.settle
        self.horizon = t_end
        executed = 0
        while True:
            if self.stream is not None:
                settle(t_end, FOREVER)
            if not heap or heap[0][0] > t_end:
                break
            time, _seq, action = pop(heap)
            self.now = time
            executed += 1
            action()
        self.executed += executed
        return executed


class RunAhead:
    """A process that runs consecutive points of its timeline in one event.

    A subclass defines ``point()``, which runs the point at ``key`` (its
    time and insertion number), sets the next key, numbered with ``alloc()``
    where a per-point event would have been scheduled, or None to sleep, and
    returns False to hand control back at once.  It also defines the queued
    event ``_run`` as a call to ``run_ahead``, so that event counts taken by
    the module that defines an action charge it to the component.  Between
    points the event settles the lazy stream; asleep, it settles it item by
    item, so an item that ``wake``s the process continues the same event.
    Control goes back before the next queued event or past the loop's
    horizon, with the next point queued in the slot it already holds.
    """

    sim: Simulator
    key = None
    _running = False

    def wake(self, t: int) -> None:
        """Make ``t`` the next point, numbered now."""
        sim = self.sim
        self.key = (t, sim.alloc() if self._running else sim.schedule_at(t, self._run))

    def run_ahead(self) -> None:
        """Run points from ``key`` until control must go back to the loop."""
        sim = self.sim
        point = self.point
        self._running = True
        try:
            while point():
                while self.key is None:
                    if not sim.settle_next(sim.horizon):
                        return
                t, seq = self.key
                if t > sim.horizon or not sim.settle(t, seq):
                    break
        finally:
            self._running = False
        if self.key is not None:
            sim.schedule_reserved(*self.key, self._run)


@dataclass
class ClockDomain:
    """A periodic clock whose edges fall on every multiple of ``period``."""

    name: str
    period: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be > 0")

    def next_edge_at(self, t: int) -> int:
        """First edge at or after t."""
        return -(-t // self.period) * self.period
