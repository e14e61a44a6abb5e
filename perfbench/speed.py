"""Host time normalised to a reference CPU speed.

The benchmark runs on shared machines whose CPU speed changes from moment
to moment. On one 2-core VM, the same 1 MiB round trip took between 3.9
and 7.4 s within a few minutes. Across ten runs, the median repetition
moved by 20% between the quartiles, and the fastest repetition by 15%. So
the benchmark samples the speed while the program runs.

While a ``SpeedProbe`` is active, a SIGALRM handler interrupts the program
every ``PERIOD_S`` seconds. It runs a fixed calibration loop, about 1% of
the time, and records when the loop ran and how long it took. The loop is
heap operations on tuples, which is the simulator's own kind of work. It
frees everything it allocates, so the program's garbage-collection
schedule does not change.

``seconds(t0, t1)`` splits the program's time between two
``perf_counter()`` stamps at the calibration windows and leaves those
windows out. It scales each piece by ``REF_S`` over the mean duration of
the calibration windows on either side. In two sets of ten runs per
workload, this cut the spread of the run medians from 9-25% to 1.4-6.6%.
A normalised second is a host second at the speed where one calibration
loop takes ``REF_S``.
"""

from __future__ import annotations

import heapq
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.02
REF_S = 0.0002


def _calibration_loop() -> None:
    heap: list = []
    for i in range(300):
        heapq.heappush(heap, (i * 37 % 101, i))
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        _calibration_loop()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) program seconds between two perf_counter stamps.

        Calibration windows never straddle a stamp: the handler runs between
        bytecodes, so a stamp is taken wholly before or after a window.
        """
        first = bisect_right(self.ends, t0)      # first window after t0
        last = bisect_left(self.starts, t1)      # windows [first, last) lie inside
        n = len(self.starts)
        raw = norm = 0.0
        begin = t0
        for k in range(first, last + 1):
            end = self.starts[k] if k < last else t1
            piece = end - begin
            near = [self.ends[j] - self.starts[j] for j in (k - 1, k) if 0 <= j < n]
            scale = REF_S * len(near) / sum(near) if near else 1.0
            raw += piece
            norm += piece * scale
            if k < last:
                begin = self.ends[k]
        return raw, norm
