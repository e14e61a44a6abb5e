"""Per-word views of a run, derived from its trace records.

The trace is the model's one record.  A reader that needs the time of
every bus word, every configuration-port byte or every interrupt expands
it from the records that bound them:

* Bus words: a granted burst moves its words one per bus cycle from the
  grant plus the grant latency, and its ``complete``/``preempt`` record
  gives the bytes it moved; every word is 4 bytes except a transaction's
  last, which may be short.
* Port bytes: the controller moves one byte per configuration cycle, in
  runs that end at a ``pause`` record or at the job's ``*_done`` record; a
  ``resume`` starts the next run on the next configuration-clock edge, and
  the job's size in its ``*_start`` record fixes where the first run
  starts.
* Interrupts: the ``irq``/``raise`` records.
"""

from __future__ import annotations

import bisect


def bus_cycles(records, pci_config) -> list[tuple[int, int, str]]:
    """(time, bytes, master) of every bus data cycle of the finished bursts."""
    period = pci_config.clock_period
    latency = pci_config.grant_latency_cycles * period
    cycles = []
    first = None
    for rec in records:
        if rec.component != "pci":
            continue
        if rec.event == "grant":
            first = rec.time + latency
        else:   # complete / preempt: "<master> <moved>/<total>B"
            master, moved = rec.detail.split()
            moved = int(moved.split("/")[0])
            words = -(-moved // 4)
            cycles += [(first + i * period, 4, master) for i in range(words - 1)]
            if words:
                cycles.append((first + (words - 1) * period, moved - 4 * (words - 1), master))
    return cycles


def port_byte_times(records, cfg_period: int) -> list[int]:
    """Time of every byte the configuration port moved in the finished jobs."""
    times = []
    total = None
    runs = []           # [start or None, end] of each run of the current job
    for rec in records:
        if rec.component != "selectmap":
            continue
        event = rec.event
        if event.endswith("_start"):
            total = int(rec.detail.split()[-1][:-1])   # "... <total>B"
            runs = [[None, None]]
        elif event == "resume":
            runs.append([-(-rec.time // cfg_period) * cfg_period, None])
        elif event == "pause" or event.endswith("_done"):
            runs[-1][1] = rec.time
            if event.endswith("_done"):
                later = sum((end - start) // cfg_period for start, end in runs[1:])
                runs[0][0] = runs[0][1] - (total - later) * cfg_period
                for start, end in runs:
                    times.extend(range(start, end, cfg_period))
    return times


def irq_log(records) -> list[tuple[int, str]]:
    """(time, cause name) of every interrupt raised."""
    return [(rec.time, rec.detail) for rec in records
            if rec.component == "irq" and rec.event == "raise"]


def measure_throughput(cycles, window: tuple[int, int], period: int) -> float:
    """Bytes/second over ``window`` = (t0, t1) ps, from (time, nbytes, ...) records.

    Each record's bytes are spread uniformly over its cycle [t, t+period),
    so no window can measure above the wire rate.
    """
    t0, t1 = window
    if t1 <= t0:
        raise ValueError("window must be non-empty")
    lo = bisect.bisect_left(cycles, (t0 - period, -1, ""))
    moved = 0.0
    for rec in cycles[lo:]:
        t, n = rec[0], rec[1]
        if t >= t1:
            break
        overlap = min(t + period, t1) - max(t, t0)
        if overlap > 0:
            moved += n * overlap / period
    return moved / ((t1 - t0) * 1e-12)
