"""Seeded grid of small boards whose exact timing is pinned by golden data.

Each ``registers-*`` world builds a board from a random but reproducible
configuration (clock periods, grant latency, burst limit, buffer capacity
and fill marks, geometry), boots it, and runs a mix of reconfiguration,
stream and readback jobs through the register window, some of them
concurrent.  Stall windows are placed relative to the bus-word lattice of
each job: on a word boundary, one picosecond before or after it, in
adjacent, overlapping and nested chains, and in combs over the first
cycles.  Some jobs stop the event loop part-way (``run_until``) and add
stalls while bursts are in flight.  A third of the worlds use commensurate
clocks, so that bus words land on the same picosecond as kernel and
configuration-port edges.  The ``poker-*`` worlds stream through a kernel
that raises an interrupt for every word, with user-clock periods that are
multiples of the bus period, and wait for those interrupts one by one.  The
``scenario-*`` worlds run generated scripts through the scenario runner.
The ``stretch-*`` worlds move images of several KiB through buffers of 64
or 256 words, so that the configuration controller's closed-form stretches
are long and every bound that ends one is reached.  The ``stream-*``
worlds do the same for the kernel host's stretches: long streams through
every map kernel and the sink, buffers of 2 to 256 words, and concurrent
reconfigurations that swap in a kernel stepped edge by edge.  The
``quiet-*`` worlds, compared by ``--diff`` only, run streams beside
reconfigurations and readbacks with a kernel faster than the bus and a
configuration port between one and two bus words per port word, so that
one process often sleeps inside its own event while the bus moves words
into the other's buffer as quiet runs, up to that process's queued point.
The ``tie-*`` worlds, also compared by ``--diff`` only, run long images and
streams with port words and kernel edges on the bus lattice (clocks of one,
two, three, a half and a third of the bus period), so that both kinds of
stretch run through same-picosecond bus words; a mid-run stop may also
write a new add_const operand (a third ``midrun`` entry), so that the output
shows which words the kernel had moved by then.  The stream and quiet worlds
beyond the golden grid take that entry too.  The ``period-*`` worlds run
jobs of 8 to 48 KiB through small buffers, long enough for the board to
settle into a steady state and jump whole periods of it, with stall
windows, mid-run stops and operand writes queued as events (a ``timed``
entry) inside what would be a jump.  The ``phase-*`` worlds, compared by
``--diff`` only, run long streams under user and configuration clocks that
share no factor with the bus period, so that a stream recurs with the
period of its bursts only while the phase of a sleeping kernel is left out
of the steady state's signature; their stall windows, stops and timed
writes are placed from a closed-form estimate of each job's span.

``run_register_world`` and ``run_scenario_world`` return everything the
timing contract covers: the time of every done interrupt, the interrupt
log, engine start and finish times, configuration and readback results,
pause windows, SHA-256 of the trace CSV, of the bus cycle log, of the
configuration byte times and of every host output, plus a metrics
dictionary.  The interrupt log, the bus cycle log and the byte times, and
the interrupt and bus byte counts, are views of the trace (``records``), so
this file imports nothing from ``proteus_sim`` that the trees it compares
lack, except ``SinkKernel``: a tree without it (the per-word engine of the
first commit) gets a step-only sink defined here.

    PYTHONPATH=<src of the reference engine> python3 tests/timing_worlds.py

rewrites ``tests/golden/timing_golden.json`` with that engine's results.
The committed file was written by the per-word bus engine (one queued event
per bus cycle and per user-clock edge, and per configuration-port word),
that is, by the source tree of the parent of the commit that added this
file; the ``SLOT_WORLDS`` entries were added later, written by the tree
whose bus and kernel host already ran ahead but whose configuration
controller still queued one event per word (the fully per-word tree
gives the same entries); the ``stretch-*`` entries were written by the
tree whose controller moved one word per point inside its run-ahead
event; the ``stream-*`` entries by the tree whose kernel host still stepped
the kernel on every edge and moved one bus word at a time (the
controller already moved stretches); the ``period-*`` entries by the tree
that still ran every burst, before steady states were jumped.
``test_timing_golden.py`` checks that the current engine reproduces every
entry.

    python3 tests/timing_worlds.py --diff <src of another tree>

runs the register and poker worlds beyond the grid (indices up to
``DIFF_WORLDS``), the stream worlds beyond it (up to
``DIFF_STREAM_WORLDS``), the quiet worlds, the tie worlds, the period
worlds beyond the grid (up to ``DIFF_PERIOD_WORLDS``) and the phase worlds
on this tree
and, in a subprocess, on the other one, and prints the names of the worlds
whose results differ (exit status 1 if any).  The other tree may be the
per-word engine of the first commit, a standing oracle::

    git archive a5bf018 src | tar -x -C <dir>
    python3 tests/timing_worlds.py --diff <dir>/src

The subprocess puts the other ``src`` on ``PYTHONPATH``; under pytest,
whose ``pythonpath`` setting puts this checkout's ``src`` first, that would
not take, so the oracle runs through this script only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden" / "timing_golden.json"
if __name__ == "__main__" and "proteus_sim" not in sys.modules:
    sys.path.append(str(HERE.parent / "src"))

from proteus_sim import bitstream as bits  # noqa: E402
from proteus_sim.board import BoardConfig, World  # noqa: E402
from proteus_sim.fixed_part import (  # noqa: E402
    CTRL_START_DOWN,
    CTRL_START_READBACK,
    CTRL_START_RECONFIG,
    CTRL_START_UP,
    REG_CFG_BASE,
    REG_CFG_LEN,
    REG_CONTROL,
    REG_DOWN_BASE,
    REG_DOWN_LEN,
    REG_UP_BASE,
    REG_UP_LEN,
    IrqCause,
)
from proteus_sim.pci import PciConfig  # noqa: E402
from proteus_sim.runner import emit_metrics, run_scenario  # noqa: E402
from proteus_sim.scenario import parse_scenario  # noqa: E402
from proteus_sim.selectmap import Mode  # noqa: E402
from proteus_sim.trace import emit_trace  # noqa: E402
from records import bus_cycles, irq_log, port_byte_times  # noqa: E402

REGISTER_WORLDS = 120
POKER_WORLDS = 120
SCENARIO_WORLDS = 12
# Register worlds from beyond the grid in which configuration-port words fall
# on the picosecond of a kernel edge or a burst end while a stream job runs
# beside a reconfiguration or readback: they pin the same-ps slot of the
# controller's next word.
SLOT_WORLDS = (661, 1189, 1331)
STRETCH_WORLDS = 40
STREAM_WORLDS = 48
# ``--diff`` compares register and poker worlds from the grid's end up to
# here, stream worlds up to ``DIFF_STREAM_WORLDS``, quiet worlds up to
# ``DIFF_QUIET_WORLDS``, tie worlds up to ``DIFF_TIE_WORLDS``, period
# worlds up to ``DIFF_PERIOD_WORLDS`` and phase worlds up to
# ``DIFF_PHASE_WORLDS``.
DIFF_WORLDS = 1500
DIFF_STREAM_WORLDS = 400

# (pci, user, cfg) clock periods in ps
PERIODS = [
    (30303, 20000, 20000),   # the board's defaults
    (30303, 30303, 30303),   # commensurate: words land on user and cfg edges
    (20000, 20000, 20000),
    (30303, 10101, 30303),
    (30303, 60606, 15000),
    (10000, 30000, 20000),
]
# Stretch worlds add bus periods of one and two port words (a port word
# takes four configuration cycles): there a port word can tie a bus word
# that was numbered before it, so the bus word goes first.
STRETCH_PERIODS = PERIODS + [(80000, 20000, 20000), (80000, 30000, 10000),
                             (121212, 30303, 30303)]
# Stream worlds: the board's defaults, commensurate clocks (a bus word on
# every user-clock edge, or every third), and user clocks slower than the bus.
STREAM_PERIODS = [(30303, 20000, 20000), (30303, 30303, 20000), (30303, 60606, 20000),
                  (20000, 20000, 20000), (30303, 45000, 20000), (30303, 10101, 20000),
                  (10000, 30000, 20000), (30303, 7000, 30303)]
# Quiet worlds: user clocks faster than the bus, configuration-port words
# slower than bus words but faster than every second one, some commensurate.
QUIET_PERIODS = [(30303, 24000, 11250), (30303, 27000, 9000), (30300, 20200, 10100),
                 (20000, 16000, 7000), (30303, 10101, 12000)]
DIFF_QUIET_WORLDS = 300
# Tie worlds: port words (four configuration cycles) of one, two, a half and a
# third bus period, user clocks of one, two, three and half a bus period.
TIE_PORT = [(1, 4), (1, 2), (1, 8), (1, 12)]      # cfg = p * a // b
TIE_USER = [(1, 1), (2, 1), (3, 1), (1, 2)]       # user = p * a // b
DIFF_TIE_WORLDS = 160
# Two ``--diff`` worlds built for the kernel's futile edges while the upstream
# buffer is full: a stretch ends on a bus word that lands on such an edge,
# with a kernel three times slower than the bus (a stop on that word, then a
# window over the next one that ends where the upstream's first word lands
# on the kernel's next edge), or as fast as the bus (a stop two words later).
TIE_UPFULL_WORLDS = [
    {"periods": [24000, 72000, 20000], "grant": 0, "burst": 5, "capacity": 6, "fill_low": 1,
     "fill_high": 3, "geometry": [6, 2, 8, 4], "boot_byte_period": 7,
     "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": 159,
               "kernel_id": 0x23},
              {"kind": "stream", "words": 70, "seed": 105,
               "stalls": [[0, 108000], [2676000, 1248000]],
               "midrun": [3996000, [[1, 71999]], 0x20000]}]},
    {"periods": [30000, 30000, 20000], "grant": 0, "burst": 4096, "capacity": 5, "fill_low": 1,
     "fill_high": 3, "geometry": [6, 2, 8, 4], "boot_byte_period": 7,
     "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": 1,
               "kernel_id": 0x23},
              {"kind": "stream", "words": 116, "seed": 211, "stalls": [],
               "midrun": [420000, [], 0x10002]}]},
]
# Period worlds: clocks under which long jobs settle into periods of one
# burst (a configuration port slower than the bus), one to three (kernel
# edges on the bus lattice) or 9 to 66 (user clocks of 11/10 and 6/5 bus
# periods), a configuration port faster than the bus, which pauses in every
# period, and a kernel slower than the bus.
PERIOD_CLOCKS = [(30303, 20000, 20000), (30000, 30000, 20000), (30000, 33000, 20000),
                 (30000, 36000, 8000), (24000, 12000, 6000), (30000, 30000, 5000),
                 (40000, 20000, 5000), (10000, 30000, 12500)]
# fir4, add_const, the sink, identity, the counter, add_const.
PERIOD_KERNELS = [0x24, 0x23, 0x26, 0x21, 0x27, 0x23]
PERIOD_WORLDS = 24
DIFF_PERIOD_WORLDS = 174
DIFF_PHASE_WORLDS = 150
BURSTS = [1, 2, 3, 4, 5, 7, 16, 64, 256, 4096]
CAPACITIES = [2, 4, 5, 8, 16, 64, 256]
KERNELS = {0x21: "identity", 0x22: "negate", 0x23: "add_const", 0x24: "fir4", 0x25: "poker"}


try:
    from proteus_sim.kernels import SinkKernel
except ImportError:     # the per-word engine of the first commit has none
    class SinkKernel:
        """Consumes one word per cycle and produces nothing."""

        name = "sink"

        def step(self, io):
            if io.in_available:
                io.read()


class PokerKernel:
    """Identity that raises a kernel interrupt for every word it moves."""

    name = "poker"

    def step(self, io):
        if io.in_available and io.out_space:
            io.write(io.read())
            io.request_interrupt()


class CounterKernel:
    """Identity that writes the count of words it has moved to register 9:
    a kernel without the map form (it writes a register), stepped edge by
    edge."""

    name = "counter"

    def __init__(self):
        self.count = 0

    def step(self, io):
        if io.in_available and io.out_space:
            io.write(io.read())
            self.count += 1
            io.reg_write(9, self.count)


# Bound in every register world; 0x26 and 0x27 are used only by the stream worlds.
BINDINGS = {**{kid: PokerKernel if name == "poker" else name for kid, name in KERNELS.items()},
            0x26: SinkKernel, 0x27: CounterKernel}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spec(index: int) -> dict:
    rng = random.Random(f"timing-world-{index}")
    pci, user, cfg = PERIODS[index % len(PERIODS)] if index % 3 else rng.choice(PERIODS)
    cap = rng.choice(CAPACITIES)
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.3 else rng.randint(low, cap)
    frames = rng.randint(1, 4)
    fbytes = rng.choice([3, 5, 8, 16, 17])
    spec = {
        "periods": [pci, user, cfg],
        "grant": rng.randint(0, 8),
        "burst": rng.choice(BURSTS),
        "capacity": cap, "fill_low": low, "fill_high": high,
        "geometry": [6, frames, fbytes, 4],
        "boot_byte_period": rng.choice([cfg, 20000, 7]),
        "jobs": [],
    }
    active = None
    for _ in range(rng.randint(2, 5)):
        kinds = ["reconfig", "readback"] + (["stream", "stream", "stream+readback",
                                             "stream+reconfig"] if active else [])
        kind = rng.choice(kinds)
        job = {"kind": kind, "stalls": _stalls(rng, pci, spec["grant"])}
        if rng.random() < 0.4:
            # Stop the loop mid-job, then add stalls while bursts are moving.
            job["midrun"] = [rng.randint(0, 200 * pci) + rng.choice([0, 1, -1]),
                             _stalls(rng, pci, 0)]
        if "reconfig" in kind:
            # A concurrent reconfiguration swaps in another bound kernel mid-stream.
            kid = rng.choice(list(KERNELS) + [0x25, 0x25] + ([0x77] if kind == "reconfig" else []))
            job.update(kernel_id=kid, first=rng.randint(0, 2), columns=rng.randint(1, 2),
                       seed=rng.randint(0, 999))
            active = KERNELS.get(kid)
        if "readback" in kind:
            job.update(rb_first=rng.randint(0, 3), rb_count=rng.randint(1, 3))
        if "stream" in kind:
            job.update(words=rng.choice([1, 2, 3, rng.randint(4, 40), rng.randint(40, 300)]),
                       seed=rng.randint(0, 999))
            if kind == "stream" and active == "poker" and "midrun" not in job:
                # Wait for the per-word kernel interrupts before the done ones.
                job["irq_waits"] = min(job["words"], rng.randint(1, 4))
        if rng.random() < 0.3:
            # A comb of stalls over the first cycles: many bursts lose their
            # first words, and a grant often lands on a stall.
            job["stalls"] += [[k * pci + rng.choice([0, -1, 1]), rng.choice([1, pci, 2 * pci])]
                              for k in range(rng.randint(0, 2), 80, rng.randint(2, 5))]
        spec["jobs"].append(job)
    return spec


def _poker_spec(index: int) -> dict:
    """Per-word kernel interrupts under commensurate clocks and combs of
    stalls: the kernel host hands control back after every word, often just
    after its push caused a grant whose first word, one user period later,
    falls on a stall."""
    rng = random.Random(f"poker-world-{index}")
    pci = 30303
    user = rng.choice([pci, 2 * pci, 3 * pci, pci // 3])
    cap = rng.choice([2, 3, 4, 8])
    low = rng.randint(1, cap)
    jobs = [{"kind": "reconfig", "stalls": [], "kernel_id": 0x25, "first": 0, "columns": 1,
             "seed": index}]
    for _ in range(4):
        step, offset = rng.randint(1, 4), rng.choice([0, 0, 1, -1])
        duration = rng.choice([pci, 2 * pci, 3 * pci])
        jobs.append({"kind": "stream", "words": rng.randint(8, 30), "seed": index,
                     "irq_waits": 3,
                     "stalls": [[max(k * pci + offset, 0), duration]
                                for k in range(rng.randint(0, 3), 160, step)]})
    return {"periods": [pci, user, rng.choice([pci, 20000])],
            "grant": user // pci if user >= pci else rng.randint(0, 3),
            "burst": rng.choice([1, 2, 3, 4096]), "capacity": cap, "fill_low": low,
            "fill_high": rng.randint(low, cap), "geometry": [6, 2, 8, 4],
            "boot_byte_period": pci, "jobs": jobs}


def _stretch_spec(index: int) -> dict:
    """Images of several KiB through buffers of 64 or 256 words, so that the
    configuration controller moves long stretches of words between the
    points where anything else can observe the buffer.  Stall windows and
    mid-run stops fall anywhere in a job, streams run beside
    reconfigurations and readbacks, fill marks are random (a readback's
    tail often flushes before the high mark), and commensurate clocks make
    port words tie bus words."""
    rng = random.Random(f"stretch-world-{index}")
    pci, user, cfg = STRETCH_PERIODS[index % len(STRETCH_PERIODS)]
    cap = rng.choice([64, 256])
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    spec = {"periods": [pci, user, cfg], "grant": rng.randint(0, 8),
            "burst": rng.choice([3, 16, 64, 256, 4096]), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [10, 16, 64, 8], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "kernel_id": rng.choice([0x21, 0x24]),
                      "first": 0, "columns": rng.randint(1, 3), "seed": index}]}
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["reconfig", "readback", "stream+reconfig", "stream+readback"])
        columns = rng.randint(1, 5)
        span = columns * 1024 * cfg // pci     # bus cycles the port needs for the image
        job = {"kind": kind,
               "stalls": [[rng.randint(0, span) * pci + rng.choice([0, 0, 1, -1]),
                           rng.choice([1, pci, rng.randint(2, 300 * pci)])]
                          for _ in range(rng.choice([0, 1, 3, 6]))]}
        if rng.random() < 0.5:
            # Stalls just after the stop cut words that a stretch run past
            # the stop would already have moved.
            job["midrun"] = [rng.randint(0, span) * pci + rng.choice([0, 1, -1, pci // 2]),
                             [[rng.randint(0, 40) * pci + rng.choice([0, 1, -1]),
                               rng.randint(1, 100 * pci)] for _ in range(rng.randint(1, 3))]]
        if "reconfig" in kind:
            job.update(kernel_id=rng.choice([0x21, 0x22, 0x24]), first=rng.randint(0, 8 - columns),
                       columns=columns, seed=rng.randint(0, 999))
        else:
            job.update(rb_first=rng.randint(0, 10 - columns), rb_count=columns)
        if "stream" in kind:
            job.update(words=rng.randint(50, 1500), seed=rng.randint(0, 999))
        spec["jobs"].append(job)
    return spec


def _stream_spec(index: int) -> dict:
    """Long streams through every map kernel and the sink, so that the
    kernel host's closed-form stretches are long and every bound that ends
    one is reached: buffers of 2 to 256 words with random fill marks, stall
    windows and mid-run stops anywhere in a job, commensurate clocks and
    user clocks slower than the bus, and concurrent reconfigurations that
    swap in another map kernel or one stepped edge by edge (``poker``,
    ``counter``).  Every fifth world streams downstream only, into the sink.
    Beyond the golden grid a stop also writes a new add_const operand, drawn
    apart from the rest, so that the output shows which words the kernel
    had moved by then."""
    rng = random.Random(f"stream-world-{index}")
    operands = random.Random(f"stream-operand-{index}")
    pci, user, cfg = STREAM_PERIODS[index % len(STREAM_PERIODS)]
    cap = rng.choice([2, 3, 4, 8, 16, 64, 128, 256])
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    sink = index % 5 == 4
    spec = {"periods": [pci, user, cfg], "grant": rng.randint(0, 8),
            "burst": rng.choice(BURSTS), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [6, 2, 8, 4], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": index,
                      "kernel_id": 0x26 if sink else rng.choice([0x21, 0x22, 0x23, 0x24])}]}
    for _ in range(rng.randint(2, 4)):
        kind = "stream" if sink or rng.random() < 0.5 else rng.choice(
            ["stream+reconfig", "stream+readback"])
        words = rng.choice([rng.randint(1, 40), rng.randint(40, 600), rng.randint(600, 2500)])
        span = 2 * words + 40          # bus cycles the job needs, about
        job = {"kind": kind, "words": words, "seed": rng.randint(0, 999),
               "stalls": [[rng.randint(0, span) * pci + rng.choice([0, 0, 1, -1, pci // 2]),
                           rng.choice([1, pci, rng.randint(2, 200 * pci)])]
                          for _ in range(rng.choice([0, 0, 1, 3, 6]))]}
        if sink:
            job["down_only"] = True
        if rng.random() < 0.5:
            job["midrun"] = [rng.randint(0, span) * pci + rng.choice([0, 1, -1, pci // 2]),
                             [[rng.randint(0, 40) * pci + rng.choice([0, 1, -1]),
                               rng.randint(1, 100 * pci)] for _ in range(rng.randint(1, 3))]]
            if index >= STREAM_WORLDS:
                job["midrun"].append(operands.randrange(2**32))
        if "reconfig" in kind:
            job.update(kernel_id=rng.choice([0x21, 0x22, 0x23, 0x24, 0x25, 0x27]), first=0,
                       columns=rng.randint(1, 2), seed=rng.randint(0, 999))
        if "readback" in kind:
            job.update(rb_first=rng.randint(0, 3), rb_count=rng.randint(1, 3))
        spec["jobs"].append(job)
    return spec


def _quiet_spec(index: int) -> dict:
    """Long streams through map kernels beside reconfigurations and
    readbacks, with a configuration port and a kernel faster than the bus
    and buffers of 2 to 16 words: the buffers keep running dry, so one
    process often sleeps inside its own event while the bus moves the other
    process's words up to that one's queued point.  Half the jobs stop
    part-way and write a new add_const operand, drawn apart from the rest."""
    rng = random.Random(f"quiet-world-{index}")
    operands = random.Random(f"quiet-operand-{index}")
    pci, user, cfg = QUIET_PERIODS[index % len(QUIET_PERIODS)]
    cap = rng.choice([2, 3, 4, 8, 16])
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    spec = {"periods": [pci, user, cfg], "grant": rng.randint(0, 8),
            "burst": rng.choice([3, 16, 64, 4096]), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [10, 16, 64, 8], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": index,
                      "kernel_id": rng.choice([0x21, 0x22, 0x24, 0x25])}]}
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["stream+reconfig", "stream+readback"])
        columns = rng.randint(1, 3)
        job = {"kind": kind, "words": rng.randint(100, 1500), "seed": rng.randint(0, 999),
               "stalls": _stalls(rng, pci, spec["grant"])}
        if "reconfig" in kind:
            job.update(kernel_id=rng.choice([0x21, 0x22, 0x23, 0x24, 0x25]),
                       first=rng.randint(0, 8 - columns), columns=columns)
        else:
            job.update(rb_first=rng.randint(0, 10 - columns), rb_count=columns)
        if operands.random() < 0.5:
            job["midrun"] = [operands.randint(0, 2 * job["words"]) * pci
                             + operands.choice([0, 1, -1]), [], operands.randrange(2**32)]
        spec["jobs"].append(job)
    return spec


def _tie_spec(index: int) -> dict:
    """Commensurate clocks on both stretch paths: long images and streams
    through buffers of 2 to 64 words, so that port words and kernel edges
    tie bus words all through a stretch, with stall windows and mid-run
    stops on the bus lattice or one picosecond off it.  Streams run mostly
    through add_const, and a stop writes a new operand, so the output shows
    which words the kernel had moved by then.  Even worlds add their windows
    at job start, odd ones one short window at each stop, at least seven bus
    words into the job: no window added at a stop opens inside an earlier
    one."""
    rng = random.Random(f"tie-world-{index}")
    p = (24000, 30000)[index // 16 % 2]
    a, b = TIE_PORT[index % 4]
    c, d = TIE_USER[index // 4 % 4]
    user, cfg = p * c // d, p * a // b
    cap = rng.choice([2, 3, 4, 5, 8, 16, 32, 64])
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    kernels = [0x23, 0x23, 0x21, 0x22, 0x24]
    spec = {"periods": [p, user, cfg], "grant": rng.choice([0, 0, 1, 2, rng.randint(3, 8)]),
            "burst": rng.choice([3, 5, 16, 64, 4096]), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [10, 16, 64, 8], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": index,
                      "kernel_id": rng.choice(kernels)}]}
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["stream", "stream", "reconfig", "readback", "stream+reconfig",
                           "stream+readback"])
        columns = rng.randint(1, 3)
        words = rng.randint(100, 1200) if "stream" in kind else 0
        span = max(2 * words * c // d, columns * 1024 * a // b)   # bus cycles, about
        job = {"kind": kind, "stalls": []}
        if index % 2 == 0:
            job["stalls"] = [[rng.randint(0, span) * p + rng.choice([0, 0, 1, -1]),
                              rng.choice([1, p - 1, p, p + 1, 2 * p, rng.randint(2, 40 * p)])]
                             for _ in range(rng.choice([0, 1, 2, 4]))]
        if rng.random() < 0.7:
            window = [[rng.randint(0, 3) * p + rng.choice([0, 1]), rng.choice([1, p - 1, p, 3 * p])]]
            job["midrun"] = [rng.randint(7, max(span, 8)) * p + rng.choice([0, 0, 1, -1]),
                             window if index % 2 else [], rng.randrange(2**32)]
        if "reconfig" in kind:
            job.update(kernel_id=rng.choice(kernels), first=rng.randint(0, 8 - columns),
                       columns=columns, seed=rng.randint(0, 999))
        if "readback" in kind:
            job.update(rb_first=rng.randint(0, 10 - columns), rb_count=columns)
        if "stream" in kind:
            job.update(words=words, seed=rng.randint(0, 999))
        spec["jobs"].append(job)
    return spec


def _period_spec(index: int) -> dict:
    """Long jobs (8 to 48 KiB) through buffers of 8 to 64 words, so that the
    board settles into short periods that repeat many times: streams through
    fir4, add_const, identity, the counter (stepped edge by edge) or, into
    the sink, downstream only, beside reconfigurations and readbacks of many
    columns.  Stall windows, mid-run stops that write a new add_const
    operand, and operand writes queued as events fall inside the jobs, at
    fractions of each job's span in a first run without them; that run's
    timing is the same on every tree."""
    rng = random.Random(f"period-world-{index}")
    pci, user, cfg = PERIOD_CLOCKS[index % len(PERIOD_CLOCKS)]
    kernel = PERIOD_KERNELS[index % len(PERIOD_KERNELS)]
    cap = rng.choice([8, 16, 32, 64])
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    spec = {"periods": [pci, user, cfg], "grant": rng.randint(0, 8),
            "burst": rng.choice([4, 8, 16, 64, 4096]), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [40, 16, 64, 36], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": index,
                      "kernel_id": kernel}]}
    for _ in range(rng.randint(2, 3)):
        kind = "stream" if kernel == 0x26 else rng.choice(
            ["stream", "reconfig", "readback", "stream+reconfig", "stream+readback"])
        job = {"kind": kind, "stalls": [], "down_only": kernel == 0x26}
        columns = rng.randint(8, 36)
        if "reconfig" in kind:
            job.update(kernel_id=kernel, first=rng.randint(0, 36 - columns), columns=columns,
                       seed=rng.randint(0, 999))
        if "readback" in kind:
            job.update(rb_first=rng.randint(0, 40 - columns), rb_count=columns)
        if "stream" in kind:
            job.update(words=rng.randint(2048, 12288), seed=rng.randint(0, 999))
        spec["jobs"].append(job)
    probe = run_register_world(spec)
    for job, rec in zip(spec["jobs"][1:], probe["jobs"][1:]):
        span = rec["idle_at"] - rec["start"]

        def inside():
            return int(span * rng.uniform(0.2, 0.8)) + rng.choice([0, 0, 1, -1])
        if rng.random() < 0.5:
            job["stalls"] = [[inside(), rng.choice([1, pci, rng.randint(2, 100 * pci)])]
                             for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.6:
            job["midrun"] = [inside(), [], rng.randrange(2**32)]
        if rng.random() < 0.3:
            job["timed"] = [inside(), rng.randrange(2**32)]
    return spec


def _coprime(period: int, ratio: float) -> int:
    """The first period from ``period * ratio`` up that shares no factor
    with ``period``."""
    t = round(period * ratio)
    while math.gcd(t, period) != 1:
        t += 1
    return t


def _span(spec: dict, job: dict) -> int:
    """A closed-form estimate of a job's span in ps: its bus words, each
    burst of at most a burst limit or a buffer of them paying the grant
    latency and one more cycle; or the kernel's edges, or the port's cycles,
    if those take longer."""
    pci, user, cfg = spec["periods"]
    column = spec["geometry"][1] * spec["geometry"][2]
    words = edges = cycles = 0
    if "stream" in job["kind"]:
        edges = job["words"]
        words = edges if job.get("down_only") else 2 * edges
    if "reconfig" in job["kind"]:
        cycles = job["columns"] * column
    if "readback" in job["kind"]:
        cycles = job["rb_count"] * column
    words += cycles // 4
    chunk = min(spec["burst"], spec["capacity"])
    return max(words * pci * (chunk + spec["grant"] + 1) // chunk, edges * user, cycles * cfg)


def _phase_spec(index: int) -> dict:
    """Long streams through every map kernel and the sink under user and
    configuration clocks that share no factor with the bus period, faster
    and slower than it, so that the board's state recurs with the bus's own
    period while the kernel sleeps at every burst end, and with the clocks'
    common multiple (far beyond a job) otherwise.  Some streams run beside
    reconfigurations or readbacks, so that only the user clock's phase is
    left out.  Sparse stall windows, mid-run stops that write a new
    add_const operand and operand writes queued as events fall inside the
    jobs, placed from ``_span``'s estimate, not from a run."""
    rng = random.Random(f"phase-world-{index}")
    pci = rng.choice([30303, 30000, 24000, 40000])
    user = _coprime(pci, rng.choice([0.3, 0.5, 0.66, 0.8, 0.95, 1.05, 1.3, 2.2]))
    cfg = _coprime(pci, rng.choice([0.15, 0.3, 0.6, 1.1, 1.7]))
    kernel = rng.choice([0x21, 0x22, 0x23, 0x24, 0x26])
    cap = rng.choice(CAPACITIES)
    low = rng.randint(1, cap)
    high = low if rng.random() < 0.2 else rng.randint(low, cap)
    spec = {"periods": [pci, user, cfg], "grant": rng.randint(0, 8),
            "burst": rng.choice(BURSTS), "capacity": cap, "fill_low": low,
            "fill_high": high, "geometry": [20, 8, 32, 16], "boot_byte_period": 7,
            "jobs": [{"kind": "reconfig", "stalls": [], "first": 0, "columns": 1, "seed": index,
                      "kernel_id": kernel}]}
    for _ in range(rng.randint(1, 3)):
        kind = "stream" if kernel == 0x26 or rng.random() < 0.6 else rng.choice(
            ["stream+reconfig", "stream+readback"])
        job = {"kind": kind, "words": min(cap, 64) * rng.randint(20, 60) + rng.randint(0, 99),
               "seed": rng.randint(0, 999), "stalls": [], "down_only": kernel == 0x26}
        if "reconfig" in kind:
            job.update(kernel_id=kernel, first=0, columns=rng.randint(1, 12),
                       seed=rng.randint(0, 999))
        if "readback" in kind:
            job.update(rb_first=rng.randint(0, 4), rb_count=rng.randint(1, 12))
        span = _span(spec, job)

        def inside():
            return int(span * rng.uniform(0.2, 0.8)) + rng.choice([0, 0, 1, -1])
        if rng.random() < 0.4:
            job["stalls"] = [[inside(), rng.choice([1, pci, rng.randint(2, 50 * pci)])]
                             for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.4:
            job["midrun"] = [inside(), [], rng.randrange(2**32)]
        if rng.random() < 0.3:
            job["timed"] = [inside(), rng.randrange(2**32)]
        spec["jobs"].append(job)
    return spec


def _stalls(rng: random.Random, pci: int, grant: int) -> list[list[int]]:
    """Stall windows as (offset from job start, duration) pairs."""
    out = []
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        k = grant + rng.randint(0, 60)
        start = k * pci + rng.choice([0, 0, -1, 1, rng.randint(-pci, pci)])
        duration = rng.choice([1, pci - 1, pci, pci + 1, rng.randint(2, 40 * pci)])
        out.append([max(start, 0), duration])
        shape = rng.random()
        if shape < 0.2:      # adjacent: opens where the last one closes
            out.append([max(start, 0) + duration, rng.randint(1, 10 * pci)])
        elif shape < 0.35:   # overlapping
            out.append([max(start, 0) + duration // 2, rng.randint(1, 10 * pci)])
        elif shape < 0.45:   # nested inside the last one
            out.append([max(start, 0) + duration // 3, max(1, duration // 4)])
    return out


def _world(spec: dict) -> World:
    pci, user, cfg = spec["periods"]
    config = BoardConfig(
        geometry=bits.DeviceGeometry(*spec["geometry"]),
        pci=PciConfig(clock_period=pci, grant_latency_cycles=spec["grant"],
                      max_burst_cycles=spec["burst"]),
        cfg_clock_period=cfg, user_clock_period=user,
        buffer_capacity=spec["capacity"], fill_low=spec["fill_low"],
        fill_high=spec["fill_high"], boot_byte_period=spec["boot_byte_period"])
    return World(config, tracing=True)


def run_register_world(spec: dict) -> dict:
    world = _world(spec)
    dev, sim, host = world.device, world.sim, world.host
    for kid, behavior in BINDINGS.items():
        dev.registry.bind(kid, behavior)
    g = world.config.geometry
    flash = bits.encode(g, bits.BitstreamKind.FULL, 0, 0,
                        random.Random(len(spec["jobs"])).randbytes(g.total_bytes))
    report = dev.power_up(flash)
    sim.run_until(report.duration)
    dev.regs.write(8, 0x01020304)   # add_const operand
    out = {"boot_now": sim.now, "jobs": []}
    for job in spec["jobs"]:
        rec = {}
        for offset, duration in job["stalls"]:
            world.bus.inject_stall(sim.now + offset, duration)
        control, waits, reads = 0, [], []
        if "stream" in job["kind"]:
            data = random.Random(job["seed"]).randbytes(4 * job["words"])
            _rid, in_base = host.map_shared_region(len(data))
            host.write(in_base, data)
            _rid, out_base = host.map_shared_region(len(data))
            for reg, value in ((REG_DOWN_BASE, in_base), (REG_DOWN_LEN, len(data)),
                               (REG_UP_BASE, out_base), (REG_UP_LEN, len(data))):
                dev.host_reg_write(reg, value)
            if job.get("down_only"):
                control |= CTRL_START_DOWN
                waits.append(IrqCause.DOWNSTREAM_DONE)
            else:
                control |= CTRL_START_DOWN | CTRL_START_UP
                waits += [IrqCause.DOWNSTREAM_DONE, IrqCause.UPSTREAM_DONE]
                reads.append(("stream", out_base, len(data)))
        if "reconfig" in job["kind"]:
            cb = g.column_bytes
            payload = random.Random(job["seed"]).randbytes(job["columns"] * cb)
            image = bits.encode(g, bits.BitstreamKind.PARTIAL, job["kernel_id"],
                                job["first"], payload)
            _rid, base = host.map_shared_region(len(image))
            host.write(base, image)
            dev.host_reg_write(REG_CFG_BASE, base)
            dev.host_reg_write(REG_CFG_LEN, len(image))
            control |= CTRL_START_RECONFIG
            waits.append(IrqCause.RECONFIG_DONE)
        if "readback" in job["kind"]:
            count = job["rb_count"]
            total = bits.WRAPPER_BYTES + count * g.column_bytes
            _rid, base = host.map_shared_region(total)
            dev.host_reg_write(REG_CFG_BASE, base)
            dev.host_reg_write(REG_CFG_LEN, (count << 16) | job["rb_first"])
            control |= CTRL_START_READBACK
            waits.append(IrqCause.READBACK_DONE)
            reads.append(("readback", base, total))
        rec["start"] = sim.now
        dev.host_reg_write(REG_CONTROL, control)
        if "timed" in job:
            # A new add_const operand written by a queued event, not at a stop.
            delay, operand = job["timed"]
            sim.schedule_at(sim.now + delay, lambda value=operand: dev.host_reg_write(8, value))
        waits[:0] = [IrqCause.KERNEL_REQUEST] * job.get("irq_waits", 0)
        if "midrun" in job:
            delay, stalls, *operand = job["midrun"]
            sim.run_until(sim.now + max(delay, 0))
            rec["midrun_irqs"] = len(irq_log(world.trace.records))
            for offset, duration in stalls:
                world.bus.inject_stall(sim.now + offset, duration)
            if operand:
                # A new add_const operand: the output shows which words the
                # kernel moved by the stop.
                dev.host_reg_write(8, operand[0])
        done = []
        for cause in waits:
            world.run_until_cause(cause, cause.name)
            done.append([cause.name, sim.now])
            world.acknowledge(cause)
        if dev.irq.pending:
            world.acknowledge(dev.irq.pending)
        rec["done"] = done
        rec["engines"] = {t.value: [e.started_at, e.finished_at]
                          for t, e in dev.engines.items() if e.started_at is not None}
        rec["outputs"] = {kind: _sha(host.read(base, n)) for kind, base, n in reads}
        if "reconfig" in job["kind"]:
            c = dev.last_config
            rec["config"] = [c.duration, c.pauses, c.bytes]
            rec["status"] = dev.regs.read(7)
        if "readback" in job["kind"]:
            # READBACK_DONE can come before the controller's own completion
            # event, so the result may still be the previous job's (or none).
            r = dev.last_readback
            rec["readback"] = [r.duration, r.bytes] if r else None
        # Done interrupts can also come before the bus engine's last burst
        # ends; the next job starts once the device is idle.
        while dev.controller.mode is not Mode.IDLE or any(e.busy for e in dev.engines.values()):
            sim.step()
        rec["idle_at"] = sim.now
        rec["pauses"] = dev.controller.pauses
        rec["pause_windows"] = [list(w) for w in dev.controller.pause_windows]
        out["jobs"].append(rec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        emit_trace(world.trace.records, path)
        out["trace_sha256"] = _sha(path.read_bytes())
    records = world.trace.records
    irqs = irq_log(records)
    cycles = bus_cycles(records, world.config.pci)
    byte_times = port_byte_times(records, world.config.cfg_clock_period)
    out["irq_log_sha256"] = _sha(repr(irqs).encode())
    out["cycle_log_sha256"] = _sha(repr(cycles).encode())
    out["cycle_log_len"] = len(cycles)
    out["byte_times_sha256"] = _sha(repr(byte_times).encode())
    out["metrics"] = {"now": sim.now, "bus_busy_ps": world.bus.busy_ticks,
                      "bus_cycles": world.bus.total_data_cycles,
                      "bus_bytes": sum(n for _t, n, _m in cycles),
                      "interrupts": len(irqs),
                      "trace_records": len(records),
                      "config_mem_sha256": _sha(dev.config_mem.snapshot())}
    return out


def _scenario_text(index: int) -> str:
    rng = random.Random(f"timing-scenario-{index}")
    lines = ["geometry cols=8 frames=4 fbytes=9 fixed=6..7",
             f"bus grant={rng.randint(0, 8)} burst={rng.choice(BURSTS)}",
             "makebit out=boot.pbit kind=full id=0 cols=0..7 fill=random:3",
             "makebit out=k21.pbit kind=partial id=0x21 cols=0..1 fill=random:5",
             "makebit out=k24.pbit kind=partial id=0x24 cols=1..3 fill=random:6"]
    boot_end = 8 * 36 * 20000
    for _ in range(rng.randint(0, 6)):
        at = boot_end + rng.randint(0, 400) * 30303 + rng.choice([0, -1, 1, 15000])
        lines.append(f"stall at={at // 1000}ns for={rng.randint(1, 2000)}ns")
    lines += ["boot flash=boot.pbit", "bind id=0x21 kernel=identity",
              "bind id=0x24 kernel=fir4"]
    for r in range(rng.randint(1, 3)):
        kid = rng.choice(["21", "24"])
        lines += [f"reconfig file=k{kid}.pbit",
                  f"stream in=input.bin out=s{r}.bin words={rng.randint(1, 200)}",
                  f"readback cols={rng.randint(0, 2)}..3 out=r{r}.pbit"]
    return "\n".join(lines) + "\n"


def run_scenario_world(index: int) -> dict:
    text = _scenario_text(index)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "input.bin").write_bytes(random.Random(index).randbytes(800))
        result = run_scenario(parse_scenario(text, base_dir=work), work, seed=index,
                              tracing=True)
        emit_metrics(result.metrics, work / "metrics.txt")
        emit_trace(result.trace_records, work / "trace.csv")
        outputs = {p.name: _sha(p.read_bytes()) for p in sorted(work.glob("[rs]*.*"))}
        return {"fault": result.fault, "exit_status": result.exit_status,
                "metrics": (work / "metrics.txt").read_text(),
                "trace_sha256": _sha((work / "trace.csv").read_bytes()),
                "irq_log": [list(e) for e in irq_log(result.trace_records)],
                "outputs": outputs}


def all_worlds():
    """(name, thunk) for every world of the grid, in a fixed order."""
    worlds = [(f"registers-{i}", lambda i=i: run_register_world(_spec(i)))
              for i in range(REGISTER_WORLDS)]
    worlds += [(f"poker-{i}", lambda i=i: run_register_world(_poker_spec(i)))
               for i in range(POKER_WORLDS)]
    worlds += [(f"scenario-{i}", lambda i=i: run_scenario_world(i))
               for i in range(SCENARIO_WORLDS)]
    worlds += [(f"registers-{i}", lambda i=i: run_register_world(_spec(i)))
               for i in SLOT_WORLDS]
    worlds += [(f"stretch-{i}", lambda i=i: run_register_world(_stretch_spec(i)))
               for i in range(STRETCH_WORLDS)]
    worlds += [(f"stream-{i}", lambda i=i: run_register_world(_stream_spec(i)))
               for i in range(STREAM_WORLDS)]
    worlds += [(f"period-{i}", lambda i=i: run_register_world(_period_spec(i)))
               for i in range(PERIOD_WORLDS)]
    return worlds


def extra_worlds():
    """(name, thunk) for the register and poker worlds from the end of the
    grid up to ``DIFF_WORLDS``, the stream worlds up to
    ``DIFF_STREAM_WORLDS``, the quiet worlds up to ``DIFF_QUIET_WORLDS``,
    the tie worlds up to ``DIFF_TIE_WORLDS``, with ``TIE_UPFULL_WORLDS``,
    the period worlds up to ``DIFF_PERIOD_WORLDS`` and the phase worlds up
    to ``DIFF_PHASE_WORLDS``: not pinned by golden data, compared between
    two source trees by ``--diff``."""
    worlds = [(f"registers-{i}", lambda i=i: run_register_world(_spec(i)))
              for i in range(REGISTER_WORLDS, DIFF_WORLDS)]
    worlds += [(f"poker-{i}", lambda i=i: run_register_world(_poker_spec(i)))
               for i in range(POKER_WORLDS, DIFF_WORLDS)]
    worlds += [(f"stream-{i}", lambda i=i: run_register_world(_stream_spec(i)))
               for i in range(STREAM_WORLDS, DIFF_STREAM_WORLDS)]
    worlds += [(f"quiet-{i}", lambda i=i: run_register_world(_quiet_spec(i)))
               for i in range(DIFF_QUIET_WORLDS)]
    worlds += [(f"tie-{i}", lambda i=i: run_register_world(_tie_spec(i)))
               for i in range(DIFF_TIE_WORLDS)]
    worlds += [(f"tie-upfull-{i}", lambda spec=spec: run_register_world(spec))
               for i, spec in enumerate(TIE_UPFULL_WORLDS)]
    worlds += [(f"period-{i}", lambda i=i: run_register_world(_period_spec(i)))
               for i in range(PERIOD_WORLDS, DIFF_PERIOD_WORLDS)]
    worlds += [(f"phase-{i}", lambda i=i: run_register_world(_phase_spec(i)))
               for i in range(DIFF_PHASE_WORLDS)]
    return worlds


def _result_hash(run) -> str:
    try:
        result = run()
    except Exception as exc:   # a world that fails on one tree differs; the rest still run
        result = f"{type(exc).__name__}: {exc}"
    return _sha(json.dumps(result, sort_keys=True).encode())


def world_hashes() -> dict:
    """SHA-256 of every extra world's results (or of its exception), by name."""
    return {name: _result_hash(run) for name, run in extra_worlds()}


def diff(other_src: str) -> int:
    """Compare the extra worlds on this tree with those on ``other_src``;
    print the names that differ, 1 if any does."""
    env = dict(os.environ, PYTHONPATH=other_src)
    child = subprocess.Popen([sys.executable, __file__, "--hashes"], env=env,
                             stdout=subprocess.PIPE, text=True)
    mine = world_hashes()
    out = child.communicate()[0]
    if child.returncode:
        print(f"the worlds could not run on {other_src}", file=sys.stderr)
        return 1
    theirs = json.loads(out)
    differ = [name for name in mine if theirs.get(name) != mine[name]]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(mine)} worlds differ from {other_src}", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", metavar="OTHER_SRC",
                        help="compare the extra worlds with the tree whose src is OTHER_SRC")
    parser.add_argument("--hashes", action="store_true",
                        help="print the extra worlds' result hashes as JSON")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(args.diff)
    if args.hashes:
        print(json.dumps(world_hashes()))
        return 0
    golden = {name: run() for name, run in all_worlds()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                            for k, v in golden.items()))
        fh.write("\n}\n")
    print(f"wrote {len(golden)} worlds to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
