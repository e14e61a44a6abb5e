"""One simulated board: clocks, configuration memory, fixed-part logic,
the SelectMap controller, and the kernel region, attached to host RAM
over the timed PCI bus.

The host drives everything through the register window::

    0 down_base  1 down_len  2 up_base  3 up_len  4 cfg_base  5 cfg_len
    6 control    7 status    8..13 kernel gp      14 irq mask 15 irq cause

``control`` is a write-only command strobe (bit0 start_down, bit1
start_up, bit2 start_reconfig, bit3 start_readback).  For readback,
``cfg_len`` packs the region as (column_count << 16) | first_column and
``cfg_base`` is the destination address.  ``irq cause`` reads the pending
set and acknowledges with write-one-to-clear.

A *feed* (``BufferFeed``) gives a run-ahead process the bus side of the
buffers it shares with the bus, without the device's engine table: the
device-bound and host-bound engines behind them (SelectMap write and read
for the controller, downstream and upstream for the kernel host), as the
configuration port and the bus-macro interface sit behind the same kind of
dual-port buffer.  Its ``window`` returns the burst in flight (moved by the
stretch through ``advance_many``) with its lattice, and the time before
which every stretch ends (the queue head or the horizon, and the burst's
last word); ``lo`` and ``hi`` give the occupancies within which the idle
engines' fill status stays quiet (``DmaEngine.band``), so that a stretch
ends before a word that would make an engine request a burst.

The other way round, an engine takes or gives the *quiet runs* of its
burst (``DmaEngine.run_sink``/``run_source``): the words before the first
one that would wake the process on the buffer's other side.  Their
listeners would do nothing, so they move as one slice.  On the shared
SelectMap buffer the other engine is idle all the while: a port job starts
only with the controller idle and the buffer empty.

At every burst end the board looks for a *steady state* (``SteadyState``):
a signature of all its timing-visible state relative to ``now``, each
component giving its own part, that recurs.  The whole periods that the
bounds allow then move at once: the engines' addresses and the processes'
keys shift, the counters scale, the period's trace records and pause
windows repeat, and the periods' bytes go through the buffers, the map
kernel and the configuration image as slices.  A period so proven is kept
for the board's life and replayed wherever its signature comes back, in
later jobs too, as the signature covers all that a register write changes.

A simulation that can go no further raises ``Deadlock``, naming the busy
engines, the stream buffers' occupancies and the kernel host's state.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

from . import bitstream as bits
from .bitstream import (
    DESK_GEOMETRY,
    WRAPPER_BYTES,
    ConfigurationMemory,
    DeviceGeometry,
    RegionOutOfBounds,
)
from .fixed_part import (
    ARBITRATION_ORDER,
    HOST_BOUND,
    CTRL_START_DOWN,
    CTRL_START_READBACK,
    CTRL_START_RECONFIG,
    CTRL_START_UP,
    REG_CFG_BASE,
    REG_CFG_LEN,
    REG_CONTROL,
    REG_DOWN_BASE,
    REG_DOWN_LEN,
    REG_IRQ_CAUSE,
    REG_IRQ_MASK,
    REG_UP_BASE,
    REG_UP_LEN,
    ArbiterState,
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
from .kernels import KernelHost
from .pci import BusTransaction, HostMemory, PciBus, PciConfig, TxnState
from .selectmap import BootReport, ConfigResult, Mode, NotIdle, SelectMapController
from .sim import FOREVER, ClockDomain, Simulator
from .trace import TraceRecord, TraceRecorder


class BoardFault(Exception):
    pass


class BoardInert(BoardFault):
    pass


class JobActive(BoardFault):
    pass


class Deadlock(BoardFault):
    pass


class CommandConflict(BoardFault):
    pass


# The interrupt that says a job is done: its engine has ended the job and,
# for a port job, the controller has completed it too (``Device.job_done``).
JOB_DONE_CAUSE = {
    TargetId.DOWNSTREAM: IrqCause.DOWNSTREAM_DONE,
    TargetId.UPSTREAM: IrqCause.UPSTREAM_DONE,
    TargetId.SELECTMAP_WRITE: IrqCause.RECONFIG_DONE,
    TargetId.SELECTMAP_READ: IrqCause.READBACK_DONE,
}
# The controller's mode while it has a port job still to complete.
PORT_MODE = {TargetId.SELECTMAP_WRITE: Mode.CONFIGURING, TargetId.SELECTMAP_READ: Mode.READBACK}


@dataclass
class BoardConfig:
    geometry: DeviceGeometry = DESK_GEOMETRY
    pci: PciConfig = field(default_factory=PciConfig)
    cfg_clock_period: int = 20_000   # 50 MHz: 1 byte/cycle = 50 MB/s SelectMap peak
    user_clock_period: int = 20_000
    buffer_capacity: int = 256
    fill_low: int = 64
    fill_high: int = 192
    boot_byte_period: int = 20_000


class DmaEngine:
    """Per-target busmaster control section: one job, one transaction at a
    time.  ``request`` is the waiting transaction and ``txn`` the granted
    one; the address provider ``addr`` advances when a burst ends, by the
    bytes it moved.  Nothing reads it while a transaction is granted.

    The job's remaining bytes R show only near its end, so the engine has a
    *cap* at or above which they cannot show (``signature``):

    - a host-bound engine (upstream, SelectMap read) shows R in its flush
      rule ``occupancy * 4 >= R`` and in its quiet band, for R up to
      4 * capacity: its cap is 4 * capacity + 8;
    - a device-bound engine (downstream, SelectMap write) shows R only in
      the size of the burst it requests, min(free * 4, R, max_burst), for R
      below min(4 * capacity, max_burst): its cap is that + 8, so a burst
      requested at the cap leaves 8 bytes or more.
    """

    def __init__(self, device: "Device", target: TargetId, buffer: StreamBuffer) -> None:
        self.device = device
        self.target = target
        self.buffer = buffer
        self.addr = DmaAddressState()
        full = 4 * buffer.capacity
        self.cap = full + 8 if target in HOST_BOUND else min(full, device.max_burst_bytes) + 8
        self.request = None
        self.txn = None
        self.started_at: int | None = None
        self.finished_at: int | None = None
        # Set by the device: fn() -> True if a word this engine moves now
        # wakes the process on the buffer's other side.
        self.wakes = None

    @property
    def busy(self) -> bool:
        return self.addr.bytes_remaining > 0 or self.request is not None or self.txn is not None

    def signature(self) -> tuple:
        """The engine's part of a steady state's signature (``SteadyState``):
        its waiting request's size, its remaining bytes up to ``cap``, and,
        if the ending burst is its own, that burst's bytes moved and asked
        for, which also say whether it is done.  The addresses stay out (they
        say where the bytes go, not when), and so do the job's start and
        finish times, set at register writes and job ends, outside every
        period."""
        request, txn = self.request, self.txn
        return (request and request.total_bytes, min(self.addr.bytes_remaining, self.cap),
                txn and txn.transferred_bytes, txn and txn.total_bytes)

    def band(self) -> tuple[int, int]:
        """The buffer occupancies (lo, hi), both included, at which a word
        moved by the other side of the buffer makes this engine request
        nothing: ``quiet_band`` while it is idle, any while a transaction
        waits or moves."""
        if self.txn is None and self.request is None:
            return quiet_band(self.target, self.buffer, self.addr)
        return 0, self.buffer.capacity

    def start(self, base: int, total: int) -> None:
        """Start a job the device has checked (``Device._control``)."""
        self.addr.load(base, total)
        self.started_at = self.device.sim.now
        self.finished_at = None
        self.device.evaluate(self.target)

    def sink(self, word: int, _nbytes: int) -> None:
        self.buffer.push(word)

    def source(self, _nbytes: int) -> int:
        return self.buffer.pop()

    def run_sink(self, data) -> int:
        """Push the leading words of ``data`` (4 bytes each) that no buffer
        listener would act on, as one slice; returns how many.  It takes
        none if the first would wake the process on the other side; else
        they stop where the buffer fills."""
        if self.wakes():
            return 0
        buffer = self.buffer
        n = min(buffer.capacity - buffer.occupancy, len(data) >> 2)
        if n <= 0:
            return 0
        buffer.exchange(data[:4 * n], 0)
        return n

    def run_source(self, count: int) -> bytes:
        """Pop at most ``count`` words that no buffer listener would act on,
        as one slice: none if the first would wake the process on the other
        side; else up to the buffer's last word."""
        if self.wakes():
            return b""
        buffer = self.buffer
        n = min(buffer.occupancy, count)
        return buffer.exchange(b"", n) if n > 0 else b""

    def take(self, nbytes: int):
        """The job's next ``nbytes`` of host memory, moved past, as a view
        that the caller copies at once: a device-bound job's share of a jump
        over whole periods."""
        return self.device.world.host.view(self._advance(nbytes), nbytes) if nbytes else b""

    def give(self, data) -> None:
        """Write ``data`` as the job's next bytes and move past them: a
        host-bound job's share of a jump over whole periods."""
        if data:
            self.device.world.host.write(self._advance(len(data)), data)

    def _advance(self, nbytes: int) -> int:
        """Move the job ``nbytes`` on; returns the host address they start at
        (``addr`` counts a granted transaction's bytes only when it ends)."""
        pos = self.addr.next_address + (self.txn.transferred_bytes if self.txn else 0)
        self.addr.advance(nbytes)
        if self.request is not None:
            self.request.start_address = self.addr.next_address
        return pos

    def finished(self, txn: BusTransaction) -> None:
        self.txn = None
        self.addr.advance(txn.transferred_bytes)
        if txn.state is TxnState.PREEMPTED:
            self.request = busmaster_resume(self.addr, self.target, txn, self.buffer,
                                            self.device.max_burst_bytes)
        elif self.addr.bytes_remaining > 0:
            self.device.evaluate(self.target)
        else:
            self.finished_at = self.device.sim.now
            self.device.job_done(self.target)


class BufferFeed:
    """The bus side of a run-ahead process's buffers, as its stretches see
    it: the device-bound engine that fills one and the host-bound engine
    that drains one (the same buffer for the SelectMap controller, the
    downstream and upstream buffers for the kernel host)."""

    def __init__(self, device: "Device", into: TargetId, out_of: TargetId) -> None:
        self.sim = device.sim
        self.into = device.engines[into]
        self.out_of = device.engines[out_of]

    def window(self):
        """None while another target's burst is moving; else (burst, first,
        period, count, end).  ``burst`` is the engines' ``_Burst`` in flight,
        or None (and its lattice 0, 0, 0); the stretch moves its words with
        ``advance_many``.  Its next word is at ``first`` and the ``count``
        after it before its last are ``period`` apart (``_Burst.lattice``).
        ``end`` is the exclusive time bound every stretch keeps: the queue
        head or the horizon, and the burst's last word (which queues its
        end)."""
        sim = self.sim
        burst = sim.stream
        end = sim.reach() + 1
        if burst is None:
            return None, 0, 0, 0, end
        if burst.txn is not self.into.txn and burst.txn is not self.out_of.txn:
            return None
        tb, p, count = burst.lattice()
        return burst, tb, p, count, min(end, tb + count * p)

    def lo(self) -> int:
        """The least occupancy of the filled buffer that keeps its engine's
        fill status quiet after a point (``DmaEngine.band``)."""
        return self.into.band()[0]

    def hi(self) -> int:
        """The greatest occupancy of the drained buffer that keeps its
        engine's fill status quiet after a point."""
        return self.out_of.band()[1]


class Period(NamedTuple):
    """A steady-state period, relative to its start: its length in ps, the
    bytes each engine moves (in ``SteadyState.engines`` order), the bus's
    busy ps, the trace records (time, component, event, detail) and the
    controller's pause windows (start, end), where the kernel was last awake
    at a burst end (None if it slept at every one), and the kernel's exact
    terms at its start (``KernelHost.terms``)."""

    length: int
    moved: tuple
    busy: int
    records: tuple
    windows: tuple
    woke: int | None
    terms: tuple


class SteadyState:
    """Finds a steady state at burst ends and jumps whole periods of it, as
    in the cyclicity of max-plus linear systems and the periodic phase of
    self-timed dataflow.

    At the top of every burst end (``PciBus._finish``) no burst is in flight
    and no run-ahead process runs.  There ``at_burst_end`` takes the
    signature of everything that decides the board's timing, relative to
    ``now``.  Each component gives its own part, and says next to it which
    of its fields stay out and why: the controller
    (``SelectMapController.signature``), the kernel host
    (``KernelHost.signature``), each engine (``DmaEngine.signature``, which
    also covers the ending burst, as only its engine has one granted), the
    three buffers, the arbiter and the interrupt line; the board adds the
    order of the two processes' slots, which decides their ties.  A
    snapshot holds the time, the bus's busy time, the engines' addresses,
    the controller's pause windows, the trace records and the kernel's exact
    terms (``KernelHost.terms``).  ``table`` maps each signature to the last
    snapshot that had it.  ``cross`` maps each signature and *stall term*
    (where the stall window over ``now``, or the next one, opens relative to
    ``now``, and its length) to the last snapshot that had both.  Both are
    keyed by the signature's hash, taken once per burst end, and hold the
    signature with the snapshot: another signature with the same hash only
    loses a match.  The rest of a period follows from these: the controller
    moves what its engine moves, as the buffer's occupancy is in the
    signature, and the bus moves the words of all four engines, as a
    recurring period holds only full words.

    An engine's remaining bytes show only within its cap of its job's end
    (``DmaEngine``).  The controller's remaining bytes are its engine's plus
    four per buffered word while it configures, and its engine's less four
    per buffered word in readback, 4 * capacity + 8 - 4 * capacity = 8 or
    more at the engine's cap.  So while its engine stays at its cap or more,
    the controller stays ``SelectMapController.CAP`` = 8 bytes or more from
    its end, at every burst end and, as they only fall, in between: short of
    its last word, where a stretch stops, and of its payload's end.  Below
    its engine's cap its remaining bytes follow from the engine's and the
    buffer's occupancy.

    When a signature recurs at ``now`` from ``t0``, what follows ``now``
    repeats what followed ``t0`` for as long as the stall windows do, as
    nothing else from outside reaches the board between register writes.
    So ``_jump`` moves the largest number ``n`` of whole periods after which
    every engine's job is still its cap or more from its end (the
    controller's job moves with its engine), that end by the loop's horizon
    and that meet the stall windows the first period met:

    - a match in ``table`` needs no window to meet [t0, now + n * period];
    - a match in ``cross`` needs the windows over [t0, now + (n + 1) *
      period) to be those of [t0, now) shifted by whole periods
      (``PciBus.stalls_repeat``, one walk over the merged bounds), so that
      every jumped period meets the windows of the first.

    The jump lands flush on the burst end at ``now + n * period``: each
    engine's remaining bytes are its cap or more there, as at ``now``, so
    the signature there is ``now``'s.  Its lattice point is stalled or not
    as ``now``'s was, which decides how the burst ending there was cut: the
    gap's bound includes it, and the cross check covers it with a whole
    period to spare.  ``_jump`` refuses if the kernel is stepped edge by
    edge, or if anything but the processes' slots is queued, a stall wake
    included.  No period raises an interrupt: a job's end changes its
    engine's remaining bytes or the controller's mode, and only stepped
    kernels request one.

    A period, once proven, holds wherever its signature comes back, as a
    max-plus system's periodic regime depends on its state alone; the same
    few steady states come back in gap after gap between stall windows, at
    burst cuts that drift from gap to gap, and in job after job.  So every
    match makes a ``Period`` of its snapshot (``_learn``), relative to the
    period's start, and ``_jump`` replays that; a match in ``table`` that
    jumps keeps its period in ``learned`` under the signature, a *learned
    period*.  A later burst end with that signature, in any gap of any later
    job, replays it from ``now`` at once, under the same kernel rule and
    bounds, with no window over [now, now + n * period]: the period ran
    with none.

    That needs the signature to be the whole timing state, also across the
    host's register writes.  Register by register:

    - ``down_base``, ``up_base`` and ``cfg_base`` are addresses, read at a
      start strobe: they say where bytes go, not when.
    - ``down_len``, ``up_len`` and ``cfg_len``, read at a start strobe, set
      a job's length (for a readback, its region and so its image's
      length): its engine's remaining bytes and the controller's, each in
      the signature up to its cap, and its bytes done.
    - ``control`` starts jobs: an engine's remaining bytes and request, and
      the controller's mode, job and next point, all in the signature.
    - ``status`` only reads back what the host or the kernel host wrote.
    - the kernel registers are operands: a map kernel reads them as data
      (add_const, register 8), and the board never jumps while a stepped
      kernel, which may let them steer it, is live.
    - ``irq mask`` sets ``InterruptLine.masked``, which nothing in the event
      loop reads (``InterruptLine.signature``).
    - ``irq cause`` acknowledges causes: ``pending`` is in the signature.

    Inside the loop the kernel changes when a reconfiguration completes:
    its form is in the signature, its identity is data
    (``KernelHost.signature``).  The trace records a period replays are the
    bus's grant, complete and preempt records, which name the master and
    the burst's bytes moved and asked for, and the controller's pause and
    resume records, which name the mode's reason: all fixed by the
    signature, none naming an address, a length or a kernel.  The records
    that do (a job's start and completion, a kernel's activation, an
    interrupt) fall at register writes and job ends, outside every period.
    ``table`` and ``cross`` are still cleared at every register write
    (``Device.host_reg_write``, through which every job starts): a snapshot
    taken before one would make a period of the write.  ``table`` is also
    cleared after a jump.  A window added later needs no clear of ``table``,
    as each jump measures the windows from ``t0`` on when it jumps, nor of
    ``learned``, whose periods ran with none.  It does clear ``cross``
    (``PciBus.on_stall``): it may open before ``now``, in periods already
    run, which then no longer match the windows their snapshots ran under.
    A jump leaves ``cross`` as it is, as a cross-window match needs a
    snapshot taken a stall period or more earlier, before the jumps within
    the gaps since (see below for what they leave).

    A process is *quiescent* at a burst end if its clock cannot show there:
    the controller when it is idle (it then has no next point), the kernel
    host when its kernel is inert or asleep since before ``now``.  Its phase
    then leaves the signature, so that a stream, whose critical circuit is
    the bus while the kernel has slack, recurs with the bus's own period
    instead of the clocks' common multiple, as a max-plus system repeats
    with the period of its critical circuit (Baccelli, Cohen, Olsder and
    Quadrat, *Synchronization and Linearity*, 1992).  An idle controller
    stays idle until a register write starts a job, which changes its part
    of the signature, so its phase never shows.  The kernel's phase does not
    show within a period at every burst end of which the kernel was
    quiescent (``stirred`` is the last burst end at which it was not):

    - within the period the bus lattice, grants and burst sizes do not
      depend on the kernel's phase;
    - the kernel moves one word per edge: word j at
      c_j = max(c_{j-1} + q, edge(a_j)), a_j the time of the bus word that
      makes it movable; by induction c_j lies in [c*_j, c*_j + q) under
      every phase, c*_j = max(c*_{j-1} + q, a_j) being the same for all;
    - asleep at a burst end T, its last move was at T - q or before, which
      under any phase comes before T, and its next waits for a bus word
      after T;
    - so the occupancies at every burst end, the requests pending there and
      their sizes (each set at a threshold crossing) are the same under
      every phase, and the bus never idles inside the period, as an asleep
      kernel with no burst in flight raises nothing.

    A kernel that went to sleep on ``now``'s own picosecond is not
    quiescent: a burst whose first word lands on ``now`` (grant latency 0)
    wakes it one edge later than under a phase without that edge.  So a
    period replays from ``now`` with kernel terms other than those at its
    start only if the kernel slept at every burst end of the period
    (``stirred`` came before the snapshot) and sleeps at ``now``; otherwise
    they must be equal.

    Where a jump lands.  A jump from the kernel terms at the period's start
    over whole user-clock periods (as every fresh match with equal terms
    is) lands on the state the per-burst run reaches, kernel host and
    ``stirred`` included, as the whole state repeats; so does a jump whose
    kernel moves no word, which leaves the kernel asleep at its last edge
    (``KernelHost.jump``).  Any other jump *drifts* (``drifts``): one with
    other kernel terms, or a learned period proven under other terms that
    is no whole number of user-clock periods.  It lands on the per-burst
    run's bus side, but its kernel keeps the phase of the run that proved
    the period.  By the bounds above, the per-burst run's kernel may have
    slept at another edge, less than q from the landing's, or be awake for
    one edge in (L, L + q) that moves nothing, L the landing; and it may
    have been awake at burst ends of the last period where the landing's
    was not, so that its ``stirred`` is later.  No later step shows this.
    The kernel's next word waits for a bus word, which comes one grant
    latency after L or later, and ``_jump`` takes a drifting period only if
    that latency is a user period or more, or the kernel last slept more
    than a user period before ``now`` (so that under every phase it sleeps
    at L, at an edge before L).  So both runs' kernels take that word on the
    same edge, neither on the edge at which it last slept (the one tie
    ``KernelHost._maybe_wake`` settles by the last edge), and are one from
    there on.  Nor does a later match read the difference wrongly: it reads
    the landing run's own history, in which every kernel word moved in
    [c*_j, c*_j + q) as under any phase, so the argument above holds over
    spans that hold jumps, and its jumps repeat that history, whose timing
    is the per-burst run's.
    """

    TABLE_LIMIT = 4096      # entries kept in each table before it starts afresh

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.sim = device.sim
        self.bus = device.world.bus
        self.engines = tuple(device.engines.values())
        cfg = device.config
        self.user_period = cfg.user_clock_period
        # Whether no bus word can reach the kernel within a user period of a
        # burst end: the kernel then shows no phase there (see the class).
        self.grant_clears = (cfg.pci.grant_latency_cycles * cfg.pci.clock_period
                             >= cfg.user_clock_period)
        self.table: dict = {}
        self.cross: dict = {}     # (signature, stall term) -> snapshot, kept across jumps
        self.learned: dict = {}   # signature -> learned period, kept for the board's life
        self.stirred = -1     # the last burst end at which the kernel was awake

    def clear(self) -> None:
        """Forget every snapshot: a register write may start a one-time
        action between a snapshot and a later burst end.  Learned periods
        stay, as the signature covers all that a register write changes."""
        self.table.clear()
        self.cross.clear()

    def signature(self) -> tuple:
        """The signature at ``now`` (see the class) and the kernel's exact
        terms; the kernel host's part, second, ends in None if it is
        quiescent."""
        now, dev = self.sim.now, self.device
        ctl, host = dev.controller, dev.kernel_host
        up, down, rd, wr = self.engines
        terms = host.terms(now)
        ck, hk = ctl.key, host.key
        return (ctl.signature(now), host.signature(now, terms),
                up.signature(), down.signature(), rd.signature(), wr.signature(),
                dev.down_buf.signature(), dev.up_buf.signature(), dev.smap_buf.signature(),
                dev.arbiter.signature(), dev.irq.signature(),
                ck and hk and ck[1] < hk[1]), terms

    def at_burst_end(self) -> None:
        """Record this burst end's signature, or jump from its recurrence.

        A learned period with this signature replays from ``now``.  Else the
        snapshot goes into ``table`` under the signature and, with a stall
        window over ``now`` or ahead of it, into ``cross`` under the signature
        and the stall term as well.  A recurrence in ``table`` jumps within the
        gap before the next window and is learned, one in ``cross`` jumps
        across windows (see the class)."""
        bus, now, table, cross, learned = (self.bus, self.sim.now, self.table, self.cross,
                                           self.learned)
        for books in (table, cross, learned):
            if len(books) >= self.TABLE_LIMIT:
                books.clear()
        sig, terms = self.signature()
        asleep = sig[1][2] is None
        if not asleep:
            self.stirred = now
        h = hash(sig)
        # The stall term: where the window over now or the next one opens, and its length.
        bounds = bus._stalls
        i = bisect.bisect_right(bounds, now) & ~1
        key = (h, bounds[i] - now, bounds[i + 1] - bounds[i]) if i < len(bounds) else None
        for books, at in ((learned, h), (table, h), (cross, key)):
            entry = books.get(at)
            if entry is None or entry[0] != sig:
                continue
            if books is learned:
                period, start = entry[1], now
            else:
                period, start = self._learn(entry[1], now), entry[1][0]
            # The kernel's terms may differ only if it slept throughout the period.
            if ((period.terms == terms or period.woke is None and asleep)
                    and self._jump(period, now, start, books is cross, terms)):
                if books is table:
                    learned[h] = (sig, period)
                table.clear()
                return
        dev = self.device
        trace = dev.trace
        up, down, rd, wr = self.engines
        table[h] = entry = (sig, (now, bus.busy_ticks, up.addr.next_address,
                                  down.addr.next_address, rd.addr.next_address,
                                  wr.addr.next_address, len(dev.controller.pause_windows),
                                  len(trace.records) if trace else 0, terms))
        if key is not None:
            cross[key] = entry

    def _learn(self, snap, now: int) -> Period:
        """The period from ``snap`` to ``now``, relative to its start."""
        t0, busy, *addrs, windows, records, terms = snap
        trace, ctl = self.device.trace, self.device.controller
        recs = trace.records[records:] if trace else ()
        return Period(now - t0,
                      tuple(e.addr.next_address - a for e, a in zip(self.engines, addrs)),
                      self.bus.busy_ticks - busy,
                      tuple((t - t0, c, e, d) for t, c, e, d in recs),
                      tuple((s - t0, e - t0) for s, e in ctl.pause_windows[windows:]),
                      self.stirred - t0 if self.stirred >= t0 else None,
                      terms)

    def drifts(self, period: Period, terms) -> bool:
        """True if a jump over ``period`` from the kernel ``terms`` may leave
        the kernel host in another phase than the per-burst run's: the kernel
        moves words, and the period is not a whole number of user-clock
        periods starting from these very terms (see the class)."""
        return bool(period.moved[0] or period.moved[1]) and not (
            period.terms == terms and period.length % self.user_period == 0)

    def _jump(self, period: Period, now: int, start: int, across: bool, terms) -> bool:
        """Move as many whole periods from ``now`` as the bounds allow, the
        stall windows measured from ``start`` on, ``across`` them if set;
        False if none.  ``terms`` are the kernel's at ``now``."""
        dev, sim, bus = self.device, self.sim, self.bus
        ctl, host = dev.controller, dev.kernel_host
        if host.form == "step":
            return False
        # A drifting jump must land where no step can show the kernel's phase.
        if self.drifts(period, terms) and not (self.grant_clears
                                               or terms[1] < -self.user_period):
            return False
        length, moved = period.length, period.moved
        keys = sorted(p.key for p in (ctl, host) if p.key is not None)
        if sorted(entry[:2] for entry in sim._heap) != keys:
            return False
        # n periods from now: each engine's job stays its cap or more from
        # its end, the horizon holds and ...
        fits = [(e.addr.bytes_remaining - (e.txn.transferred_bytes if e.txn else 0) - e.cap) // d
                for e, d in zip(self.engines, moved) if d]
        if sim.horizon != FOREVER:
            fits.append((sim.horizon - now) // length)
        if across:
            # ... the windows over [start, now + (n + 1) * length) repeat those of [start, now).
            end = now + (min(fits) + 1) * length if fits else FOREVER
            fits.append((bus.stalls_repeat(start, now, end) - now) // length - 1)
        else:
            # ... no window meets [start, now + n * length].
            stalled = bus.next_stalled(start)
            if stalled != FOREVER:
                fits.append((stalled - 1 - now) // length)
        n = min(fits, default=0)
        if n < 1:
            return False
        # The periods repeat one that ran over [now - length, now].
        base = now - length
        host.jump(n, length, moved[1], moved[0])
        ctl.jump(n, length, moved[3] if ctl.mode is Mode.CONFIGURING else moved[2],
                 [(base + s, base + e) for s, e in period.windows])
        bus.repeat(n, length, period.busy, sum(moved) // 4)
        trace = dev.trace
        if trace:
            trace.records += [TraceRecord(b + t, c, e, d)
                              for b in range(now, now + n * length, length)
                              for t, c, e, d in period.records]
        if period.woke is not None:     # the kernel's last awake burst end, in the last period
            self.stirred = now + (n - 1) * length + period.woke
        sim.shift(n * length)
        return True


class Device:
    """The FPGA side: fixed part plus reconfigurable region."""

    def __init__(self, world: "World") -> None:
        self.world = world
        self.sim = world.sim
        cfg = world.config
        trace = world.trace
        self.config = cfg
        self.trace = trace
        self.max_burst_bytes = cfg.pci.max_burst_cycles * 4

        self.cfg_clk = ClockDomain("cfg", cfg.cfg_clock_period)
        self.user_clk = ClockDomain("user", cfg.user_clock_period)

        self.config_mem = ConfigurationMemory(cfg.geometry)
        self.regs = RegisterFile()
        self.irq = InterruptLine(on_event=self._irq_event)

        def buf(name):
            return StreamBuffer(cfg.buffer_capacity, cfg.fill_low, cfg.fill_high, name)

        self.down_buf = buf("downstream")
        self.up_buf = buf("upstream")
        self.smap_buf = buf("selectmap")

        self.engines = {
            TargetId.UPSTREAM: DmaEngine(self, TargetId.UPSTREAM, self.up_buf),
            TargetId.DOWNSTREAM: DmaEngine(self, TargetId.DOWNSTREAM, self.down_buf),
            TargetId.SELECTMAP_READ: DmaEngine(self, TargetId.SELECTMAP_READ, self.smap_buf),
            TargetId.SELECTMAP_WRITE: DmaEngine(self, TargetId.SELECTMAP_WRITE, self.smap_buf),
        }
        self.arbiter = ArbiterState()

        self.controller = SelectMapController(self.sim, self.cfg_clk, self.smap_buf,
                                              self.config_mem, trace=trace,
                                              feed=BufferFeed(self, TargetId.SELECTMAP_WRITE,
                                                              TargetId.SELECTMAP_READ))
        self.kernel_host = KernelHost(self.sim, self.user_clk, self.down_buf, self.up_buf,
                                      self.regs,
                                      lambda: self._raise(IrqCause.KERNEL_REQUEST),
                                      BufferFeed(self, TargetId.DOWNSTREAM, TargetId.UPSTREAM),
                                      trace=trace)
        self.registry = self.kernel_host.registry
        host, ctl = self.kernel_host, self.controller
        for target, wakes in ((TargetId.DOWNSTREAM, host.wakes_on_input),
                              (TargetId.UPSTREAM, host.wakes_on_room),
                              (TargetId.SELECTMAP_WRITE, ctl.wakes_on_input),
                              (TargetId.SELECTMAP_READ, ctl.wakes_on_room)):
            self.engines[target].wakes = wakes

        self.down_buf.on_dequeue(lambda: self.evaluate(TargetId.DOWNSTREAM))
        self.up_buf.on_enqueue(lambda: self.evaluate(TargetId.UPSTREAM))
        self.smap_buf.on_dequeue(lambda: self.evaluate(TargetId.SELECTMAP_WRITE))
        self.smap_buf.on_enqueue(lambda: self.evaluate(TargetId.SELECTMAP_READ))

        world.bus.set_master(self._next_transaction)
        self.steady = SteadyState(self)
        world.bus.on_burst_end = self.steady.at_burst_end
        world.bus.on_stall = self.steady.cross.clear

        self.booted = False
        self.boot_report: BootReport | None = None
        self.last_config = None
        self.last_readback = None

    # -- power-up -----------------------------------------------------------

    def power_up(self, flash_image: bytes) -> BootReport:
        if self.booted or (self.boot_report is not None and self.boot_report.ok):
            raise JobActive("board already powered up")
        report = self.controller.power_up_boot(flash_image, self.config.boot_byte_period,
                                               on_done=self._boot_done)
        self.boot_report = report
        return report

    def _boot_done(self, _bs) -> None:
        self.booted = True
        if self.trace:
            self.trace.record("boot", "done", "fixed part active")

    def _require_booted(self) -> None:
        if not self.booted:
            raise BoardInert("device registers are inaccessible before boot completes")

    # -- host register window -------------------------------------------------

    def host_reg_read(self, index: int) -> int:
        self._require_booted()
        if index == REG_IRQ_CAUSE:
            return int(self.irq.pending)
        return self.regs.read(index)

    def host_reg_write(self, index: int, value: int) -> None:
        self._require_booted()
        self.steady.clear()
        if index == REG_IRQ_CAUSE:
            self.irq.acknowledge(IrqCause(value & 0x1F))
        elif index == REG_IRQ_MASK:
            self.irq.masked = IrqCause(value & 0x1F)
            self.regs.write(index, value)
        elif index == REG_CONTROL:
            self._control(value)
        else:
            self.regs.write(index, value)

    def _control(self, command: int) -> None:
        """Start every job the ``control`` strobe names.  The whole word is
        checked first (conflicting strobes, a busy engine or controller,
        words of a readback still in the shared SelectMap buffer, an empty
        job, a span outside host memory), so a rejected word changes
        nothing."""
        regs = self.regs
        port = command & (CTRL_START_RECONFIG | CTRL_START_READBACK)
        if port == CTRL_START_RECONFIG | CTRL_START_READBACK:
            raise CommandConflict("reconfiguration and readback share the configuration port")
        if port and self.controller.mode is not Mode.IDLE:
            raise NotIdle(f"controller is {self.controller.mode.value}")
        if port and self.smap_buf.occupancy:
            raise JobActive(f"selectmap buffer still holds {self.smap_buf.occupancy} words")
        jobs = []
        if command & CTRL_START_DOWN:
            jobs.append((TargetId.DOWNSTREAM, regs.read(REG_DOWN_BASE), regs.read(REG_DOWN_LEN)))
        if command & CTRL_START_UP:
            jobs.append((TargetId.UPSTREAM, regs.read(REG_UP_BASE), regs.read(REG_UP_LEN)))
        cfg_base, cfg_len = regs.read(REG_CFG_BASE), regs.read(REG_CFG_LEN)
        if command & CTRL_START_RECONFIG:
            if cfg_len <= WRAPPER_BYTES:
                raise ValueError("image shorter than header and checksum")
            jobs.append((TargetId.SELECTMAP_WRITE, cfg_base, cfg_len))
        first, count = cfg_len & 0xFFFF, cfg_len >> 16   # readback region
        if command & CTRL_START_READBACK:
            geometry = self.config_mem.geometry
            if not geometry.contains_region(first, count):
                raise RegionOutOfBounds(f"readback of columns {first}+{count} outside "
                                        f"0..{geometry.columns - 1}")
            jobs.append((TargetId.SELECTMAP_READ, cfg_base,
                         WRAPPER_BYTES + count * geometry.column_bytes))
        for target, base, total in jobs:
            if self.engines[target].busy:
                raise JobActive(f"{target.value} job already active")
            if total <= 0:
                raise ValueError(f"{target.value} job length must be > 0")
            self.world.host.locate(base, total)

        for target, base, total in jobs:
            if target is TargetId.SELECTMAP_WRITE:
                self.controller.start_configure(total, on_done=self._reconfig_done)
            elif target is TargetId.SELECTMAP_READ:
                self.controller.start_readback(first, count, on_done=self._readback_done)
            self.engines[target].start(base, total)

    def _reconfig_done(self, bs, result) -> None:
        self.last_config = result
        self.kernel_host.activate_from_config(bs)
        self.job_done(TargetId.SELECTMAP_WRITE)

    def _readback_done(self, result) -> None:
        self.last_readback = result
        self.job_done(TargetId.SELECTMAP_READ)

    def job_done(self, target: TargetId) -> None:
        """Raise the done interrupt of ``target``'s job if its engine is idle
        and the controller has no part of it left: the engine's job end and,
        for a port job, the controller's completion each call this, and the
        second of them raises."""
        if not self.engines[target].busy and self.controller.mode is not PORT_MODE.get(target):
            self._raise(JOB_DONE_CAUSE[target])

    def _raise(self, cause: IrqCause) -> None:
        self.irq.raise_(cause)

    def describe(self) -> str:
        """The busy engines, the stream buffers' occupancies and the kernel
        host's state, for messages."""
        busy = ", ".join(t.value for t, e in self.engines.items() if e.busy) or "none"
        cap = self.config.buffer_capacity
        return (f"busy engines: {busy}; downstream buffer {self.down_buf.occupancy}/{cap} words, "
                f"upstream buffer {self.up_buf.occupancy}/{cap} words; "
                f"kernel {self.kernel_host.state()}")

    def _irq_event(self, kind: str, cause: IrqCause) -> None:
        if self.trace:
            self.trace.record("irq", kind, cause.name or str(int(cause)))

    # -- busmaster plumbing ------------------------------------------------------

    def evaluate(self, target: TargetId) -> None:
        """Re-run the fill-status trigger for one target's control section."""
        engine = self.engines[target]
        if engine.txn is None and engine.request is None and engine.addr.bytes_remaining > 0:
            req = on_fill_status(target, engine.buffer, engine.addr, self.max_burst_bytes)
            if req is not None:
                engine.request = req
                self.world.bus.poke()

    def _next_transaction(self) -> BusTransaction | None:
        pending = [t for t in ARBITRATION_ORDER if self.engines[t].request is not None]
        if not pending:
            return None
        target = arbitrate(self.arbiter, pending)
        engine = self.engines[target]
        txn, engine.request = engine.request, None
        txn.word_sink, txn.word_source, txn.on_finish = engine.sink, engine.source, engine.finished
        txn.run_sink, txn.run_source = engine.run_sink, engine.run_source
        engine.txn = txn
        return txn


class World:
    """A complete simulated system; one per scenario run.

    Its host methods are the PC-side driver: each issues the register
    writes and host-memory mappings of one supervisor operation and, for a
    whole job, waits for and acknowledges its done interrupt, then unmaps
    the regions it mapped.  A rejected register write starts nothing, so
    the regions are unmapped before the error goes on; a wait that fails
    leaves them mapped, as the job may still run.
    """

    def __init__(self, config: BoardConfig | None = None, tracing: bool = False) -> None:
        self.config = config or BoardConfig()
        self.sim = Simulator()
        self.trace = TraceRecorder(self.sim) if tracing else None
        self.host = HostMemory()
        self.bus = PciBus(self.sim, self.host, self.config.pci, trace=self.trace)
        self.device = Device(self)

    def run_until_cause(self, cause: IrqCause, what: str = "") -> None:
        """Advance the event loop until the cause is pending."""
        irq = self.device.irq
        step = self.sim.step
        mask = int(cause)
        while not irq.pending & mask:
            if not step():
                raise Deadlock(f"simulation idle while waiting for {what or cause}: "
                               f"{self.device.describe()}")

    def acknowledge(self, cause: IrqCause) -> None:
        self.device.host_reg_write(REG_IRQ_CAUSE, int(cause))

    # -- host driver ---------------------------------------------------------------

    def boot(self, flash: bytes) -> BootReport:
        """Power up from ``flash`` and, if the image is good, run to the end
        of the boot load."""
        report = self.device.power_up(flash)
        if report.ok:
            self.sim.run_until(self.sim.now + report.duration)
        return report

    def stage(self, data: bytes) -> int:
        """Copy ``data`` into a new shared host region; returns its base."""
        _buf, base = self.host.map_shared_region(len(data))
        self.host.write(base, data)
        return base

    def _program(self, writes, *bases: int) -> None:
        """Write each (register, value); if the device rejects one, unmap
        ``bases`` and re-raise."""
        write = self.device.host_reg_write
        try:
            for index, value in writes:
                write(index, value)
        except Exception:
            for base in bases:
                self.host.unmap(base)
            raise

    def wait(self, cause: IrqCause, what: str = "") -> None:
        """Run until ``cause`` is pending, then acknowledge it."""
        self.run_until_cause(cause, what)
        self.acknowledge(cause)

    def reconfigure(self, image: bytes) -> ConfigResult:
        """Check a partial image on the host, then load it over the bus."""
        if bits.parse(image).kind is not bits.BitstreamKind.PARTIAL:
            raise bits.FixedRegionViolation(
                "only partial bitstreams may reconfigure over the bus")
        base = self.stage(image)
        self._program(((REG_CFG_BASE, base), (REG_CFG_LEN, len(image)),
                       (REG_CONTROL, CTRL_START_RECONFIG)), base)
        self.wait(IrqCause.RECONFIG_DONE, "reconfig")
        self.host.unmap(base)
        return self.device.last_config

    def readback(self, first: int, count: int) -> bytes:
        """Read ``count`` columns from ``first`` back as a ``.pbit`` image."""
        total = WRAPPER_BYTES + count * self.config.geometry.column_bytes
        _buf, base = self.host.map_shared_region(total)
        self._program(((REG_CFG_BASE, base), (REG_CFG_LEN, (count << 16) | first),
                       (REG_CONTROL, CTRL_START_READBACK)), base)
        self.wait(IrqCause.READBACK_DONE, "readback")
        image = self.host.read(base, total)
        self.host.unmap(base)
        return image

    def start_stream(self, data: bytes, up: bool = True) -> tuple[int, int | None]:
        """Start a downstream job over ``data`` and, if ``up``, an upstream
        job of the same length; returns the bases of their regions (None for
        an upstream job not started), which stay mapped."""
        nbytes = len(data)
        in_base = self.stage(data)
        writes = [(REG_DOWN_BASE, in_base), (REG_DOWN_LEN, nbytes)]
        bases = [in_base]
        if up:
            _buf, out_base = self.host.map_shared_region(nbytes)
            writes += [(REG_UP_BASE, out_base), (REG_UP_LEN, nbytes)]
            bases.append(out_base)
        self._program(writes + [(REG_CONTROL, CTRL_START_DOWN | (CTRL_START_UP if up else 0))],
                      *bases)
        return in_base, out_base if up else None

    def stream(self, data: bytes) -> bytes:
        """Round-trip ``data`` through the active kernel; returns what came up."""
        in_base, out_base = self.start_stream(data)
        self.wait(IrqCause.DOWNSTREAM_DONE, "downstream job")
        self.wait(IrqCause.UPSTREAM_DONE, "upstream job")
        out = self.host.read(out_base, len(data))
        self.host.unmap(in_base)
        self.host.unmap(out_base)
        return out
