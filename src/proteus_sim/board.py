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

At every burst end the board takes a signature of all its timing-visible
state relative to ``now`` (``SteadyState``), and keeps what it does up to
the next burst end, a *segment*, under it: a segment is a function of its
start's signature and the stall windows it meets.  A burst end whose
signature comes back replays the segments that follow it, a *chain*, in
one event, and a chain that comes back to a signature runs the period it
closed as many whole times as the bounds allow.  A replay repeats the
segments' trace records and pause windows, counts their bursts and moves
the bytes through the buffers, the map kernel and the configuration image
as slices, straight from the chain's path; where the chain stops, one
landing sets each component's state from the signature there: the
engines' requests and bursts, the arbiter, the kernel's last edge and the
processes' keys.  The store lives as long as the board, as the signature
covers all that a register write changes.

A simulation that can go no further raises ``Deadlock``, naming the busy
engines, the stream buffers' occupancies and the kernel host's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import bitstream as bits
from .bitstream import (
    DESK_GEOMETRY,
    HEADER_BYTES,
    WRAPPER_BYTES,
    ConfigurationMemory,
    DeviceGeometry,
    RegionOutOfBounds,
)
from .fixed_part import (
    ARBITRATION_ORDER,
    HOST_BOUND,
    MASTER_ID,
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
    SLICE_BYTES,
    StreamBuffer,
    TargetId,
    arbitrate,
    busmaster_resume,
    on_fill_status,
    period_chunks,
    quiet_band,
)
from .kernels import KernelHost
from .pci import BusTransaction, Direction, HostMemory, PciBus, PciConfig, TxnState
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

    Every transaction it makes, from ``on_fill_status`` or
    ``busmaster_resume``, is at most its *burst*, min(4 * capacity,
    max_burst) bytes: the one bounds what the buffer can take or give, the
    other each request.  So the bus's burst limit never cuts one, and an
    engine moves at most one burst from one burst end to the next.

    The job's remaining bytes R show only near its end, so the engine has a
    *cap* at or above which they cannot show (``SteadyState.signature``):

    - a host-bound engine (upstream, SelectMap read) shows R in its flush
      rule ``occupancy * 4 >= R`` and in its quiet band, for R up to
      4 * capacity: its cap is 4 * capacity + 8;
    - a device-bound engine (downstream, SelectMap write) shows R only in
      the size of the burst it requests, min(free * 4, R, max_burst), for R
      below its burst: its cap is that + 8, so a burst requested at the cap
      leaves 8 bytes or more.
    """

    def __init__(self, device: "Device", target: TargetId, buffer: StreamBuffer) -> None:
        self.device = device
        self.target = target
        self.buffer = buffer
        self.addr = DmaAddressState()
        full = 4 * buffer.capacity
        self.burst = min(full, device.max_burst_bytes)
        self.cap = (full if target in HOST_BOUND else self.burst) + 8
        self.direction = Direction.TO_HOST if target in HOST_BOUND else Direction.TO_DEVICE
        self.request = None
        self.txn = None
        self.started_at: int | None = None
        self.finished_at: int | None = None

    @property
    def busy(self) -> bool:
        return self.addr.bytes_remaining > 0 or self.request is not None or self.txn is not None

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

    def take(self, nbytes: int):
        """The job's next ``nbytes`` of host memory, moved past, as a view
        that the caller copies at once: a device-bound job's share of a
        replay (``SteadyState._replay``)."""
        return self.device.world.host.view(self._advance(nbytes), nbytes) if nbytes else b""

    def give(self, data) -> None:
        """Write ``data`` as the job's next bytes and move past them: a
        host-bound job's share of a replay (``SteadyState._replay``)."""
        if data:
            self.device.world.host.write(self._advance(len(data)), data)

    def _advance(self, nbytes: int) -> int:
        """Move the job ``nbytes`` on; returns the host address they start at
        (``addr`` counts a granted transaction's bytes only when it ends).  A
        waiting request keeps its address: the chain's landing sets it
        afresh (``land``)."""
        pos = self.addr.next_address + (self.txn.transferred_bytes if self.txn else 0)
        self.addr.advance(nbytes)
        return pos

    def grant(self, txn: BusTransaction) -> BusTransaction:
        """Make ``txn`` the granted transaction, wired to this engine."""
        txn.word_sink, txn.word_source, txn.on_finish = self.sink, self.source, self.finished
        self.txn = txn
        return txn

    def land(self, request, done, total) -> None:
        """Take the state of a landing (``SteadyState``): a waiting request
        of ``request`` bytes (None: none) and, if ``total`` is set, the burst
        ending there, granted at the job's next address with ``done`` of its
        ``total`` bytes moved.  The bytes moved by the burst ending at the
        start now count in ``addr``, and those of the one ending at the
        landing not yet, as when a burst ends."""
        txn = self.txn
        self.addr.advance((txn.transferred_bytes if txn else 0) - (done or 0))
        self.request = self._transaction(request) if request else None
        self.txn = None
        if total:
            txn = self.grant(self._transaction(total))
            txn.transferred_bytes, txn.state = done, TxnState.BURSTING

    def _transaction(self, nbytes: int) -> BusTransaction:
        return BusTransaction(MASTER_ID[self.target], self.direction, self.addr.next_address,
                              nbytes)

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


# Fields of the flat signature (``SteadyState.signature``): the controller's
# six, the kernel host's three, four for each engine in ``SteadyState.engines``
# order, the buffers' occupancies, the arbiter's last grant, the pending
# interrupts and the slot order.
_CTL_KEY, _CTL_REM, _CTL_DONE, _CTL_PAUSE = 2, 3, 4, 5
_FORM, _HOST_KEY, _HOST_PHASE = 6, 7, 8
_ENGINE = 9
_DOWN_OCC, _SMAP_OCC, _GRANT, _ORDER = 25, 27, 28, 30
# The bytes after the payload: the payload's end has moved once the
# controller has no more left, and its time is taken then.
_CRC_BYTES = WRAPPER_BYTES - HEADER_BYTES
# ``SteadyState._near`` where no engine is near its cap.
_FAR = (None,) * 4


class Segment(NamedTuple):
    """What the board does from one burst end to the next, relative to its
    start, in nine fields: its length in ps; the bytes the bus moves for
    each engine (in ``SteadyState.engines`` order); the trace records (time,
    component, event, detail); the controller's pause windows (start, end);
    the stall windows over [0, length], clipped to it (``PciBus.windows``);
    the kernel's exact terms at its start; its last edge relative to the
    end, if it had one within; and the signature at the end, with its hash.
    The rest is read off the signatures: which engines start at their caps
    (their fields read the cap, ``SteadyState.lookup``), and whether the
    kernel shows (is not quiescent) at either burst end, for the kernel rule
    (``SteadyState._rule``).

    The one burst whose end is queued within a segment is the one that ends
    it, and it moves ``sum(moved)`` bytes: a replay counts it on the bus from
    those (``PciBus.count``)."""

    length: int
    moved: tuple
    records: tuple
    windows: tuple
    stalls: tuple
    terms: tuple
    edge: int | None
    sig: tuple
    key: int


class SteadyState:
    """Memoizes what the board does between burst ends and replays it, as
    HashLife memoizes the macro-steps of a deterministic system by its state
    (Gosper, *Physica D* 10, 1984); a replay that comes back to a state it
    passed is a period, which it jumps whole, as in the cyclicity of
    max-plus linear systems and the periodic phase of self-timed dataflow.

    At the top of every burst end (``PciBus._finish``) no burst is in flight
    and no run-ahead process runs.  There ``at_burst_end`` takes the
    signature of everything that decides the board's timing, relative to
    ``now`` (``signature``), one flat tuple with each component's fields and
    a word on those that stay out.  The board walks from a burst end to the
    next event by event, and the next burst end closes the *segment* between
    them: its length, what the bus moved for each engine, the trace records,
    the pause and stall windows it met, the kernel's terms at its start and
    the signature where it lands (``Segment``).  ``store`` keeps it under
    the start's signature, or under the signature and the *stall term*
    (where the stall window over the start, or the next one, opens relative
    to it, and its length: ``PciBus.term``) if a window met it.  Keys are
    the signature's hash, taken once per burst end, with the signature
    beside the segment: another signature with the same hash only loses a
    replay.  The store lives as long as the board, starting afresh at
    ``TABLE_LIMIT`` segments.

    Why a segment's landing is a function of its start.  Between register
    writes nothing from outside reaches the board but the stall windows,
    and its timing is max-plus: every event's time is a maximum of sums of
    earlier times and fixed delays (clock periods, the grant latency, a bus
    word), and ties go by insertion order.  Translate a burst end's state
    and the windows by D, with D a whole number of periods of every clock
    that shows there, and every event that follows translates by D, in the
    same order.  The signature holds the whole state up to such a
    translation but for what cannot change what follows: data (addresses,
    words, images, the kernel's identity), logs (trace records, pause
    windows), remaining bytes at or above a cap (below, *caps*) and the
    phase of a quiescent process (below).  So from a burst end with a
    segment's start signature, under the segment's windows translated, the
    same events follow, translated, up to the next burst end, whose state
    is the landing's translated: its signature is the landing's.  Where
    this does not hold, no segment is kept: one that holds a one-time
    action (a job's end, an interrupt, a kernel's activation, a
    configuration's or readback's completion, each through
    ``Device.job_done`` or ``Device._raise``), a register write or a new
    stall window (each forgets the open segment, ``clear``), the payload's
    first byte, its end or the bytes after it (whose times are taken once,
    and whose last word may be short), or a job's short last word; one
    that starts or lands with anything but the processes' slots queued (a
    stall wake included) or with a kernel stepped edge by edge.  One in
    which an engine comes within its cap of its job's end is kept under its
    exact bytes to go (below, caps).

    A replay applies what its segments leave outside the signature, read
    straight from the chain's path (``_replay``): the logs repeated,
    translated, the bursts that end its segments counted by the bus
    (``PciBus.count``), and the data moved, so that each engine's remaining
    bytes and address move on and each buffer comes to the occupancy of the
    replay's end.  Where the chain stops, it lands once (``_land``): each
    component takes its state from the signature there, relative to the new
    ``now``: each engine its request and the burst ending there; the arbiter
    its last grant; the controller its next point and pause, the kernel host
    its next edge, both in the order of their slots; and the kernel its last
    edge, which the chain keeps from the segments it replays.

    A burst end whose signature has a segment, under the stall windows
    translated, replays it (``_chain``), and the signature at its end leads
    to the next segment, all in the same event.  The chain stops at a
    signature with no segment, at a bound, where the windows over [now, now
    + length] (``PciBus.windows``) are not the segment's own translated
    (``lookup``: none for a segment kept without a stall term), or where the
    kernel rule (below) fails.  The bounds: each engine's job stays its cap
    or more from its end, unless the segment was kept under its bytes to go
    (caps), the segment ends by the loop's horizon, and nothing but the
    processes' slots is queued (checked once, at the chain's start, as
    nothing is queued inside it).  Its bytes go through the buffers, the map
    kernel and the configuration image in one slice per engine, replayed
    where it stops or at each ``SLICE_BYTES``.

    A signature that recurs within a chain closes a cycle: the segments
    between form a period, which repeats for as long as the windows do.  So
    the chain jumps the largest number ``n`` of further whole periods after
    which every engine's job is still its cap or more from its end, that
    end by the loop's horizon and that meet the stall windows the first
    period met:

    - a period that met no window needs no window to meet [start, now +
      n * period];
    - one that did needs the windows over [start, now + (n + 1) * period)
      to be those of [start, now) shifted by whole periods
      (``PciBus.stalls_repeat``, one walk over the merged bounds), so that
      every jumped period meets the windows of the first.

    The chain bounds a closed cycle from its path before it replays
    anything (``_periods``): the cycle's length, the bytes it moved and
    whether a window met any of its segments.  A jump is a replay: the
    segments before the period, if any, then the period ``n + 1`` times from
    its first start, its trace records and pause windows repeated, its
    counters scaled and its bytes moved in slices of whole periods.  It ends
    flush on the burst end at ``now + n * period``: each engine's remaining
    bytes are its cap or more there, as at ``now``, so the signature there
    is ``now``'s, the period's end signature.  Its lattice point is stalled
    or not as ``now``'s was, which decides how the burst ending there was
    cut: the gap's bound includes it, and the repeat check covers it with a
    whole period to spare.  The chain then goes on from there, under the
    kernel terms of the period's end (its last edge moved by the jump if the
    kernel had an edge in the period): a period the kernel rule took from
    other terms need not be a whole number of user periods long.

    Caps.  An engine's remaining bytes show only within its cap of its job's
    end (``DmaEngine``); its bytes to go are its remaining bytes less those
    the burst ending now has moved, and ``_left`` gives them less the cap.
    At its cap or more at a segment's start (its field of the signature
    reads the cap), a segment is kept under the signature alone only if the
    engine ends it with its bytes to go still its cap or more, and replayed
    only where they stay so: where no engine whose field reads its cap moves
    more in the segment than its bytes to go (``lookup``, from the
    segment's ``moved`` and the signature), so that in neither run do they
    show.  Below its cap they are in the signature exactly.  The
    controller's remaining bytes are its engine's bytes to go plus four per
    buffered word while it configures, and less four per buffered word in
    readback, 4 * capacity + 8 - 4 * capacity = 8 or more at the engine's
    cap.  So while its engine stays at its cap or more, the controller stays
    ``SelectMapController.CAP`` = 8 bytes or more from its end, at every
    burst end and, as they only fall, in between: short of its last word,
    where a stretch stops, and of its payload's end.

    An engine moves at most one burst in a segment (``DmaEngine``), so one
    whose bytes to go start a burst or more beyond its cap cannot cross it
    there.  One that crosses was *near* its cap: its field reads the cap and
    its ``_left`` is below one burst.  That may be below 0: where the burst
    ending at the start took the engine past its cap, its field still reads
    the cap, as its address counts that burst only once it ends.  The
    segment in which an engine crosses is kept under the start's hash and
    the ``_left`` of each engine near its cap (``_near``), and the stall
    term if a window met it.  With the signature these give each near
    engine's exact remaining bytes, and with its buffer's occupancy the
    controller's, so that the start decides what follows and where it lands.
    A segment found there needs no check: the near engines' bytes to go are
    the key's own, and an engine at its cap but not near has a burst or more
    to go, more than it can move.  ``lookup`` tries that key only where the
    signature alone gives no segment that may replay (a plain segment may
    still replay at a near state, for a job of another length, where the
    check holds).  So a job whose length an earlier job had replays through
    the crossing and its last bursts, while one of another length walks it.
    A segment in which no engine crosses keeps the signature alone as its
    key, even if an engine is near, so that it replays for jobs of any
    length.

    Folding the band into the signature instead, each cap raised by a burst
    and the check dropped, is unsound: a segment that starts at the raised
    cap and ends inside the band lands on a signature, exact there, that
    its start does not determine.  Replayed for a job of another length, it
    lands on the recording job's bytes to go; one such replay moved 64.5
    KiB past an 8 KiB image and raised ``UnmappedAddress``.

    The signature is the whole timing state, also across the host's
    register writes, so that segments outlive them.  Register by register:

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
      (add_const, register 8), and the board keeps no segment while a
      stepped kernel, which may let them steer it, is live.
    - ``irq mask`` sets ``InterruptLine.masked``, which nothing in the event
      loop reads.
    - ``irq cause`` acknowledges causes: ``pending`` is in the signature.

    Inside the loop the kernel changes when a reconfiguration completes:
    its form is in the signature, its identity is data.  The trace records a
    segment replays are the bus's grant, complete and preempt records, which
    name the master and the burst's bytes moved and asked for, and the
    controller's pause and resume records, which name the mode's reason:
    all fixed by the signature, none naming an address, a length or a
    kernel.  The records that do (a job's start and completion, a kernel's
    activation, an interrupt) fall at register writes and one-time actions,
    outside every segment.

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
    show within a segment (or period) at every burst end of which the kernel
    was quiescent:

    - within it the bus lattice, grants and burst sizes do not depend on
      the kernel's phase;
    - the kernel moves one word per edge: word j at
      c_j = max(c_{j-1} + q, edge(a_j)), a_j the time of the bus word that
      makes it movable; by induction c_j lies in [c*_j, c*_j + q) under
      every phase, c*_j = max(c*_{j-1} + q, a_j) being the same for all;
    - asleep at a burst end T, its last move was at T - q or before, which
      under any phase comes before T, and its next waits for a bus word
      after T;
    - so the occupancies at every burst end, the requests pending there and
      their sizes (each set at a threshold crossing) are the same under
      every phase, and the bus never idles inside it, as an asleep kernel
      with no burst in flight raises nothing.

    A kernel that went to sleep on ``now``'s own picosecond is not
    quiescent: a burst whose first word lands on ``now`` (grant latency 0)
    wakes it one edge later than under a phase without that edge.  So the
    *kernel rule* (``_rule``), for a segment and a period alike: it
    replays from ``now`` with kernel terms other than those at its start
    only if the kernel was quiescent at every burst end of it (and so is at
    ``now``); otherwise they must be equal.  The rule reads the signatures
    only: the terms at the start and whether the kernel shows at any burst
    end of it, which is whether its phase field there is set.

    Where a replay lands.  From equal kernel terms the phases are equal, so
    the replay is the segment translated by whole user-clock periods, and it
    lands on the per-burst run's state, kernel host included; so does a
    replay in which the kernel has no edge, which leaves it asleep at its
    last edge.  Any other replay *drifts*: it lands on the
    per-burst run's bus side, but its kernel keeps the phase of the run that
    recorded the segment, its next edge and last edge translated.  By the
    bounds above, the per-burst run's kernel may have slept at another edge,
    less than q from the landing's, or be awake for one edge in (L, L + q)
    that moves nothing, L the landing.  No later step shows this.  The
    kernel's next word waits for a bus word, which comes one grant latency
    after L or later, and a drifting replay is taken only if that latency is
    a user period or more, or the kernel last slept more than a user period
    before ``now`` (so that under every phase it sleeps at L, at an edge
    before L).  So both runs' kernels take that word on the same edge,
    neither on the edge at which it last slept (the one tie
    ``KernelHost._maybe_wake`` settles by the last edge), and are one from
    there on.  Nor is a later replay misled: the kernel rule reads the
    quiescence that each segment's own signatures record, which is the
    same under every phase, and a replay from the drifted terms repeats the
    recording run's history, whose timing is the per-burst run's.
    """

    TABLE_LIMIT = 4096      # segments kept before the store starts afresh

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
        self.store: dict = {}     # key -> (signature, segment), kept for the board's life
        self.snap = None          # the open segment's start: the last burst end walked

    def clear(self) -> None:
        """Forget the open segment: a register write, a one-time action or
        a new stall window falls within it.  The store stays, as each
        segment's signatures and windows cover all that these change."""
        self.snap = None

    def signature(self) -> tuple:
        """The signature at ``now`` (see the class), one flat tuple, and the
        kernel's exact terms."""
        now, dev = self.sim.now, self.device
        ctl, host = dev.controller, dev.kernel_host
        ck, hk = ctl.key, host.key
        job = ctl.job
        # The controller: nothing while idle, when it has no job and its
        # clock cannot show; else its clock's phase, its mode, its next
        # point, its job's remaining bytes up to ``CAP``, its bytes done up
        # to one past the header (whether the payload's first byte has moved,
        # as its time is taken once) and the start of its pause.  Left out:
        # the image, which is data; the pause windows, a log that a replay
        # repeats; and the payload's last time, taken within ``CAP`` of the
        # job's end.
        if job is None:
            sig = [None] * 6
        else:
            rem, done = job.total - job.done, job.done
            sig = [now % ctl.clock.period, ctl.mode is Mode.CONFIGURING, ck and ck[0] - now,
                   rem if rem < ctl.CAP else ctl.CAP,
                   done if done <= HEADER_BYTES else HEADER_BYTES + 1,
                   ctl.pause_start - now if ctl.paused else None]
        # The kernel host: the kernel's form (``KernelHost.form``) and,
        # unless the host is quiescent (asleep since before ``now``, so that
        # its clock cannot show), its next edge relative to ``now`` (None if
        # asleep: it slept on ``now``'s own picosecond) and its phase.  The
        # kernel's identity stays out: a map kernel moves one word in and one
        # out per edge whatever its map, and a sink one in, so which one runs
        # is data (as are its private state and the operand it reads); so
        # does a stepped kernel's, as no segment holds one.  The exact terms
        # are its phase and, while the host sleeps, its last edge relative to
        # ``now``, no earlier than one period and a picosecond back (an older
        # one never shows); None while it is awake, as the next step sets it
        # before anything reads it.
        phase = now % self.user_period
        if hk is not None:
            sig += (host.form, hk[0] - now, phase)
        else:
            sig += (host.form, None, phase if host.last_edge >= now else None)
        # Each engine: its waiting request's size, its remaining bytes up to
        # its ``cap``, and, if the ending burst is its own, that burst's
        # bytes moved and asked for, which also say whether it is done.  The
        # addresses stay out (they say where the bytes go, not when), and so
        # do the job's start and finish times, set at register writes and job
        # ends, outside every segment.
        for e in self.engines:
            request, txn, rem = e.request, e.txn, e.addr.bytes_remaining
            sig += (request and request.total_bytes, rem if rem < e.cap else e.cap,
                    txn and txn.transferred_bytes, txn and txn.total_bytes)
        # The buffers' occupancies (their words are data, and their
        # capacities, marks and listeners are fixed for the board's life);
        # the arbiter's last grant, which decides the next one and is its
        # whole state; the pending interrupts (``masked`` stays out: only
        # ``asserted`` reads it, and nothing in the event loop reads that; a
        # host wait tests ``pending``); and the order of the processes'
        # slots, which decides their ties.
        sig += (dev.down_buf.occupancy, dev.up_buf.occupancy, dev.smap_buf.occupancy,
                dev.arbiter.last_granted, dev.irq.pending, ck and hk and ck[1] < hk[1])
        sig = tuple(sig)
        return sig, self._terms(now, sig, host.last_edge)

    def _terms(self, t: int, sig, last_edge: int) -> tuple:
        """The kernel's exact terms at a burst end at ``t`` with signature
        ``sig``, its last edge at ``last_edge`` (see ``signature``)."""
        q = self.user_period
        if sig[_HOST_KEY] is not None:
            return t % q, None
        return t % q, max(last_edge - t, -q - 1)

    def at_burst_end(self, txn: BusTransaction) -> BusTransaction:
        """Close the open segment at this burst end, replay what follows if
        it is known, and open the next segment where that lands (see the
        class); returns the transaction whose burst ends there."""
        sim, dev = self.sim, self.device
        sig, terms = self.signature()
        h = hash(sig)
        # At a burst end every process with a key has its slot queued.
        if len(sim._heap) != (dev.controller.key is not None) + (dev.kernel_host.key is not None):
            self.snap = None
            return txn
        left = self._left()
        if self.snap is not None:
            self._record(sig, h, left)
        seg = self.lookup(sig, h, sim.now, left)
        if seg is not None:
            txn, sig, h, terms = self._chain(txn, seg, sig, h, terms, left)
            left = self._left()
        trace = dev.trace
        self.snap = (sim.now, sig, h, terms, left, len(trace.records) if trace else 0,
                     len(dev.controller.pause_windows))
        return txn

    def _left(self) -> list:
        """The bytes each engine may still move before its job comes within
        its cap of its end: its remaining bytes less its cap and, for the
        engine whose burst ends now (the one with a ``txn``), the bytes that
        burst has moved."""
        return [e.addr.bytes_remaining - e.cap - (e.txn.transferred_bytes if e.txn else 0)
                for e in self.engines]

    def _record(self, sig, h, left) -> None:
        """Keep the open segment, which ends here, unless it may not be
        replayed (see the class); ``left`` is ``_left`` here."""
        t0, sig0, h0, terms, left0, nrec, nwin = self.snap
        now, bus, dev = self.sim.now, self.bus, self.device
        done = sig0[_CTL_DONE]
        if sig0[_FORM] == "step" or done is not None and (
                done <= HEADER_BYTES < sig[_CTL_DONE] or sig[_CTL_REM] <= _CRC_BYTES):
            return
        moved = [a - b for a, b in zip(left0, left)]
        if (moved[0] | moved[1] | moved[2] | moved[3]) & 3:
            return      # a job's short last word: the job ends where the segment does
        # An engine at its cap at the start (its field reads the cap) that
        # crosses it here was near it: the segment is kept under the bytes to
        # go of the engines near (see the class).
        key = h0
        if any(b < 0 and r == e.cap
               for b, r, e in zip(left, sig0[_ENGINE + 1:_ENGINE + 16:4], self.engines)):
            key = h0, self._near(sig0, left0)
        stalls = bus.windows(t0, now)
        trace, ctl, host = dev.trace, dev.controller, dev.kernel_host
        records = () if trace is None else tuple(
            [(t - t0, c, e, d) for t, c, e, d in trace.records[nrec:]])
        edge = host.last_edge
        store = self.store
        if len(store) >= self.TABLE_LIMIT:
            store.clear()
        store[(key, bus.term(t0)) if stalls else key] = sig0, Segment(
            now - t0, tuple(moved), records,
            tuple([(s - t0, e - t0) for s, e in ctl.pause_windows[nwin:]]), stalls, terms,
            edge - now if edge >= t0 else None, sig, h)

    def lookup(self, sig, h, t, budget):
        """The segment kept for a burst end at ``t`` with signature ``sig``
        (hash ``h``) and bytes to go ``budget`` (``_left`` there) whose stall
        windows are those over [t, t + length], translated, and in which no
        engine at its cap moves more than its bytes to go; failing that, the
        one kept under the bytes to go of the engines near their caps
        (``_near``, see the class); None if there is none."""
        seg = self._find(h, sig, t)
        if seg is not None:
            m, e = seg.moved, self.engines
            if not ((m[0] > budget[0] and sig[_ENGINE + 1] == e[0].cap)
                    or (m[1] > budget[1] and sig[_ENGINE + 5] == e[1].cap)
                    or (m[2] > budget[2] and sig[_ENGINE + 9] == e[2].cap)
                    or (m[3] > budget[3] and sig[_ENGINE + 13] == e[3].cap)):
                return seg
        near = self._near(sig, budget)
        return None if near is None else self._find((h, near), sig, t)

    def _find(self, key, sig, t):
        """The segment kept under ``key`` for a burst end at ``t`` with
        signature ``sig`` whose stall windows are those over [t, t + length],
        translated (see ``lookup``); None if there is none."""
        store, bus = self.store, self.bus
        entry = store.get(key)
        term = bus.term(t)
        # A segment kept without a stall term needs no window to meet [t, t + length].
        if entry is None or entry[0] != sig or term is not None and term[0] <= entry[1].length:
            entry = term and store.get((key, term))
            if (entry is None or entry[0] != sig
                    or bus.windows(t, t + entry[1].length) != entry[1].stalls):
                return None
        return entry[1]

    def _near(self, sig, left):
        """Each engine's bytes to go less its cap (``left``) if it is near its
        cap at a burst end with signature ``sig`` (its field reads the cap,
        and ``left`` is below one burst), else None; None if no engine is
        near."""
        near = tuple([b if b < e.burst and r == e.cap else None
                      for b, r, e in zip(left, sig[_ENGINE + 1:_ENGINE + 16:4], self.engines)])
        return None if near == _FAR else near

    def drift_allowed(self, terms) -> bool:
        """Whether a replay that drifts from the kernel ``terms`` may be
        taken: no step shows the drift, as no bus word reaches the kernel
        within a user period of a burst end, or the kernel last slept more
        than a user period before ``now`` (see the class)."""
        return self.grant_clears or terms[1] < -self.user_period

    def _rule(self, start_terms, stirs: bool, edged: bool, terms) -> bool:
        """The kernel rule, for a segment or a period alike (see the class):
        whether the segments with kernel terms ``start_terms`` at their start,
        in which the kernel shows at a burst end if ``stirs`` and has an edge
        if ``edged``, replay from the kernel ``terms``; a replay that drifts
        (other terms and an edge) only where no step shows the drift.
        ``stirs`` is read off the signatures: the kernel host's phase field
        is set at a segment's start or end (``_chain``), or at a burst end of
        a period, whose first start is its last end (``_periods``).
        ``drift_allowed`` is asked last, so a replay for which it holds is
        taken."""
        return start_terms == terms or not stirs and (not edged or self.drift_allowed(terms))

    def _chain(self, txn, seg: Segment, sig, h, terms, budget):
        """Replay ``seg`` from ``now`` and the segments that follow it while
        their bounds hold, each period they close run whole times, and land
        once where the chain stops (see the class); ``budget`` is ``_left``
        at ``now``, which the chain spends.  Returns the landing's
        transaction, signature, hash and kernel terms."""
        horizon, t = self.sim.horizon, self.sim.now
        last_edge = self.device.kernel_host.last_edge
        # The segments passed since the last replay (start, kernel terms,
        # segment), their bytes, and where in them each signature was passed.
        path, nbytes, seen = [], 0, {}
        while True:
            seen[h] = sig, len(path)
            if (t + seg.length > horizon or seg.terms != terms
                    and not self._rule(seg.terms, sig[_HOST_PHASE] is not None
                                       or seg.sig[_HOST_PHASE] is not None,
                                       seg.edge is not None, terms)):
                break
            path.append((t, terms, seg))
            m = seg.moved
            budget[0] -= m[0]
            budget[1] -= m[1]
            budget[2] -= m[2]
            budget[3] -= m[3]
            nbytes += m[0] + m[1] + m[2] + m[3]
            t += seg.length
            sig, h = seg.sig, seg.key
            if seg.edge is not None:
                last_edge = t + seg.edge
            terms = self._terms(t, sig, last_edge)
            prev = seen.get(h)
            i = prev[1] if prev and prev[0] == sig else None
            n, moved, edged = (0, 0, 0) if i is None else self._periods(path[i:], t, terms, budget)
            if n:
                # Replay the segments before the period, then the period n + 1
                # times from its first start, and go on with its kernel terms.
                start = path[i][0]
                if i:
                    self._replay(path[:i], start)
                self._replay(path[i:], t, n + 1)
                path, nbytes, seen = [], 0, {}
                jump = n * (t - start)
                t += jump
                if edged:
                    last_edge += jump
                terms = self._terms(t, sig, last_edge)
                budget = [b - n * d for b, d in zip(budget, moved)]
            elif nbytes >= SLICE_BYTES:
                self._replay(path, t)
                path, nbytes, seen = [], 0, {}
            seg = self.lookup(sig, h, t, budget)
            if seg is None:
                break
        if path:
            self._replay(path, t)
        if t > self.sim.now:
            txn = self._land(txn, t, sig, last_edge)
        return txn, sig, h, terms

    def _periods(self, cycle, t: int, terms, budget):
        """How many more whole periods of ``cycle``, the chain's segments
        (start, kernel terms, segment) since its signature last passed, up to
        ``t``, the bounds and the kernel rule allow (see the class): each
        engine's job stays its cap or more from its end (``budget``, the
        bytes it may still move), the horizon holds, and the periods meet the
        windows the first one met.  Returns that number, the bytes each
        engine moves in a period and whether the kernel has an edge in it."""
        start, start_terms, _seg = cycle[0]
        length, sim, bus = t - start, self.sim, self.bus
        up = down = rd = wr = 0
        stalls = stirs = edged = False
        for _t, _terms, seg in cycle:
            m = seg.moved
            up, down, rd, wr = up + m[0], down + m[1], rd + m[2], wr + m[3]
            stalls = stalls or seg.stalls
            stirs = stirs or seg.sig[_HOST_PHASE] is not None
            edged = edged or seg.edge is not None
        moved = up, down, rd, wr
        fits = [b // d for b, d in zip(budget, moved) if d]
        if sim.horizon != FOREVER:
            fits.append((sim.horizon - t) // length)
        if stalls:
            # The windows over [start, t + (n + 1) * length) repeat those of [start, t).
            end = t + (min(fits) + 1) * length if fits else FOREVER
            fits.append((bus.stalls_repeat(start, t, end) - t) // length - 1)
        else:
            # No window meets [start, t + n * length].
            term = bus.term(start)
            if term is not None:
                fits.append((start + max(term[0], 0) - 1 - t) // length)
        n = min(fits, default=0)
        return (n if n >= 1 and self._rule(start_terms, stirs, edged, terms) else 0), moved, edged

    def _replay(self, path, end: int, n: int = 1) -> None:
        """Apply all that the segments of ``path`` (start, kernel terms,
        segment), one after the other up to ``end`` and run ``n`` times from
        the first start, leave behind but the state the landing sets (see
        the class): their trace records and pause windows, repeated; the
        bursts that end the segments, counted; and each side's bytes, moved
        through the buffers to the occupancies of the path's end in slices of
        whole runs."""
        dev, bus = self.device, self.bus
        ctl, host, trace = dev.controller, dev.kernel_host, dev.trace
        start = path[0][0]
        runs = range(0, n * (end - start), end - start)
        up = down = rd = wr = 0
        windows = False
        for _t, _terms, seg in path:
            m = seg.moved
            up, down, rd, wr = up + m[0], down + m[1], rd + m[2], wr + m[3]
            windows = windows or seg.windows
        if trace:
            trace.records += [TraceRecord(b + t + r, c, e, d) for b in runs
                              for t, _terms, seg in path for r, c, e, d in seg.records]
        if windows:
            ctl.pause_windows += [(b + t + s, b + t + e) for b in runs
                                  for t, _terms, seg in path for s, e in seg.windows]
        # Each segment ends on the one burst whose end was queued within it.
        bus.count(n * len(path), n * (up + down + rd + wr) >> 2)
        sig = path[-1][2].sig
        for k in period_chunks(n, max(up, down)):
            host.move(k * down, (k * down >> 2) - sig[_DOWN_OCC] + dev.down_buf.occupancy, k * up)
        configuring = ctl.mode is Mode.CONFIGURING
        for k in period_chunks(n, max(rd, wr)):
            grown = 4 * (sig[_SMAP_OCC] - dev.smap_buf.occupancy)
            ctl.move(k * (rd + wr), k * wr - grown if configuring else k * rd + grown)

    def _land(self, txn, t: int, sig, last_edge: int):
        """Bring the board's state from ``now``, a burst end, to the one at
        ``t`` where a chain stops, from its signature ``sig`` and the kernel's
        last edge; the chain's replays have moved the bytes, counted the
        bursts and repeated the logs (see the class).  Returns the transaction
        whose burst ends there."""
        dev, sim = self.device, self.sim
        ctl, host = dev.controller, dev.kernel_host
        for i, e in enumerate(self.engines):
            j = _ENGINE + 4 * i
            e.land(sig[j], sig[j + 2], sig[j + 3])
            if sig[j + 3]:
                txn = e.txn
        dev.arbiter.last_granted = sig[_GRANT]
        host.last_edge = last_edge
        sim.now = t
        # The processes' slots, numbered afresh in their order.
        sim._heap.clear()
        ctl.key = host.key = None
        if ctl.job is not None:
            ctl.paused = sig[_CTL_PAUSE] is not None
            if ctl.paused:
                ctl.pause_start = t + sig[_CTL_PAUSE]
        slots = ((ctl, sig[_CTL_KEY]), (host, sig[_HOST_KEY]))
        for p, at in (slots if sig[_ORDER] is not False else slots[::-1]):
            if at is not None:
                p.key = (t + at, sim.alloc())
                sim.schedule_reserved(*p.key, p._run)
        return txn


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

        self.down_buf.on_dequeue(lambda: self.evaluate(TargetId.DOWNSTREAM))
        self.up_buf.on_enqueue(lambda: self.evaluate(TargetId.UPSTREAM))
        self.smap_buf.on_dequeue(lambda: self.evaluate(TargetId.SELECTMAP_WRITE))
        self.smap_buf.on_enqueue(lambda: self.evaluate(TargetId.SELECTMAP_READ))

        world.bus.set_master(self._next_transaction)
        self.steady = SteadyState(self)
        world.bus.on_burst_end = self.steady.at_burst_end
        world.bus.on_stall = self.steady.clear

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
        self.steady.clear()
        if not self.engines[target].busy and self.controller.mode is not PORT_MODE.get(target):
            self._raise(JOB_DONE_CAUSE[target])

    def _raise(self, cause: IrqCause) -> None:
        self.steady.clear()
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
        return engine.grant(txn)


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
