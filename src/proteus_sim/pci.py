"""Timed model of host RAM and the shared 33 MHz/32-bit PCI bus.

One bus master (the board) moves 4 bytes per bus cycle between page-locked
host regions and on-chip buffers.  Host CPU contention appears only as
stall windows, during which no data cycles occur and active bursts are
preempted; a preempted job is resumed by its owner from the next address.

A ``BusTransaction`` is the one record of a transfer: the master's request
is a WAITING transaction, and a granted one is a burst.  ``begin_burst``
computes its word lattice ``first + k * clock_period`` in closed form and
cuts it at the first word that falls in a stall window, or at the burst
limit; the words of a device-bound burst are copied from host memory
then, once, into a snapshot that only the burst holds.  The board's
fill-status logic never requests more than the limit (``max_burst_cycles``
words), but a master that asks for a whole transfer at once, as the restart
test of acceptance criterion 5 does, relies on the bus to cut it there and
resumes from the next address.

The words then reach the master one per bus cycle as items of a lazy
stream (see ``sim``): each runs at its cycle's picosecond and in the
same-time order that a queued per-word event would have had, but only the
burst's end (DONE or PREEMPTED) is a queued event.  Each item is one word,
which goes to the master's ``word_sink`` or comes from its ``word_source``
as an int.  The burst counts its words; when its end is queued, the
transaction's ``transferred_bytes`` are set from that count, and the bus
counts the burst (``count``): one data cycle per word in
``total_data_cycles``, and in ``busy_ticks`` the ps from its grant to its
end, the grant latency plus one cycle per word.  So a burst counts from
when its end is queued, before its end runs: between the two a reader sees
the burst counted whole, and at idle both counters are exact.

Stall windows compose as a union: a time is stalled if any window covers
it.  The bus keeps the union as one sorted list of the bounds of disjoint
windows, touching ones merged, so that every stall query is one bisection,
except ``windows`` and ``stalls_repeat``, each one walk from a bisection.
The bus itself asks whether a time is stalled (``stalled_at``), when that
stall clears (``stall_clear_time``) and where a burst's lattice first meets
a window (``windows``).  The master keys and checks what it has seen by
three of them:

- ``term``, where the window over a time, or the next, opens relative to
  that time, and its length: one bisection that says whether a span from
  there is stall-free, keys a span that a window meets, and gives the first
  stalled picosecond, ``t + max(term[0], 0)``;
- ``windows``, the windows over a span relative to its start, which a
  replay's span must match;
- ``stalls_repeat``, how long the windows repeat with a period.

A burst's end is also where the master may replay what it has seen its
board do from there, up to a later burst end, and jump whole periods of it
(``on_burst_end``; see ``board.SteadyState``): then ``now`` moves on, the
master counts the bursts the replay ended through the same ``count``, from
the words they moved, and another transaction's burst may end there.  A
jump may cross stall windows only where they repeat (``stalls_repeat``),
and the master hears of every window added (``on_stall``).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from enum import Enum

from .sim import FOREVER, Simulator

PCI_CLOCK_PERIOD = 30303  # ps; 4 bytes per cycle reproduces the 132 MB/s peak
PAGE_ALIGN = 4096
ADDRESS_SPACE = 2**32

_WORD = struct.Struct("<I")


class PciError(Exception):
    pass


class OutOfAddressSpace(PciError):
    pass


class UnmappedAddress(PciError):
    pass


class HostMemory:
    """Map of non-overlapping, page-aligned shared regions at or above
    ``base``, keyed by base; the bases are also kept sorted, so that a new
    region takes the lowest gap that fits and ``locate`` bisects."""

    def __init__(self, base: int = 0x0010_0000) -> None:
        self._floor = base
        self._bases: list[int] = []
        self._regions: dict[int, bytearray] = {}

    def map_shared_region(self, nbytes: int) -> tuple[bytearray, int]:
        """Map a zeroed region of ``nbytes`` at the lowest page-aligned
        address where it fits; returns (its buffer, its base)."""
        if nbytes <= 0:
            raise ValueError("region size must be > 0")
        base = -(-self._floor // PAGE_ALIGN) * PAGE_ALIGN
        for start in self._bases:
            if base + nbytes <= start:
                break
            base = max(base, -(-(start + len(self._regions[start])) // PAGE_ALIGN) * PAGE_ALIGN)
        if base + nbytes > ADDRESS_SPACE:
            raise OutOfAddressSpace(f"cannot fit {nbytes} bytes at {base:#x}")
        bisect.insort(self._bases, base)
        buf = self._regions[base] = bytearray(nbytes)
        return buf, base

    def unmap(self, base: int) -> None:
        """Drop the region that starts at ``base``; its addresses may be
        mapped again."""
        if self._regions.pop(base, None) is None:
            raise UnmappedAddress(f"no region starts at {base:#x}")
        del self._bases[bisect.bisect_left(self._bases, base)]

    def locate(self, address: int, nbytes: int) -> tuple[bytearray, int]:
        """Resolve an address span to (backing buffer, offset)."""
        i = bisect.bisect_right(self._bases, address)
        if i:
            base = self._bases[i - 1]
            buf = self._regions[base]
            if address + nbytes <= base + len(buf):
                return buf, address - base
        raise UnmappedAddress(f"{nbytes} bytes at {address:#x} not inside any region")

    def write(self, address: int, data: bytes) -> None:
        self.view(address, len(data))[:] = data

    def view(self, address: int, nbytes: int) -> memoryview:
        """The span as a view of its region, for a caller that copies or
        reads it before it returns; regions are never resized."""
        buf, off = self.locate(address, nbytes)
        return memoryview(buf)[off:off + nbytes]

    def read(self, address: int, nbytes: int) -> bytes:
        return bytes(self.view(address, nbytes))


@dataclass
class PciConfig:
    clock_period: int = PCI_CLOCK_PERIOD
    grant_latency_cycles: int = 8
    max_burst_cycles: int = 4096


class Direction(Enum):
    TO_DEVICE = "to_device"
    TO_HOST = "to_host"


class TxnState(Enum):
    WAITING = "waiting"
    BURSTING = "bursting"
    PREEMPTED = "preempted"
    DONE = "done"


@dataclass(slots=True)
class BusTransaction:
    master_id: str
    direction: Direction
    start_address: int
    total_bytes: int
    word_sink: object = None    # fn(word, nbytes), TO_DEVICE
    word_source: object = None  # fn(nbytes) -> word, TO_HOST
    on_finish: object = None    # fn(txn), called when DONE or PREEMPTED
    transferred_bytes: int = 0  # set when the burst's end is queued
    state: TxnState = TxnState.WAITING


class PciBus:
    """Single-master burst engine with grant latency, burst limit, stalls."""

    def __init__(self, sim: Simulator, host_mem: HostMemory, config: PciConfig | None = None,
                 trace=None) -> None:
        self.sim = sim
        self.host = host_mem
        self.config = config or PciConfig()
        self.trace = trace
        self.busy = False
        # Written only by ``count``: a burst counts from when its end is queued.
        self.busy_ticks = 0
        self.total_data_cycles = 0
        self._stalls: list[int] = []  # [start0, end0, start1, end1, ...] of disjoint windows
        self._master_fetch = None
        self._wake_pending = False
        # The master's: fn(txn) -> txn at the top of every burst end, and
        # fn() after every window added.
        self.on_burst_end = None
        self.on_stall = None

    # -- stalls --------------------------------------------------------------

    def inject_stall(self, start: int, duration: int) -> None:
        """Add the window [start, start + duration) to the union; the words a
        granted burst has not moved yet are cut again against it."""
        if duration <= 0:
            raise ValueError("stall duration must be > 0")
        bounds, stop = self._stalls, start + duration
        # Bounds at even positions open a window, at odd ones close it.  The
        # new window swallows the bounds within it, touching ones included,
        # and keeps each of its own that falls outside the union.
        i = bisect.bisect_left(bounds, start)
        j = bisect.bisect_right(bounds, stop)
        bounds[i:j] = ([] if i & 1 else [start]) + ([] if j & 1 else [stop])
        if self.on_stall is not None:
            self.on_stall()
        if self.sim.stream is not None:     # the burst whose words are still moving
            self.sim.stream.cut()

    def stalled_at(self, t: int) -> bool:
        return bisect.bisect_right(self._stalls, t) & 1 == 1

    def stall_clear_time(self, t: int) -> int:
        """The least time >= t that no window covers."""
        i = bisect.bisect_right(self._stalls, t)
        return self._stalls[i] if i & 1 else t

    def windows(self, t: int, end: int) -> tuple:
        """The windows over [t, end], each clipped to that span, as (start,
        stop) relative to ``t``."""
        bounds = self._stalls
        i = bisect.bisect_right(bounds, t) & ~1     # the window over t, or the next
        out = []
        while i < len(bounds) and bounds[i] <= end:
            out.append((max(bounds[i], t) - t, min(bounds[i + 1], end + 1) - t))
            i += 2
        return tuple(out)

    def term(self, t: int):
        """Where the window over ``t``, or the next one, opens relative to
        ``t``, and its length; None if there is none."""
        bounds = self._stalls
        i = bisect.bisect_right(bounds, t) & ~1
        return (bounds[i] - t, bounds[i + 1] - bounds[i]) if i < len(bounds) else None

    def stalls_repeat(self, t0: int, t: int, end):
        """The first time from ``t`` on at which the stall windows stop
        repeating those ``t - t0`` earlier, or ``end`` if that comes first:
        one walk over the bounds from ``t`` on, each compared with the one
        ``k`` places back, ``k`` the number of bounds in (t0, t]."""
        bounds, period = self._stalls, t - t0
        j = bisect.bisect_right(bounds, t)
        k = j - bisect.bisect_right(bounds, t0)
        if k & 1:       # stalled at one of t0 and t only
            return t
        while True:
            ahead = bounds[j] if j < len(bounds) else FOREVER
            shifted = bounds[j - k] + period if j - k < len(bounds) else FOREVER
            if ahead != shifted or ahead >= end:
                return min(ahead, shifted, end)
            j += 1

    # -- counters --------------------------------------------------------------

    def count(self, bursts: int, words: int) -> None:
        """Count ``bursts`` bursts that move ``words`` words in all: each is
        busy from its grant to its end, the grant latency and one cycle per
        word, and each word is a data cycle."""
        cfg = self.config
        self.busy_ticks += (bursts * cfg.grant_latency_cycles + words) * cfg.clock_period
        self.total_data_cycles += words

    # -- master hookup ---------------------------------------------------------

    def set_master(self, fetch) -> None:
        """fetch() -> BusTransaction | None, consulted whenever the bus idles."""
        self._master_fetch = fetch

    def poke(self) -> None:
        """Grant the bus to the master's next transaction if possible."""
        if self.busy or self._master_fetch is None:
            return
        now = self.sim.now
        if self.stalled_at(now):
            self._schedule_wake(self.stall_clear_time(now))
            return
        txn = self._master_fetch()
        if txn is not None:
            self.begin_burst(txn)

    def _schedule_wake(self, t: int) -> None:
        if self._wake_pending:
            return
        self._wake_pending = True

        def wake():
            self._wake_pending = False
            self.poke()

        self.sim.schedule_at(t, wake)

    # -- bursts ----------------------------------------------------------------

    def begin_burst(self, txn: BusTransaction) -> BusTransaction:
        """Start a granted burst; the bus must be idle and unstalled."""
        assert not self.busy, "bus already granted"
        assert txn.state is TxnState.WAITING
        buf, off = self.host.locate(txn.start_address, txn.total_bytes)
        self.busy = True
        txn.state = TxnState.BURSTING
        if self.trace:
            self.trace.record("pci", "grant", txn.master_id)
        first = self.sim.now + self.config.grant_latency_cycles * self.config.clock_period
        _Burst(self, txn, buf, off, first)
        return txn

    def _first_stalled(self, first: int, count: int) -> int:
        """Index of the first of ``count`` lattice words from ``first`` at which
        ``stalled_at`` holds, or ``count`` if none does."""
        period = self.config.clock_period
        for start, stop in self.windows(first, first + (count - 1) * period):
            k = -(-start // period)
            if k * period < stop:
                return k
        return count

    def _finish(self, txn):
        """End the burst of ``txn``: DONE if it moved all its bytes, else
        PREEMPTED (at the burst limit, or at a stalled lattice point).  First
        the master may move ``now`` on over stretches of its timeline it has
        seen before (``on_burst_end``, which returns the transaction whose
        burst ends where it lands): here no burst is in flight and no
        run-ahead process runs."""
        if self.on_burst_end is not None:
            txn = self.on_burst_end(txn)
        state = TxnState.DONE if txn.transferred_bytes >= txn.total_bytes else TxnState.PREEMPTED
        txn.state = state
        self.busy = False
        if self.trace:
            self.trace.record("pci", "complete" if state is TxnState.DONE else "preempt",
                              f"{txn.master_id} {txn.transferred_bytes}/{txn.total_bytes}B")
        if txn.on_finish is not None:
            txn.on_finish(txn)
        self.poke()


class _Burst:
    """The word lattice of one granted transaction, as a lazy stream.

    ``key`` is the (time, insertion number) of the next word and ``index``
    the number of words moved; ``advance`` moves that word.  The first
    word's number is taken at the grant, and each later one right after the
    word before it, where the per-word event would have been scheduled.
    After the last word the burst queues its end in the next lattice point's
    slot: DONE, PREEMPTED at the burst limit, or PREEMPTED because that point
    is stalled.  Stall windows added later cut only words not moved yet; a
    stalled end that is already queued stays stalled, as a window only adds
    to the union.  A device-bound burst holds the words it has still to
    move, from word ``base`` on, in ``data``.
    """

    __slots__ = ("bus", "sim", "txn", "buf", "off", "key", "period", "data", "base", "index",
                 "end", "limit", "to_device")

    def __init__(self, bus: PciBus, txn: BusTransaction, buf, off: int, first: int) -> None:
        self.bus = bus
        self.sim = bus.sim
        self.txn = txn
        self.buf = buf
        self.off = off
        self.period = bus.config.clock_period
        self.to_device = txn.direction is Direction.TO_DEVICE
        self.key = (first, self.sim.alloc())
        self.index = 0
        self.limit = min(-(-txn.total_bytes // 4), bus.config.max_burst_cycles)
        self.sim.stream = self
        self.cut()

    def cut(self) -> None:
        """(Re)compute where the words not moved yet stop, from the stalls;
        a device-bound burst reads them from host memory now."""
        self.end = self.index + self.bus._first_stalled(self.key[0], self.limit - self.index)
        if self.end == self.index:
            self._queue_end()
        elif self.to_device:
            # The transaction's last word may be short: its missing bytes read as 0.
            lo = self.off + 4 * self.index
            hi = min(self.off + 4 * self.end, self.off + self.txn.total_bytes)
            data = self.buf[lo:hi]
            data += bytes(4 * (self.end - self.index) - len(data))
            self.data = memoryview(data)
            self.base = self.index

    def lattice(self) -> tuple[int, int, int]:
        """(time of the next word, period, words before the burst's last):
        those words may move in one ``advance_many``."""
        return self.key[0], self.period, self.end - self.index - 1

    def advance_many(self, count: int, data=None):
        """Move the next ``count`` words, none of them the burst's last, in one
        call: a device-bound burst returns them, a slice of its snapshot; a
        host-bound one writes ``data`` (4 bytes per word).  The next word's
        insertion number is taken once, now."""
        assert 0 < count < self.end - self.index
        pos = 4 * self.index
        if self.to_device:
            pos -= 4 * self.base
            data = self.data[pos:pos + 4 * count]
        else:
            assert len(data) == 4 * count
            pos += self.off
            memoryview(self.buf)[pos:pos + 4 * count] = data
        self.index += count
        self.key = (self.key[0] + count * self.period, self.sim.alloc())
        return data

    def advance(self) -> None:
        """Move the next word."""
        t = self.key[0]
        txn = self.txn
        self.sim.now = t
        done = 4 * self.index
        n = txn.total_bytes - done
        if n > 4:
            n = 4
        if self.to_device:
            txn.word_sink(_WORD.unpack_from(self.data, done - 4 * self.base)[0], n)
        else:
            word = txn.word_source(n)
            pos = self.off + done
            if n == 4:
                _WORD.pack_into(self.buf, pos, word & 0xFFFFFFFF)
            else:
                self.buf[pos:pos + n] = (word & ((1 << (8 * n)) - 1)).to_bytes(n, "little")
        self.index += 1
        self.key = (t + self.period, self.sim.alloc())
        if self.index == self.end:
            self._queue_end()

    def _queue_end(self) -> None:
        """Count the moved words into the transaction and the bus, and queue
        the burst's end in the slot of the next lattice point: it ends before
        the burst limit only at a stalled point, with bytes still to move."""
        bus, txn, sim = self.bus, self.txn, self.sim
        sim.stream = None
        txn.transferred_bytes = min(4 * self.index, txn.total_bytes)
        bus.count(1, self.index)
        t, seq = self.key
        sim.schedule_reserved(t, seq, lambda: bus._finish(txn))
