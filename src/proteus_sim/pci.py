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
burst's end (DONE or PREEMPTED) is a queued event.  One word goes to the
master's ``word_sink`` or comes from its ``word_source`` as an int.  A
master that also sets ``run_sink``/``run_source`` takes or gives a *quiet
run*, the next words that nothing on its side observes one at a time, as
one slice of bytes: the loop moves such a run in one item.  The burst
counts its words; the transaction's ``transferred_bytes`` and the bus's
``total_data_cycles`` are set from that count when the end is queued.

Stall windows are kept sorted by start, with the running maximum of their
ends, so that ``stall_clear_time`` finds the end of a chain by bisection.

A burst's end is also where the master may find a steady state and jump
whole periods of it (``on_burst_end``, ``repeat``; see
``board.SteadyState``): then the bus's counters grow by whole periods.
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


@dataclass
class BusTransaction:
    master_id: str
    direction: Direction
    start_address: int
    total_bytes: int
    word_sink: object = None    # fn(word, nbytes), TO_DEVICE
    word_source: object = None  # fn(nbytes) -> word, TO_HOST
    run_sink: object = None     # fn(data) -> words of it taken, TO_DEVICE, optional
    run_source: object = None   # fn(count) -> bytes of at most count words, TO_HOST, optional
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
        self.busy_ticks = 0
        self.total_data_cycles = 0
        self._stalls: list[tuple[int, int]] = []  # sorted (start, end)
        self._stall_reach: list[int] = []         # _stall_reach[i]: max end of _stalls[:i + 1]
        self._next_stalled = (0, 0)               # (t, next_stalled(t)), see there
        self._master_fetch = None
        self._wake_pending = False
        self._burst_start = 0
        # The master's: fn(txn, state) at the top of every burst end.
        self.on_burst_end = None

    # -- stalls --------------------------------------------------------------

    def inject_stall(self, start: int, duration: int) -> None:
        """Add a stall window; the words a granted burst has not moved yet are
        cut again against it."""
        if duration <= 0:
            raise ValueError("stall duration must be > 0")
        self._next_stalled = (0, 0)
        window = (start, start + duration)
        i = bisect.bisect_right(self._stalls, window)
        self._stalls.insert(i, window)
        reach = self._stall_reach
        del reach[i:]
        high = reach[-1] if reach else start
        for _start, stop in self._stalls[i:]:
            high = max(high, stop)
            reach.append(high)
        if self.sim.stream is not None:     # the burst whose words are still moving
            self.sim.stream.cut()

    def stalled_at(self, t: int) -> bool:
        i = bisect.bisect_right(self._stalls, (t, ADDRESS_SPACE << 32))
        return i > 0 and self._stalls[i - 1][1] > t

    def stall_clear_time(self, t: int) -> int:
        """End of the merged chain of stall windows covering time t: the
        least end >= t past which every window that opens at or before it
        has closed."""
        end = t
        while True:
            i = bisect.bisect_right(self._stalls, (end, ADDRESS_SPACE << 32))
            if not i or self._stall_reach[i - 1] <= end:
                return end
            end = self._stall_reach[i - 1]

    def next_stalled(self, t: int):
        """The first time at or after ``t`` inside a stall window (FOREVER if
        none).  The answer for ``t`` holds for every time from ``t`` up to
        it until a window is added, so it is kept for them."""
        lo, hi = self._next_stalled
        if lo <= t < hi:
            return hi
        i = bisect.bisect_right(self._stalls, (t, ADDRESS_SPACE << 32))
        if i and self._stall_reach[i - 1] > t:
            hi = t
        else:
            hi = self._stalls[i][0] if i < len(self._stalls) else FOREVER
        self._next_stalled = (t, hi)
        return hi

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
        self._burst_start = self.sim.now
        if self.trace:
            self.trace.record("pci", "grant", txn.master_id)
        first = self.sim.now + self.config.grant_latency_cycles * self.config.clock_period
        _Burst(self, txn, buf, off, first)
        return txn

    def _first_stalled(self, first: int, count: int) -> int:
        """Index of the first of ``count`` lattice words from ``first`` at which
        ``stalled_at`` holds, or ``count`` if none does.

        ``stalled_at(t)`` consults the last window opening at or before t, so
        window i governs [start_i, next start) and stalls [start_i, min(end_i,
        next start)).
        """
        stalls = self._stalls
        period = self.config.clock_period
        last = first + (count - 1) * period
        i = max(bisect.bisect_right(stalls, (first, ADDRESS_SPACE << 32)) - 1, 0)
        while i < len(stalls):
            start, stop = stalls[i]
            if start > last:
                break
            i += 1
            if i < len(stalls) and stalls[i][0] < stop:
                stop = stalls[i][0]
            lo = max(start, first)
            if lo < stop:
                k = -(-(lo - first) // period)
                if first + k * period < stop:
                    return min(k, count)
        return count

    def _finish(self, txn, state):
        """End the burst of ``txn``.  First the master may jump whole periods
        of a steady state (``on_burst_end``), which moves ``now`` on: here no
        burst is in flight and no run-ahead process runs."""
        if self.on_burst_end is not None:
            self.on_burst_end(txn, state)
        t = self.sim.now
        txn.state = state
        self.busy = False
        self.busy_ticks += t - self._burst_start
        if self.trace:
            self.trace.record("pci", "complete" if state is TxnState.DONE else "preempt",
                              f"{txn.master_id} {txn.transferred_bytes}/{txn.total_bytes}B")
        if txn.on_finish is not None:
            txn.on_finish(txn)
        self.poke()

    def repeat(self, n: int, period: int, busy_ticks: int, data_cycles: int) -> None:
        """Count ``n`` more periods of ``period`` ps, each busy ``busy_ticks``
        and ``data_cycles`` words long, and move the ending burst's start on."""
        self.busy_ticks += n * busy_ticks
        self.total_data_cycles += n * data_cycles
        self._burst_start += n * period


class _Burst:
    """The word lattice of one granted transaction, as a lazy stream.

    ``key`` is the (time, insertion number) of the next word and ``index``
    the number of words moved; ``advance`` moves that word, or the quiet
    run that starts with it.  The first word's number is taken at the
    grant, and each later one right after the word before it, where the
    per-word event would have been scheduled.  After the last word the
    burst queues its end in the next lattice point's slot: DONE, PREEMPTED
    at the burst limit, or PREEMPTED because that point is stalled.  Stall
    windows added later cut only words not moved yet; they do not undo a
    stalled end that is already queued.  A device-bound burst holds the
    words it has still to move, from word ``base`` on, in ``data``.
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

    def advance(self, until) -> None:
        """Move the next word, or the quiet run that starts with it: the
        words, before the burst's last and keyed before ``until``, that the
        master takes as one slice."""
        t = self.key[0]
        count = self.end - self.index - 1
        if count > 0 and until != FOREVER:
            count = min(count, -(-(until - t) // self.period))
        if count > 0 and self._quiet_run(count):
            return
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

    def _quiet_run(self, count: int) -> bool:
        """Move the next words, at most ``count``, that the master takes as
        one quiet run; False if it takes none (or takes no runs)."""
        txn = self.txn
        if self.to_device:
            if txn.run_sink is None:
                return False
            pos = 4 * (self.index - self.base)
            n = txn.run_sink(self.data[pos:pos + 4 * count])
        else:
            if txn.run_source is None:
                return False
            data = txn.run_source(count)
            n = len(data) >> 2
            pos = self.off + 4 * self.index
            memoryview(self.buf)[pos:pos + 4 * n] = data
        if not n:
            return False
        t = self.key[0]
        self.sim.now = t + (n - 1) * self.period
        self.index += n
        self.key = (t + n * self.period, self.sim.alloc())
        return True

    def _queue_end(self) -> None:
        """Count the moved words into the transaction and the bus, and queue
        the burst's end in the slot of the next lattice point."""
        bus, txn, sim = self.bus, self.txn, self.sim
        sim.stream = None
        txn.transferred_bytes = min(4 * self.index, txn.total_bytes)
        bus.total_data_cycles += self.index
        t, seq = self.key
        if self.end < self.limit:
            state = TxnState.PREEMPTED     # the lattice point t is stalled
        elif txn.transferred_bytes >= txn.total_bytes:
            state = TxnState.DONE
        else:
            state = TxnState.PREEMPTED     # burst limit
        sim.schedule_reserved(t, seq, lambda: bus._finish(txn, state))
