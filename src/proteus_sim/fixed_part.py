"""Fixed-part building blocks: stream buffers, transfer arbitration,
busmaster address bookkeeping, the register file, and interrupt logic.

These are the pieces of on-chip logic loaded at boot.  They are kept as
plain state machines and decision functions; the timed wiring to the bus
and clocks lives in the board module.

A stream buffer holds its words as bytes, four little-endian bytes per
word in one ``bytearray``, the format in which they come from and go to
host memory and the configuration image.  ``push`` and ``pop`` move one
word as an int and notify the listeners; ``exchange`` moves runs of words
as ``bytes`` slices and notifies nobody, copying each byte of a run once.
A chain of replayed burst-end segments moves its words through a buffer
in slices of at most about ``SLICE_BYTES``, and a period run whole times in
slices of whole periods (``period_chunks``), so that no slice grows with
the job.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum, IntFlag

from .pci import BusTransaction, Direction


class TargetId(Enum):
    UPSTREAM = "upstream"
    DOWNSTREAM = "downstream"
    SELECTMAP_READ = "selectmap_read"
    SELECTMAP_WRITE = "selectmap_write"

    __hash__ = object.__hash__   # members are singletons; skips Enum's hash of the name


ARBITRATION_ORDER = (TargetId.UPSTREAM, TargetId.DOWNSTREAM,
                     TargetId.SELECTMAP_READ, TargetId.SELECTMAP_WRITE)

HOST_BOUND = frozenset({TargetId.UPSTREAM, TargetId.SELECTMAP_READ})

# Each target's bus master id, looked up once: ``Enum.value`` is a property.
MASTER_ID = {t: t.value for t in TargetId}

_WORD = struct.Struct("<I")


# The bytes one slice of a replay moves through a buffer, at most (or one period).
SLICE_BYTES = 1 << 16


def period_chunks(n: int, nbytes: int):
    """Split ``n`` periods that each move ``nbytes`` into runs of whole
    periods of at most ``SLICE_BYTES`` (at least one period each); yields
    their period counts."""
    k = max(1, SLICE_BYTES // max(nbytes, 1))
    for i in range(0, n, k):
        yield min(k, n - i)


class BufferOverflow(Exception):
    pass


class BufferUnderflow(Exception):
    pass


class BadIndex(Exception):
    pass


@dataclass
class ArbiterState:
    last_granted: TargetId | None = None


# The order in which targets are tried, for each last grant: the fixed
# cyclic order from just after it.
_ROTATION = {None: ARBITRATION_ORDER}
_ROTATION.update((t, ARBITRATION_ORDER[i + 1:] + ARBITRATION_ORDER[:i + 1])
                 for i, t in enumerate(ARBITRATION_ORDER))


def arbitrate(state: ArbiterState, pending) -> TargetId:
    """Pick the next bus user among pending targets.

    Ties go to the fixed cyclic order starting just after the last grant,
    so the last-granted target comes last: it never wins twice in a row
    while other requests are pending.
    """
    for candidate in _ROTATION[state.last_granted]:
        if candidate in pending:
            state.last_granted = candidate
            return candidate
    raise ValueError("arbitrate requires at least one pending target")


class StreamBuffer:
    """Dual-port 256x32 FIFO bridging two clock domains.

    Port discipline (one word per cycle per side) is owned by the callers;
    the buffer enforces capacity and FIFO order and notifies listeners on
    every enqueue/dequeue so fill-status logic can react.  ``occupancy``,
    the words held, is kept up to date by every move.
    """

    def __init__(self, capacity: int = 256, fill_low: int = 64, fill_high: int = 192,
                 name: str = "") -> None:
        if not 0 < fill_low <= fill_high <= capacity:
            raise ValueError("thresholds must satisfy 0 < low <= high <= capacity")
        self.capacity = capacity
        self.fill_low = fill_low
        self.fill_high = fill_high
        self.name = name
        self.occupancy = 0
        self._data = bytearray()    # 4 little-endian bytes per word, oldest first
        self._enqueue_listeners: list = []
        self._dequeue_listeners: list = []

    @property
    def free_words(self) -> int:
        return self.capacity - self.occupancy

    def on_enqueue(self, fn) -> None:
        self._enqueue_listeners.append(fn)

    def on_dequeue(self, fn) -> None:
        self._dequeue_listeners.append(fn)

    def push(self, word: int) -> None:
        if self.occupancy >= self.capacity:
            raise BufferOverflow(f"{self.name or 'buffer'} full at {self.capacity} words")
        self._data += _WORD.pack(word & 0xFFFFFFFF)
        self.occupancy += 1
        for fn in self._enqueue_listeners:
            fn()

    def pop(self) -> int:
        data = self._data
        if not data:
            raise BufferUnderflow(f"{self.name or 'buffer'} empty")
        word = _WORD.unpack_from(data)[0]
        del data[:4]
        self.occupancy -= 1
        for fn in self._dequeue_listeners:
            fn()
        return word

    def exchange(self, data, count: int) -> bytes:
        """Enqueue the words of ``data`` (bytes-like, 4 bytes per word) and
        dequeue ``count`` words, returned as bytes, as interleaved pushes
        and pops that never find the buffer empty or full would; no listener
        is notified.

        The words of ``data`` that leave again go straight to the result,
        one copy, and only the rest is stored; ``data`` is sliced, so a
        long run comes as a memoryview."""
        buf = self._data
        n = 4 * count
        k = n - len(buf)        # the bytes of ``data`` that leave again
        if k > len(data):
            raise BufferUnderflow(f"{self.name or 'buffer'} empty")
        if len(data) - k > 4 * self.capacity:
            raise BufferOverflow(f"{self.name or 'buffer'} full at {self.capacity} words")
        if k <= 0:
            out = bytes(buf[:n])
            del buf[:n]
            buf += data
        else:
            out = b"".join((buf, data[:k]))
            del buf[:]
            buf += data[k:]
        self.occupancy = len(buf) >> 2
        return out


@dataclass
class DmaAddressState:
    """Busmaster address provider state for one target's job: the next
    address and the bytes left, advanced once per burst by the bytes it
    moved."""

    next_address: int = 0
    bytes_remaining: int = 0

    def load(self, base: int, total: int) -> None:
        self.next_address = base
        self.bytes_remaining = total

    def advance(self, nbytes: int) -> None:
        self.next_address += nbytes
        self.bytes_remaining -= nbytes


def on_fill_status(target: TargetId, buffer: StreamBuffer, addr: DmaAddressState,
                   max_burst_bytes: int) -> BusTransaction | None:
    """Transfer-event trigger from a buffer's fill status: the request, as a
    waiting transaction, or None.

    Device-bound targets refill once the buffer drains to the low mark;
    host-bound targets drain once it reaches the high mark, or flush the
    tail when the whole remainder of the job is already buffered.
    """
    if addr.bytes_remaining <= 0:
        return None
    if target in HOST_BOUND:
        occ = buffer.occupancy
        if occ >= buffer.fill_high or (occ > 0 and occ * 4 >= addr.bytes_remaining):
            n = min(occ * 4, addr.bytes_remaining, max_burst_bytes)
            return BusTransaction(MASTER_ID[target], Direction.TO_HOST, addr.next_address, n)
    else:
        if buffer.occupancy <= buffer.fill_low:
            n = min(buffer.free_words * 4, addr.bytes_remaining, max_burst_bytes)
            if n > 0:
                return BusTransaction(MASTER_ID[target], Direction.TO_DEVICE,
                                      addr.next_address, n)
    return None


def quiet_band(target: TargetId, buffer: StreamBuffer, addr: DmaAddressState) -> tuple[int, int]:
    """The occupancies (lo, hi), both included, at which ``on_fill_status``
    returns None for this job state.

    A device-bound target is quiet above the low mark and when the buffer
    is full; a host-bound one below the high mark and below the words that
    would hold the whole remainder.  Leaving the band by one word, downwards
    for a device-bound target and upwards for a host-bound one, gives a
    request.
    """
    if addr.bytes_remaining <= 0:
        return 0, buffer.capacity
    if target in HOST_BOUND:
        return 0, min(buffer.fill_high, -(-addr.bytes_remaining // 4)) - 1
    return min(buffer.fill_low + 1, buffer.capacity), buffer.capacity


def busmaster_resume(addr: DmaAddressState, target: TargetId, txn: BusTransaction,
                     buffer: StreamBuffer, max_burst_bytes: int) -> BusTransaction:
    """Restart a preempted transfer at the next address (``addr`` has
    advanced past it)."""
    remainder = txn.total_bytes - txn.transferred_bytes
    if target in HOST_BOUND:
        space = buffer.occupancy * 4
    else:
        space = buffer.free_words * 4
    n = min(remainder, space, max_burst_bytes)
    assert n > 0, "resume with nothing left to move"
    return BusTransaction(txn.master_id, txn.direction, addr.next_address, n)


class RegisterFile:
    """16 x 32-bit registers shared between the host and the kernel."""

    SIZE = 16

    def __init__(self) -> None:
        self._regs = [0] * self.SIZE

    def read(self, index: int) -> int:
        self._check(index)
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        self._check(index)
        self._regs[index] = value & 0xFFFFFFFF

    def _check(self, index: int) -> None:
        if not 0 <= index < self.SIZE:
            raise BadIndex(f"register index {index} outside 0..{self.SIZE - 1}")


# Device register map (word offsets in the PCI window).
REG_DOWN_BASE = 0
REG_DOWN_LEN = 1
REG_UP_BASE = 2
REG_UP_LEN = 3
REG_CFG_BASE = 4
REG_CFG_LEN = 5
REG_CONTROL = 6
REG_STATUS = 7
KERNEL_REGS = range(8, 14)
REG_IRQ_MASK = 14
REG_IRQ_CAUSE = 15

CTRL_START_DOWN = 1 << 0
CTRL_START_UP = 1 << 1
CTRL_START_RECONFIG = 1 << 2
CTRL_START_READBACK = 1 << 3


class IrqCause(IntFlag):
    RECONFIG_DONE = 1 << 0
    READBACK_DONE = 1 << 1
    UPSTREAM_DONE = 1 << 2
    DOWNSTREAM_DONE = 1 << 3
    KERNEL_REQUEST = 1 << 4


class InterruptLine:
    """Cause set with mask; asserted while any unmasked cause is pending.
    ``pending`` is a plain int, which the host driver's wait loop tests on
    every step; the register window reads and acknowledges it as
    ``IrqCause`` bits."""

    def __init__(self, on_event=None) -> None:
        self.pending = 0
        self.masked = IrqCause(0)
        self.raised = 0
        self._on_event = on_event

    @property
    def asserted(self) -> bool:
        return bool(self.pending & ~int(self.masked))

    def raise_(self, cause: IrqCause) -> None:
        self.pending |= int(cause)
        self.raised += 1
        if self._on_event is not None:
            self._on_event("raise", cause)

    def acknowledge(self, cause: IrqCause) -> None:
        self.pending &= ~int(cause)
        if self._on_event is not None:
            self._on_event("ack", cause)
