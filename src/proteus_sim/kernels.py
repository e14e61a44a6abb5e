"""Behavioral stream kernels standing in for synthesized logic.

A partial bitstream carries a kernel id; applying it instantiates the
bound kernel behind the bus-macro interface.  A kernel sees exactly one
cycle-sized port view per user-clock edge: at most one word in, one word
out, the shared registers (writable only at kernel indices), and an
interrupt request line.  Nothing else of the device is reachable.

A kernel may also declare the *map form*, a synchronous-dataflow rate of
one word in and one word out per edge (Lee & Messerschmitt, 1987):
``map_words(io, data) -> data`` promises that ``step`` is exactly
``if io.in_available and io.out_space: io.write(f(io.read()))`` with
private state only, no register write and no interrupt, and returns f of
each word in order.  Words go in and come out as ``bytes``, four
little-endian bytes per word, the format of the stream buffers: identity
returns its input, negate is one big-int XOR, and add_const and fir4
add big ints with a 64-bit lane per word (the constant's lanes, or the
window's three words shifted down), which no 32-bit sum carries out of.  A *consume-only* kernel
(``consume_only = True``, as ``SinkKernel``) drops the ``out_space`` test
and returns no words.  A one-word firing is the map applied to one word,
so the built-ins and ``SinkKernel`` define ``map_words`` only and inherit
that ``step`` from ``MapKernel``; ``add_const`` reads register 8 once per
call, which the host writes only between events.  With the map form the
kernel host moves whole stretches of words in closed form instead of
stepping the kernel edge by edge; a kernel without it is stepped on every
edge.

Every kernel sleeps after an edge on which it moves no word, and only a
downstream enqueue or an upstream dequeue wakes it, at the next edge.  A
kernel that idles for an edge while it still holds work (a rate divider,
a pipeline that drains) is therefore never stepped again, and the board
deadlocks: a kernel must move a word on every edge on which it can.
"""

from __future__ import annotations

import struct

from .fixed_part import KERNEL_REGS, REG_STATUS, RegisterFile, StreamBuffer
from .sim import FOREVER, RunAhead


class DuplicateId(Exception):
    pass


class KernelAccessViolation(Exception):
    pass


class PortIO:
    """One user-clock cycle's view through the bus-macro signal interface."""

    def __init__(self, down: StreamBuffer, up: StreamBuffer, regs: RegisterFile,
                 raise_irq) -> None:
        self._down = down
        self._up = up
        self._regs = regs
        self._raise_irq = raise_irq
        self.consumed = 0
        self.produced = 0

    @property
    def in_available(self) -> int:
        return self._down.occupancy

    @property
    def out_space(self) -> int:
        return self._up.free_words

    def read(self) -> int | None:
        if self.consumed:
            raise KernelAccessViolation("one downstream word per cycle")
        if self._down.occupancy == 0:
            return None
        self.consumed = 1
        return self._down.pop()

    def write(self, word: int) -> None:
        if self.produced:
            raise KernelAccessViolation("one upstream word per cycle")
        self.produced = 1
        self._up.push(word)

    def reg_read(self, index: int) -> int:
        return self._regs.read(index)

    def reg_write(self, index: int, value: int) -> None:
        if index not in KERNEL_REGS:
            raise KernelAccessViolation(f"kernel may only write registers "
                                        f"{KERNEL_REGS.start}..{KERNEL_REGS.stop - 1}")
        self._regs.write(index, value)

    def request_interrupt(self) -> None:
        self._raise_irq()


_WORD = struct.Struct("<I")


def _lanes(data: bytes) -> int:
    """The words of ``data`` as one int with a 64-bit lane per word, the
    first lowest: a sum of a few such ints keeps every lane's carries in it."""
    wide = bytearray(2 * len(data))
    memoryview(wide).cast("I")[::2] = memoryview(data).cast("I")
    return int.from_bytes(wide, "little")


def _low_words(x: int, lanes: int) -> bytes:
    """The low 32 bits of the first ``lanes`` 64-bit lanes of ``x`` (which
    has no more), as words."""
    return memoryview(x.to_bytes(8 * lanes, "little")).cast("I")[::2].tobytes()


class MapKernel:
    """Base of the kernels in map form: ``step`` is ``map_words`` applied to
    the one word an edge can move."""

    consume_only = False

    def step(self, io: PortIO) -> None:
        if io.in_available and (self.consume_only or io.out_space):
            for (word,) in _WORD.iter_unpack(self.map_words(io, _WORD.pack(io.read()))):
                io.write(word)


class IdentityKernel(MapKernel):
    name = "identity"

    def map_words(self, io: PortIO, data: bytes) -> bytes:
        return data


class NegateKernel(MapKernel):
    name = "negate"

    def map_words(self, io: PortIO, data: bytes) -> bytes:
        n = len(data)
        return (int.from_bytes(data, "little") ^ ((1 << 8 * n) - 1)).to_bytes(n, "little")


class AddConstKernel(MapKernel):
    """Adds register 8 (wrapping 32-bit) to every word."""

    name = "add_const"

    def map_words(self, io: PortIO, data: bytes) -> bytes:
        k = io.reg_read(8)   # only the host writes it, and never inside a stretch
        n = len(data) >> 2
        return _low_words(_lanes(data) + int.from_bytes(k.to_bytes(8, "little") * n, "little"), n)


class Fir4Kernel(MapKernel):
    """Sliding sum of the current and previous three inputs, wrapping."""

    name = "fir4"

    def __init__(self) -> None:
        self._taps = bytes(12)      # the last three input words, oldest first

    def map_words(self, io: PortIO, data: bytes) -> bytes:
        # Lane i of the taps and words, plus the three lanes above it, is
        # output word i.
        src = self._taps + data
        self._taps = src[-12:]
        x = _lanes(src)
        return _low_words(x + (x >> 64) + (x >> 128) + (x >> 192), len(src) >> 2)[:len(data)]


BUILTIN_KERNELS = {
    k.name: k for k in (IdentityKernel, NegateKernel, AddConstKernel, Fir4Kernel)
}


class SinkKernel(MapKernel):
    """Consumes one word per cycle and produces nothing: a load that keeps
    the downstream bus busy.  Bound from Python only, not a scenario built-in."""

    name = "sink"
    consume_only = True

    def map_words(self, io: PortIO, data: bytes) -> bytes:
        return b""


class KernelRegistry:
    """kernel_id -> factory map with at most one live kernel instance."""

    def __init__(self) -> None:
        self._factories: dict[int, tuple[str, object]] = {}
        self.active = None

    def bind(self, kernel_id: int, behavior) -> None:
        """Register a behavior (built-in name or zero-arg factory) for an id."""
        if kernel_id in self._factories:
            raise DuplicateId(f"kernel id {kernel_id:#x} already bound")
        if isinstance(behavior, str):
            factory = BUILTIN_KERNELS[behavior]
            name = behavior
        else:
            factory = behavior
            name = getattr(behavior, "name", getattr(behavior, "__name__", "custom"))
        self._factories[kernel_id] = (name, factory)

    def activate(self, kernel_id: int) -> str | None:
        """Replace the live kernel; returns its name, or None if the id is
        unknown and the region is left inert."""
        self.active = None
        entry = self._factories.get(kernel_id)
        if entry is None:
            return None
        name, factory = entry
        self.active = factory()
        return name


class KernelHost(RunAhead):
    """Steps the live kernel on user-clock edges while it can make progress.

    After a cycle that moves no word the host sleeps; a downstream enqueue or
    an upstream dequeue wakes it at the next user-clock edge (one period
    later if that edge has just been stepped).  Edges are not queued one by
    one: as a ``RunAhead`` process, one event steps the kernel on consecutive
    edges and, while asleep, settles the bus's lazy word stream until a word
    wakes it.  Besides before the next queued event and past the loop's
    horizon, it also hands control back right after the kernel raises an
    interrupt, so a host waiting for one sees it at the same ps.

    A kernel in map form is not stepped edge by edge either: through the
    ``feed`` (the bus side of the two buffers, wired by the board) a point
    runs a whole *stretch* of edges and bus words in closed form (see
    ``_stretch``).  Boundaries and other kernels go edge by edge.
    """

    def __init__(self, sim, domain, down: StreamBuffer, up: StreamBuffer,
                 regs: RegisterFile, raise_irq, feed, trace=None) -> None:
        self.sim = sim
        self.domain = domain
        self.down = down
        self.up = up
        self.regs = regs
        self.feed = feed
        self.registry = KernelRegistry()
        self.trace = trace
        self._raise_irq = raise_irq
        self._io = PortIO(down, up, regs, self._request_irq)
        self._raised = False
        self.last_edge = -1
        # How the live kernel's timing goes, set with it and read by ``point``,
        # ``_stretch`` and ``board.SteadyState.signature``: None if inert,
        # "map" in map form, "sink" in map form with unbounded room
        # (consume-only), "step" stepped edge by edge.
        self.form = None
        down.on_enqueue(self._maybe_wake)
        up.on_dequeue(self._maybe_wake)

    def activate_from_config(self, bs) -> None:
        """Activate the image's kernel; ``REG_STATUS`` reads its id, or 0 if
        the region is inert."""
        name = self.registry.activate(bs.kernel_id)
        kernel = self.registry.active
        self.form = (None if kernel is None else "step" if not hasattr(kernel, "map_words")
                     else "sink" if getattr(kernel, "consume_only", False) else "map")
        self.regs.write(REG_STATUS, 0 if name is None else bs.kernel_id)
        if self.trace:
            self.trace.record("kernel", "activate",
                              "inert" if name is None else f"{name} {bs.kernel_id:#x}")
        self._maybe_wake()

    def state(self) -> str:
        """Inert, awake, or asleep and why, for messages."""
        if self.registry.active is None:
            return "inert"
        if self.key is not None:
            return f"awake, next edge at {self.key[0]} ps"
        if not self.down.occupancy:
            return "asleep: downstream empty"
        if not self.up.free_words:
            return "asleep: upstream full"
        return "asleep"

    def _request_irq(self) -> None:
        self._raised = True
        self._raise_irq()

    def _maybe_wake(self) -> None:
        if not (self.key is None and self.registry.active is not None and self.down.occupancy > 0):
            return
        t = self.domain.next_edge_at(self.sim.now)
        if t == self.last_edge:
            t += self.domain.period
        self.wake(t)

    def _run(self) -> None:
        self.run_ahead()

    def point(self) -> bool:
        """Step the kernel on the edge at ``key``, or run the stretch from it."""
        sim = self.sim
        io = self._io
        t = self.key[0]
        sim.now = self.last_edge = t
        kernel = self.registry.active
        if self.form != "step" and self._stretch(t, kernel):
            return True
        nxt = (t + self.domain.period, sim.alloc())   # a clock edge numbers the next before stepping
        self._raised = False
        io.consumed = io.produced = 0
        kernel.step(io)
        self.key = nxt if io.consumed or io.produced else None
        return not self._raised

    def move(self, nin: int, taken: int, nout: int) -> None:
        """Take ``nin`` bytes from the downstream engine into its buffer, pass
        ``taken`` words from there through the map kernel into the upstream
        buffer, and give ``nout`` bytes from there to the upstream engine,
        each as one slice (see ``board.SteadyState``)."""
        data = self.down.exchange(self.feed.into.take(nin), taken)
        out = memoryview(self.registry.active.map_words(self._io, data)) if taken else b""
        self.feed.out_of.give(self.up.exchange(out, nout >> 2))

    def _stretch(self, t: int, kernel) -> bool:
        """Run the map kernel's edges from ``t`` and the burst's words that
        fall between them in closed form; False (nothing run) if that would
        cover the edge at ``t`` alone.

        The stretch covers every edge and bus word before ``end``: the
        feed's (the first queued event or the loop's horizon, the burst's
        last word), the edge after the last word it can move with no burst
        in flight, and the edge whose word would take an idle engine's
        buffer out of its quiet band.
        Inside it only the two lattices touch the buffers, and one burst
        moves words one way, so the kernel is a queue with a
        periodic input: word j leaves at c(j) = max(t + j*q, the first edge
        after the bus word that makes it movable), the downstream arrival or
        the upstream room it waits for.  Edges that find the downstream
        buffer empty or the upstream one full only put the kernel to sleep
        until the next such bus word, so they need no count; the state at
        ``end`` (awake on an edge, or asleep) follows from the last word
        moved.  Each lattice numbers its next item once, at the end, in the
        order of the moments it would have been numbered.  At a tie the bus
        word goes first (``edge(s)`` includes s), except in the upstream-full
        pattern with q longer than the bus period: there the word before has
        already woken the kernel for that edge, so this one wakes it again.
        The key and last edge a stretch leaves are the only absolute times it
        keeps; a chain of replays, jumps over whole periods included, sets
        both where it lands, from the signature and the segments it ran.
        """
        sim = self.sim
        down, up = self.down, self.up
        d0, u0 = down.occupancy, up.occupancy
        room = FOREVER if self.form == "sink" else up.capacity - u0
        q = self.domain.period
        stream = sim.stream
        if stream is None:
            if not (d0 and room) or sim.reach() < t + q:
                return False        # the edge at t alone
        elif stream.key[0] == t:
            return False            # a bus word on this very edge
        window = self.feed.window()
        if window is None:
            return False
        burst, tb, p, count, end = window
        edge = self.domain.next_edge_at
        to_device = burst is not None and burst.to_device
        if burst is None:
            jmax, j0 = min(d0, room), FOREVER
            end = min(end, t + (jmax + 1) * q)       # past the edge that finds nothing
        elif to_device:     # word j >= d0 waits for bus word j - d0
            jmax, j0 = min(room, d0 + count), d0
        else:               # word j >= room waits for the room bus word j - room frees
            jmax, j0 = min(d0, room + count), room
        # Kernel words the idle engines' quiet bands allow: the downstream
        # buffer only drains unless its burst moves, the upstream one only
        # fills unless its burst moves or the kernel produces nothing.
        cap = FOREVER
        if not to_device:
            cap = d0 - self.feed.lo()
        if room != FOREVER and (burst is None or to_device):
            cap = min(cap, self.feed.hi() - u0)

        def leaves(j):
            """The edge that moves word j (j < jmax)."""
            c = t + j * q
            if j >= j0:
                c = max(c, edge(tb + (j - j0) * p) if q <= p else edge(tb) + (j - j0) * q)
            return c

        if cap < jmax:
            end = min(end, leaves(max(cap, 0)))
        nb = min(count, max(0, -(-(end - tb) // p))) if burst is not None else 0
        if not nb and end <= t + q:
            return False
        nk = min(jmax, -(-(end - t) // q))
        if nk > j0:         # words from j0 on also need their bus word's edge before end
            if q <= p:
                e_end = (end - 1) // q * q      # the last edge before end
                nk = min(nk, j0 + ((e_end - tb) // p + 1 if e_end >= tb else 0))
            else:
                nk = min(nk, j0 + max(0, -(-(end - edge(tb)) // q)))

        c_last = leaves(nk - 1) if nk else t - q
        a_last = tb + (nb - 1) * p if nb else -1
        key = c_last + q
        early = False       # the kernel's next edge was numbered before the burst's next word
        if key >= end:      # awake: numbered at the edge that moved the last word
            last = c_last
            early = c_last < a_last
        else:               # the edge at ``key`` found nothing to move: asleep
            last, key = key, None
            if to_device and nk == room:
                # Upstream full: each bus word wakes the kernel for one more such
                # edge; with q > p, one on an edge comes after it (see above).
                if a_last >= last:
                    e = edge(a_last)
                    if e == a_last and q > p:
                        e += q
                    if e < end:
                        last = e
                    else:
                        key, early = e, True
            elif burst is not None and nk < (room if to_device else d0):
                s = tb + (nk - j0) * p      # the bus word that lets word nk move
                if s < end:
                    key, early = edge(s), True

        if key is not None and early:
            self.key = (key, sim.alloc())
        taken = down.exchange(burst.advance_many(nb) if to_device and nb else b"", nk)
        out = kernel.map_words(self._io, taken)
        if burst is not None and not to_device:
            out = up.exchange(out, nb)
            if nb:
                burst.advance_many(nb, out)
        elif out:
            up.exchange(out, 0)
        if key is None:
            self.key = None
        elif not early:
            self.key = (key, sim.alloc())
        sim.now = max(last, a_last)
        self.last_edge = last      # read only while asleep
        return True
