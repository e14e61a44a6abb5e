"""Behavioral stream kernels standing in for synthesized logic.

A partial bitstream carries a kernel id; applying it instantiates the
bound kernel behind the bus-macro interface.  A kernel sees exactly one
cycle-sized port view per user-clock edge: at most one word in, one word
out, the shared registers (writable only at kernel indices), and an
interrupt request line.  Nothing else of the device is reachable.
"""

from __future__ import annotations

from .fixed_part import KERNEL_REGS, RegisterFile, StreamBuffer
from .sim import RunAhead


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


class IdentityKernel:
    name = "identity"

    def step(self, io: PortIO) -> None:
        if io.in_available and io.out_space:
            io.write(io.read())


class NegateKernel:
    name = "negate"

    def step(self, io: PortIO) -> None:
        if io.in_available and io.out_space:
            io.write(~io.read() & 0xFFFFFFFF)


class AddConstKernel:
    """Adds register 8 (wrapping 32-bit) to every word."""

    name = "add_const"

    def step(self, io: PortIO) -> None:
        if io.in_available and io.out_space:
            io.write((io.read() + io.reg_read(8)) & 0xFFFFFFFF)


class Fir4Kernel:
    """Sliding sum of the current and previous three inputs, wrapping."""

    name = "fir4"

    def __init__(self) -> None:
        self._taps = [0, 0, 0]

    def step(self, io: PortIO) -> None:
        if io.in_available and io.out_space:
            word = io.read()
            io.write((word + sum(self._taps)) & 0xFFFFFFFF)
            self._taps = [word] + self._taps[:2]


BUILTIN_KERNELS = {
    k.name: k for k in (IdentityKernel, NegateKernel, AddConstKernel, Fir4Kernel)
}


class SinkKernel:
    """Consumes one word per cycle and produces nothing: a load that keeps
    the downstream bus busy.  Bound from Python only, not a scenario built-in."""

    name = "sink"

    def step(self, io: PortIO) -> None:
        if io.in_available:
            io.read()


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
    """

    def __init__(self, sim, domain, down: StreamBuffer, up: StreamBuffer,
                 regs: RegisterFile, raise_irq, trace=None) -> None:
        self.sim = sim
        self.domain = domain
        self.down = down
        self.up = up
        self.regs = regs
        self.registry = KernelRegistry()
        self.trace = trace
        self._raise_irq = raise_irq
        self._io = PortIO(down, up, regs, self._request_irq)
        self._raised = False
        self._last_edge = -1
        down.on_enqueue(self._maybe_wake)
        up.on_dequeue(self._maybe_wake)

    def activate_from_config(self, bs) -> None:
        """Activate the image's kernel; ``REG_STATUS`` reads its id, or 0 if
        the region is inert."""
        from .fixed_part import REG_STATUS

        name = self.registry.activate(bs.kernel_id)
        self.regs.write(REG_STATUS, 0 if name is None else bs.kernel_id)
        if self.trace:
            self.trace.record("kernel", "activate",
                              "inert" if name is None else f"{name} {bs.kernel_id:#x}")
        self._maybe_wake()

    def _request_irq(self) -> None:
        self._raised = True
        self._raise_irq()

    def _maybe_wake(self) -> None:
        if self.key is not None or self.registry.active is None or self.down.occupancy == 0:
            return
        t = self.domain.next_edge_at(self.sim.now)
        if t == self._last_edge:
            t += self.domain.period
        self.wake(t)

    def _run(self) -> None:
        self.run_ahead()

    def point(self) -> bool:
        """Step the kernel on the edge at ``key``."""
        sim = self.sim
        io = self._io
        t = self.key[0]
        sim.now = self._last_edge = t
        nxt = (t + self.domain.period, sim.alloc())   # a clock edge numbers the next before stepping
        self._raised = False
        io.consumed = io.produced = 0
        self.registry.active.step(io)
        self.key = nxt if io.consumed or io.produced else None
        return not self._raised
