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
a signature of all its timing-visible state relative to ``now`` that
recurs.  The whole periods that the bounds allow then move at once: the
engines' addresses and the processes' keys shift, the counters scale, the
period's trace records and pause windows repeat, and the periods' bytes go
through the buffers, the map kernel and the configuration image as slices.

A simulation that can go no further raises ``Deadlock``, naming the busy
engines, the stream buffers' occupancies and the kernel host's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

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


# The interrupt a bus engine raises when its job is done; a reconfiguration
# is done when the controller has applied the image, not when its bus job ends.
JOB_DONE_CAUSE = {
    TargetId.DOWNSTREAM: IrqCause.DOWNSTREAM_DONE,
    TargetId.UPSTREAM: IrqCause.UPSTREAM_DONE,
    TargetId.SELECTMAP_READ: IrqCause.READBACK_DONE,
}


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
    bytes it moved.  Nothing reads it while a transaction is granted."""

    def __init__(self, device: "Device", target: TargetId, buffer: StreamBuffer) -> None:
        self.device = device
        self.target = target
        self.buffer = buffer
        self.addr = DmaAddressState()
        self.request = None
        self.txn = None
        self.on_job_done = None
        self.started_at: int | None = None
        self.finished_at: int | None = None
        # Set by the device: fn() -> True if a word this engine moves now
        # wakes the process on the buffer's other side.
        self.wakes = None

    @property
    def busy(self) -> bool:
        return self.addr.active or self.request is not None or self.txn is not None

    def band(self) -> tuple[int, int]:
        """The buffer occupancies (lo, hi), both included, at which a word
        moved by the other side of the buffer makes this engine request
        nothing: ``quiet_band`` while it is idle, any while a transaction
        waits or moves."""
        if self.txn is None and self.request is None:
            return quiet_band(self.target, self.buffer, self.addr)
        return 0, self.buffer.capacity

    def start(self, base: int, total: int, on_job_done=None) -> None:
        """Start a job the device has checked (``Device._control``)."""
        self.addr.load(base, total)
        self.on_job_done = on_job_done
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
        elif self.addr.active:
            self.device.evaluate(self.target)
        else:
            self.finished_at = self.device.sim.now
            done, self.on_job_done = self.on_job_done, None
            if done is not None:
                done()


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


class SteadyState:
    """Finds a steady state at burst ends and jumps whole periods of it, as
    in the cyclicity of max-plus linear systems and the periodic phase of
    self-timed dataflow.

    At the top of every burst end (``PciBus._finish``) no burst is in flight
    and no run-ahead process runs.  There ``at_burst_end`` takes the
    signature of everything that decides the board's timing, relative to
    ``now``: the phases of the clocks of the processes that are not
    quiescent (see below), the buffers' occupancies, each engine's
    waiting request and remaining bytes (at most ``cap``, above which the
    fill status, flushes, short words and job ends cannot show), the
    arbiter, the ending transaction (only its engine has one granted), each
    process's next point and the order of their slots, the kernel host's
    last edge while it can still matter, the controller's mode, pause,
    remaining bytes and whether its payload has begun (the time of its first
    byte is taken once), the pending stall wake and the pending interrupts.
    Its ``table`` maps each signature to a snapshot of the time, the bus's
    busy time, the engines' addresses, the controller's pause windows, the
    trace records and the kernel's exact phase and last edge; and, while
    stall windows lie ahead, each pair of phases as the signature takes them
    to the last burst end that had it.  The rest of a period follows from
    these: the controller moves what its engine moves, as the
    buffer's occupancy is in the signature, and the bus moves the words of
    all four engines, as a recurring period holds only full words.

    When a signature recurs, the period between the two repeats exactly for
    as long as nothing from outside meets it.  So ``_jump`` moves the
    largest number ``n`` of whole periods for which one more period would
    still keep every engine's job ``cap`` bytes from its end (the
    controller's job moves with its engine), meet no stall window (from the
    period's start on) and end by the loop's horizon.  It refuses if the
    kernel is neither inert nor in map form, or if anything but the
    processes' slots is queued (a pending stall wake never passes the stall
    bound).  No period raises an interrupt: a job's end changes its
    engine's remaining bytes or the controller's mode, and only kernels
    without the map form request one.  The table is cleared on every
    register write (``Device.host_reg_write``, through which every job
    starts) and after a jump, so that no one-time action falls inside a
    period.  A stall window added later needs no clear: every jump stops
    short of the first stalled time from its period's start on, measured
    when it jumps, and the phase entries only choose where signatures are
    taken.

    A process is *quiescent* at a burst end if its clock cannot show there:
    the controller when it is idle (it then has no next point), the kernel
    host when its kernel is inert or asleep since before ``now``.  Its phase
    (and the kernel host's last edge) then leaves the signature, so that a
    stream,
    whose critical circuit is the bus while the kernel has slack, recurs
    with the bus's own period instead of the clocks' common multiple, as a
    max-plus system repeats with the period of its critical circuit
    (Baccelli, Cohen, Olsder and Quadrat, *Synchronization and Linearity*,
    1992).  An idle controller stays idle until a register write starts a
    job, which clears the table, so its phase never shows.  The kernel's
    phase does not show within a period at every burst end of which the
    kernel was quiescent (``stirred`` is the last burst end at which it was
    not):

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
    wakes it one edge later than under a phase without that edge.  A match
    whose kernel phase or last edge differs from the snapshot's jumps only
    if ``stirred`` comes before the snapshot; otherwise it must be exact.
    """

    TABLE_LIMIT = 4096      # entries kept before the table starts afresh

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.sim = device.sim
        self.bus = device.world.bus
        cfg = device.config
        self.cap = 4 * cfg.buffer_capacity + 8
        self.cfg_period = cfg.cfg_clock_period
        self.user_period = cfg.user_clock_period
        self.engines = tuple(device.engines.values())
        self.table: dict = {}
        self.stirred = -1     # the last burst end at which the kernel was awake

    def at_burst_end(self, txn: BusTransaction, state: TxnState) -> None:
        """Record this burst end's signature, or jump from its recurrence.

        A jump needs two more periods before the next stall window, and a
        period lasts at least since the last burst end with the same clock
        phases, which are part of the signature (the table keeps that burst
        end too); no signature is taken where that leaves no room.  So with
        stall windows ahead a signature is taken only once its phases recur,
        one period later than without.  Both leave out the phase of a
        quiescent process (see the class), so that a stream beside an idle
        controller and a sleeping kernel recurs with the period of its
        bursts."""
        bus, now, table = self.bus, self.sim.now, self.table
        if len(table) >= self.TABLE_LIMIT:
            table.clear()
        dev, cap = self.device, self.cap
        ctl, host = dev.controller, dev.kernel_host
        ck, hk = ctl.key, host.key
        # The kernel's exact phase and last edge.
        terms = (now % self.user_period, max(host._last_edge - now, -self.user_period - 1))
        asleep = hk is None and terms[1] < 0
        if not asleep:
            self.stirred = now
        phase = (None if ctl.mode is Mode.IDLE else now % self.cfg_period,
                 None if asleep else terms[0])
        room = bus.next_stalled(now) - now
        if room != FOREVER:
            seen, table[phase] = table.get(phase), now
            if seen is None or 2 * (now - seen) >= room:
                return
        job = ctl._job
        up, down, rd, wr = self.engines
        sig = (*phase, dev.down_buf.occupancy, dev.up_buf.occupancy, dev.smap_buf.occupancy,
               up.request and up.request.total_bytes, min(up.addr.bytes_remaining, cap),
               down.request and down.request.total_bytes, min(down.addr.bytes_remaining, cap),
               rd.request and rd.request.total_bytes, min(rd.addr.bytes_remaining, cap),
               wr.request and wr.request.total_bytes, min(wr.addr.bytes_remaining, cap),
               dev.arbiter.last_granted, txn.master_id, txn.transferred_bytes, txn.total_bytes,
               state is TxnState.DONE,
               hk and hk[0] - now, None if asleep else terms[1],
               ctl.mode is Mode.CONFIGURING, ctl.paused, ck and ck[0] - now,
               job and min(job.total - job.done, cap), job and min(job.done, bits.HEADER_BYTES),
               ctl.paused and ctl._pause_start - now, ck and hk and ck[1] < hk[1],
               bus._wake_pending, dev.irq.pending)
        snap = table.get(sig)
        # The kernel's phase may differ only if it slept at every burst end since.
        if (snap is not None and (snap[-1] == terms or self.stirred < snap[0])
                and self._jump(snap, now)):
            table.clear()
            return
        trace = dev.trace
        table[sig] = (now, bus.busy_ticks, up.addr.next_address, down.addr.next_address,
                      rd.addr.next_address, wr.addr.next_address, len(ctl.pause_windows),
                      len(trace.records) if trace else 0, terms)

    def _jump(self, snap, now: int) -> bool:
        """Move as many whole periods since ``snap`` as the bounds allow;
        False if none."""
        t0, busy, *addrs, windows, records, _terms = snap
        dev, sim, bus = self.device, self.sim, self.bus
        ctl, host = dev.controller, dev.kernel_host
        kernel = dev.registry.active
        if not (kernel is None or hasattr(kernel, "map_words")):
            return False
        keys = sorted(p.key for p in (ctl, host) if p.key is not None)
        if sorted(entry[:2] for entry in sim._heap) != keys:
            return False
        period = now - t0
        moved = [e.addr.next_address - a for e, a in zip(self.engines, addrs)]
        # n + 1 periods from now: each engine's job stays cap bytes from its
        # end, no stall window meets [t0, now + (n + 1) * period], the
        # horizon holds.
        fits = [(e.addr.bytes_remaining - (e.txn.transferred_bytes if e.txn else 0) - self.cap) // d
                for e, d in zip(self.engines, moved) if d]
        for limit in (bus.next_stalled(t0) - 1, sim.horizon):
            if limit != FOREVER:
                fits.append((limit - now) // period)
        n = min(fits, default=0) - 1
        if n < 1:
            return False
        host.jump(n, period, moved[1], moved[0])
        ctl.jump(n, period, moved[3] if ctl.mode is Mode.CONFIGURING else moved[2],
                 ctl.pause_windows[windows:])
        bus.repeat(n, period, bus.busy_ticks - busy, sum(moved) // 4)
        trace = dev.trace
        if trace:
            recs = trace.records[records:]
            trace.records += [TraceRecord(r.time + j * period, r.component, r.event, r.detail)
                              for j in range(1, n + 1) for r in recs]
        sim.shift(n * period)
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
        self.steady.table.clear()
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
            cause = JOB_DONE_CAUSE.get(target)
            self.engines[target].start(
                base, total, on_job_done=None if cause is None else partial(self._raise, cause))

    def _reconfig_done(self, bs, result) -> None:
        self.last_config = result
        self.kernel_host.activate_from_config(bs)
        self._raise(IrqCause.RECONFIG_DONE)

    def _readback_done(self, result) -> None:
        self.last_readback = result

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

    @property
    def max_burst_bytes(self) -> int:
        return self.config.pci.max_burst_cycles * 4

    def evaluate(self, target: TargetId) -> None:
        """Re-run the fill-status trigger for one target's control section."""
        engine = self.engines[target]
        if engine.txn is None and engine.request is None and engine.addr.active:
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
