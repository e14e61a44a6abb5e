"""Configuration controller bridging the buffered 32-bit stream to the
byte-wide configuration port.

Writes consume one byte per configuration-clock cycle, a word leaving the
buffer every four cycles; when the buffer runs dry the controller pauses
(the configuration clock is gated: no byte moves) and resumes on the next
enqueued word.
Readback runs the same engine in reverse.  Flash boot bypasses the bus
and loads a full image at a fixed byte rate.

Port words are not queued one by one: the controller is a ``RunAhead``
process (see ``sim``), so one event moves consecutive words, settles the
bus's words in between, and, while paused, the bus word that resumes it.
Only the points where the bus timeline interleaves with it (a queued burst
end, the loop's horizon) cost an event.

Nor are they moved one by one: with a ``feed`` (the bus side of the
buffer, wired by the board, which also says where any stretch must end)
a point moves a whole *stretch* of words in closed form (see
``_stretch``).  Boundaries, and a controller without a feed, go word by
word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import bitstream as bits
from .fixed_part import StreamBuffer, period_chunks
from .sim import FOREVER, ClockDomain, RunAhead, Simulator


class SelectMapError(Exception):
    pass


class NotIdle(SelectMapError):
    pass


class ChecksumMismatch(SelectMapError):
    pass


class Mode(Enum):
    IDLE = "idle"
    CONFIGURING = "configuring"
    READBACK = "readback"


@dataclass
class ConfigResult:
    duration: int   # payload phase, ps
    pauses: int
    bytes: int      # payload bytes written to configuration memory


@dataclass
class ReadbackResult:
    duration: int   # payload phase, ps
    bytes: int


@dataclass
class BootReport:
    duration: int
    ok: bool


class _Job:
    __slots__ = ("total", "done", "image", "payload_len", "payload_end", "first_payload_time",
                 "last_payload_end", "on_done")

    def __init__(self, total, image, on_done):
        self.total = total
        self.done = 0
        self.image = image
        self.payload_len = total - bits.WRAPPER_BYTES
        self.payload_end = bits.HEADER_BYTES + self.payload_len
        self.first_payload_time = None
        self.last_payload_end = None
        self.on_done = on_done


def _first_over(t: int, q: int, first: int, period: int, room: int):
    """The first k >= 0 at which k minus the number of lattice points
    first + i*period (i >= 0) before t + k*q exceeds ``room``."""
    before = (first - t) // q       # points 0..before have no lattice point before them
    if room < before:
        return room + 1
    if q >= period:                  # from then on, at least one per point
        return FOREVER
    return max(before + 1, -(-(t - first + (room + 1) * period) // (period - q)))


class SelectMapController(RunAhead):
    """Streams bitstream images between the shared data buffer and the
    configuration memory at one byte per configuration-clock cycle.

    Each point of its run-ahead timeline moves one word (at most four
    bytes, one per cycle) or, after the last, completes the job and reports
    its result to the job's ``on_done``; a point that finds the buffer empty
    (configure) or full (readback) pauses the controller instead (``paused``;
    ``mode`` stays the job's), and the enqueue or dequeue that ends the
    pause makes the next configuration-clock edge the next point.
    """

    def __init__(self, sim: Simulator, clock: ClockDomain, buffer: StreamBuffer,
                 config_mem: bits.ConfigurationMemory, trace=None, feed=None) -> None:
        self.sim = sim
        self.feed = feed
        self.clock = clock
        self.buffer = buffer
        self.config_mem = config_mem
        self.trace = trace
        self.pause_windows: list[tuple[int, int]] = []
        self.mode = Mode.IDLE
        self.paused = False
        self._pause_start = 0
        self._job: _Job | None = None
        buffer.on_enqueue(self._feed_arrived)
        buffer.on_dequeue(self._space_freed)

    @property
    def pauses(self) -> int:
        """The pauses of the current or last job: those that ended (one pause
        window each) and the one under way, if any."""
        return len(self.pause_windows) + self.paused

    # -- configuration writes ------------------------------------------------

    def start_configure(self, total_bytes: int, on_done=None) -> None:
        """Consume a partial image of ``total_bytes`` (wrapper included) from
        the buffer, then validate and apply it atomically.  The buffer is
        empty: the controller waits for the first word."""
        if self.mode is not Mode.IDLE:
            raise NotIdle(f"controller is {self.mode.value}")
        if total_bytes <= bits.WRAPPER_BYTES:
            raise ValueError("image shorter than header and checksum")
        self.pause_windows.clear()
        self._job = _Job(total_bytes, bytearray(total_bytes), on_done)
        self.mode = Mode.CONFIGURING
        if self.trace:
            self.trace.record("selectmap", "configure_start", f"{total_bytes}B")

    def _run(self) -> None:
        self.run_ahead()

    def point(self) -> bool:
        """Move the word (or the stretch) at ``key``, or complete the job;
        False once idle."""
        t = self.key[0]
        sim = self.sim
        sim.now = t
        job = self._job
        done = job.done
        n = job.total - done
        if n <= 0:
            self.key = None
            if self.mode is Mode.CONFIGURING:
                self._complete_configure()
            else:
                self._complete_readback()
            return False
        configuring = self.mode is Mode.CONFIGURING
        stretch = 0 if self.feed is None else self._stretch(t, job, configuring)
        if stretch:
            n = 4 * stretch
        else:
            if n > 4:
                n = 4
            buffer = self.buffer
            if configuring:
                if not buffer.occupancy:
                    self._pause(t)
                    return True
                job.image[done:done + n] = buffer.pop().to_bytes(4, "little")[:n]
            elif buffer.occupancy == buffer.capacity:
                self._pause(t)
                return True
            else:
                buffer.push(int.from_bytes(job.image[done:done + n], "little"))
        end = done + n
        job.done = end
        # Payload timing: bytes done..end-1 move one per cycle from t.
        period = self.clock.period
        if done <= bits.HEADER_BYTES < end:
            job.first_payload_time = t + (bits.HEADER_BYTES - done) * period
        if done < job.payload_end <= end:
            job.last_payload_end = t + (job.payload_end - done) * period
        self.key = (t + n * period, sim.alloc())
        return True

    def _stretch(self, t: int, job: _Job, configuring: bool) -> int:
        """Move the stretch of full words whose first point is at ``t``, with
        the burst's words that fall before its last point, as slices; returns
        its word count, or 0 (nothing moved) if it would hold fewer than two
        points.

        Point k of the stretch is at t + k*q.  The stretch holds the points
        before the feed's ``end``, and ends before the first point that would
        move the job's last word, find the buffer empty (configure) or full
        (readback), or take the occupancy out of the band in which the idle
        bus engine stays quiet.  Inside it nothing but the two lattices
        observes the buffer, so only the order at the last point shows; each
        lattice numbers its next item once, at the end, the burst first.  A
        bus word on the last point goes first unless the stretch's first bus
        word falls on point 0: with q equal to the bus period every tie goes
        the way the first did, and with other periods the order cannot show.
        A jump over whole periods (``jump``) shifts the key a stretch leaves
        and a pause's start; the payload's first byte always moves before a
        jump, whose signature tells whether it has.
        """
        q = 4 * self.clock.period
        m = (job.total - job.done - 1) // 4       # the job's last word stays a point
        occupancy = self.buffer.occupancy
        spare = occupancy if configuring else self.buffer.capacity - occupancy
        # Points 0 and 1 need two buffered words (configure) or free slots
        # (readback), the second one possibly brought by a bus word before
        # point 1; without them no window is worth building.
        if m < 2 or (spare < 2 and (not spare or self.sim.stream is None
                                    or self.sim.stream.key[0] >= t + q)):
            return 0
        window = self.feed.window()
        if window is None:
            return 0
        burst, first, period, _count, end = window
        # k - (bus words before point k) may not exceed ``room``.
        room = occupancy - 1 - self.feed.lo() if configuring else self.feed.hi() - occupancy - 1
        if end != FOREVER:          # inf // q is nan
            m = min(m, -(-(end - t) // q))
        if burst is None:
            m = min(m, room + 1)
            moved = 0
        else:
            m = min(m, _first_over(t, q, first, period, room))
            last = t + (m - 1) * q
            moved = max(0, -(-(last - first) // period))
            if t < first <= last and (last - first) % period == 0:
                moved += 1      # the bus word on the last point goes first
        if m < 2:
            return 0
        done = job.done
        if configuring:
            data = burst.advance_many(moved) if moved else b""
            memoryview(job.image)[done:done + 4 * m] = self.buffer.exchange(data, m)
        else:
            out = self.buffer.exchange(memoryview(job.image)[done:done + 4 * m], moved)
            if moved:
                burst.advance_many(moved, out)
        return m

    def jump(self, n: int, period: int, nbytes: int, windows) -> None:
        """Run ``n`` more periods of a steady state in closed form (see
        ``board.SteadyState``): each moves ``nbytes`` of the job between its
        engine and the image through the buffer, as slices of whole periods,
        and repeats the period's pause ``windows`` (and so its ``pauses``),
        shifted.  The next point and a pause's start move ``n * period`` on."""
        job = self._job
        if nbytes:
            image = memoryview(job.image)
            for k in period_chunks(n, nbytes):
                m, done = k * nbytes, job.done
                if self.mode is Mode.CONFIGURING:
                    image[done:done + m] = self.buffer.exchange(self.feed.into.take(m), m >> 2)
                else:
                    self.feed.out_of.give(self.buffer.exchange(image[done:done + m], m >> 2))
                job.done = done + m
        self.pause_windows += [(start + j * period, end + j * period)
                               for j in range(1, n + 1) for start, end in windows]
        self.shift(n * period)
        self._pause_start += n * period

    def _complete_configure(self) -> None:
        job = self._job
        self.mode = Mode.IDLE
        self._job = None
        try:
            bs = bits.parse(job.image)
        except bits.BadChecksum as exc:
            raise ChecksumMismatch(str(exc)) from exc
        if bs.kind is not bits.BitstreamKind.PARTIAL:
            raise bits.FixedRegionViolation("full bitstream over the bus is not allowed")
        self.config_mem.apply(bs)
        result = ConfigResult(job.last_payload_end - job.first_payload_time,
                              self.pauses, job.payload_len)
        if self.trace:
            self.trace.record("selectmap", "configure_done",
                              f"{result.bytes}B in {result.duration}ps "
                              f"({result.pauses} pauses)")
        if job.on_done is not None:
            job.on_done(bs, result)

    # -- readback ---------------------------------------------------------------

    def start_readback(self, first_column: int, column_count: int, on_done=None) -> int:
        """Emit the region image into the buffer; returns total image bytes."""
        if self.mode is not Mode.IDLE:
            raise NotIdle(f"controller is {self.mode.value}")
        image = self.config_mem.readback(first_column, column_count)
        self.pause_windows.clear()
        self._job = _Job(len(image), image, on_done)
        self.mode = Mode.READBACK
        if self.trace:
            self.trace.record("selectmap", "readback_start",
                              f"cols {first_column}+{column_count} {len(image)}B")
        self.wake(self.clock.next_edge_at(self.sim.now))
        return len(image)

    def _complete_readback(self) -> None:
        job = self._job
        self.mode = Mode.IDLE
        self._job = None
        result = ReadbackResult(job.last_payload_end - job.first_payload_time, job.payload_len)
        if self.trace:
            self.trace.record("selectmap", "readback_done",
                              f"{result.bytes}B in {result.duration}ps")
        if job.on_done is not None:
            job.on_done(result)

    # -- pause / resume ----------------------------------------------------------

    def _pause(self, t: int) -> None:
        self.paused = True
        self._pause_start = t
        self.key = None
        if self.trace:
            reason = "buffer empty" if self.mode is Mode.CONFIGURING else "buffer full"
            self.trace.record("selectmap", "pause", reason)

    def _resume(self) -> None:
        now = self.sim.now
        self.pause_windows.append((self._pause_start, now))
        self.paused = False
        if self.trace:
            self.trace.record("selectmap", "resume", "")
        self.wake(self.clock.next_edge_at(now))

    def wakes_on_input(self) -> bool:
        """True if a word enqueued now ends a wait: the controller is
        configuring and has no next point."""
        return self.key is None and self.mode is Mode.CONFIGURING

    def wakes_on_room(self) -> bool:
        """True if a word dequeued now ends a pause in readback."""
        return self.paused and self.mode is Mode.READBACK

    def _feed_arrived(self) -> None:
        if self.wakes_on_input():
            if self.paused:
                self._resume()
            else:   # the first word; that wait is not a pause
                self.wake(self.clock.next_edge_at(self.sim.now))

    def _space_freed(self) -> None:
        if self.wakes_on_room():
            self._resume()

    # -- flash boot ----------------------------------------------------------------

    def power_up_boot(self, flash_image: bytes, byte_period: int = 20000,
                      on_done=None) -> BootReport:
        """Load the full boot image from flash at ``byte_period`` ps per byte.

        A bad image (magic, checksum, or not a full bitstream) leaves the
        configuration memory untouched and reports failure.
        """
        try:
            bs = bits.parse(flash_image)
        except bits.BitstreamError:
            bs = None
        if bs is None or bs.kind is not bits.BitstreamKind.FULL:
            if self.trace:
                self.trace.record("boot", "failed", "bad flash image")
            return BootReport(0, ok=False)
        duration = len(bs.payload) * byte_period
        if self.trace:
            self.trace.record("boot", "start", f"{len(bs.payload)}B payload")

        def finish():
            self.config_mem.apply(bs, allow_fixed=True)
            if on_done is not None:
                on_done(bs)

        self.sim.schedule_at(self.sim.now + duration, finish)
        return BootReport(duration, ok=True)
