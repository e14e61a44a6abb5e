"""Configuration controller tests: timed configure, readback, pauses on
an empty or full buffer, and flash boot."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from records import port_byte_times

from proteus_sim import bitstream as bits
from proteus_sim.fixed_part import StreamBuffer
from proteus_sim.selectmap import (
    ChecksumMismatch,
    Mode,
    NotIdle,
    SelectMapController,
    _first_over,
)
from proteus_sim.sim import FOREVER, ClockDomain, Simulator
from proteus_sim.trace import TraceRecorder

CFG_PERIOD = 20_000
G = bits.DESK_GEOMETRY


def image_words(image):
    return [int.from_bytes(image[i:i + 4].ljust(4, b"\x00"), "little")
            for i in range(0, len(image), 4)]


def make_controller(capacity=256):
    sim = Simulator()
    clock = ClockDomain("cfg", CFG_PERIOD)
    buffer = StreamBuffer(capacity, 1, 1)
    mem = bits.ConfigurationMemory(G)
    ctl = SelectMapController(sim, clock, buffer, mem, trace=TraceRecorder(sim))
    return sim, buffer, mem, ctl


def byte_times(ctl):
    return port_byte_times(ctl.trace.records, CFG_PERIOD)


def partial_image(first_column=0, columns=4, kernel_id=0x11, seed=5):
    payload = bytes((seed * 37 + i) % 256 for i in range(columns * G.column_bytes))
    return bits.encode(G, bits.BitstreamKind.PARTIAL, kernel_id, first_column, payload)


def feed_ideal(buffer, image):
    """Keep the buffer topped up: a refill lands on every dequeue."""
    words = image_words(image)
    state = {"next": 0}

    def top_up():
        while state["next"] < len(words) and buffer.free_words:
            buffer.push(words[state["next"]])
            state["next"] += 1

    buffer.on_dequeue(top_up)
    top_up()


def feed_scripted(sim, buffer, image, arrivals):
    """Push word k at time arrivals[k] (must be non-decreasing)."""
    words = image_words(image)
    assert len(arrivals) == len(words)
    for t, w in zip(arrivals, words):
        sim.schedule_at(t, lambda w=w: buffer.push(w))


def test_configure_ideal_feed_timing_exact():
    sim, buffer, mem, ctl = make_controller()
    image = partial_image()
    results = []
    ctl.start_configure(len(image), on_done=lambda bs, res: results.append(res))
    feed_ideal(buffer, image)
    sim.run_until_idle()
    (result,) = results
    # 8192 payload bytes, one per configuration-clock cycle.
    assert result.duration == 8192 * CFG_PERIOD == 163_840_000
    assert result.pauses == 0
    assert result.bytes == 8192
    assert mem.readback(0, 4, kernel_id=0x11) == image


def test_configure_starved_feed_pauses_and_matches_unstalled():
    image = partial_image(seed=9)
    words = image_words(image)

    def run(gap_ps):
        sim, buffer, mem, ctl = make_controller()
        results = []
        ctl.start_configure(len(image), on_done=lambda bs, res: results.append(res))
        # Words arrive at exactly the drain rate (one per 4 cycles), with a
        # dead window in the middle of the stream.
        step = 4 * CFG_PERIOD
        half = len(words) // 2
        arrivals = [i * step for i in range(half)]
        arrivals += [half * step + gap_ps + i * step for i in range(len(words) - half)]
        feed_scripted(sim, buffer, image, arrivals)
        sim.run_until_idle()
        return results[0], mem.snapshot()

    stalled, stalled_mem = run(gap_ps=50 * 10**6)
    clean, clean_mem = run(gap_ps=0)
    assert stalled_mem == clean_mem
    assert stalled.pauses >= 1
    assert clean.pauses == 0
    assert stalled.duration > clean.duration


def test_no_bytes_consumed_inside_pause_windows():
    image = partial_image(seed=2)
    words = image_words(image)
    sim, buffer, mem, ctl = make_controller()
    ctl.start_configure(len(image), on_done=lambda bs, res: None)
    arrivals = []
    t = 0
    for k in range(len(words)):
        if k % 300 == 299:
            t += 30 * 10**6  # starve the buffer periodically
        arrivals.append(t)
        t += 4 * CFG_PERIOD
    feed_scripted(sim, buffer, image, arrivals)
    sim.run_until_idle()
    assert ctl.pause_windows, "expected at least one pause"
    times = byte_times(ctl)
    assert len(times) == len(image)
    for start, end in ctl.pause_windows:
        assert not any(start <= bt < end for bt in times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= CFG_PERIOD  # never above 1 byte per cycle


class Lattice:
    """A lazy stream of ``count`` items every ``period`` ps from ``first``,
    each running ``action``, as the bus moves the words of a burst."""

    def __init__(self, sim, first, period, count, action):
        self.sim, self.period, self.left, self.action = sim, period, count, action
        self.key = (first, sim.alloc())
        sim.stream = self

    def advance(self):
        t = self.key[0]
        self.sim.now = t
        self.action()
        self.left -= 1
        self.key = (t + self.period, self.sim.alloc())
        if not self.left:
            self.sim.stream = None


@pytest.mark.parametrize("readback", [False, True])
def test_bus_words_resume_a_paused_controller_inside_its_event(readback):
    """A bus slower than the port pauses the controller at every word; the
    bus words that end the pauses run inside the controller's one event, at
    the times that per-word queued events give."""
    image = partial_image(columns=1)
    count = len(image_words(image))
    runs = []
    for lazy in (True, False):
        sim, buffer, mem, ctl = make_controller(capacity=4)
        words = iter(image_words(image))
        moved = []
        results = []

        def action():
            if readback:
                moved.append(buffer.pop())
            else:
                buffer.push(next(words))

        if readback:
            ctl.start_readback(0, 1, on_done=results.append)
        else:
            ctl.start_configure(len(image), on_done=lambda bs, res: results.append(res))
        if lazy:
            Lattice(sim, 5_000, 100_000, count, action)
        else:
            for k in range(count):
                sim.schedule_at(5_000 + 100_000 * k, action)
        sim.run_until_idle()
        if lazy:
            assert sim.executed == 1
        runs.append((results, ctl.pause_windows,
                     byte_times(ctl), moved if readback else mem.snapshot()))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) > count // 2


def test_configure_rejects_when_busy():
    sim, buffer, mem, ctl = make_controller()
    image = partial_image()
    ctl.start_configure(len(image))
    with pytest.raises(NotIdle):
        ctl.start_configure(len(image))
    with pytest.raises(NotIdle):
        ctl.start_readback(0, 1)


def test_configure_checksum_mismatch_leaves_memory_untouched():
    sim, buffer, mem, ctl = make_controller()
    image = bytearray(partial_image())
    image[40] ^= 0xFF
    ctl.start_configure(len(image), on_done=lambda bs, res: None)
    feed_ideal(buffer, bytes(image))
    before = mem.snapshot()
    with pytest.raises(ChecksumMismatch):
        sim.run_until_idle()
    assert mem.snapshot() == before
    assert ctl.mode is Mode.IDLE


def test_configure_fixed_region_violation_propagates():
    sim, buffer, mem, ctl = make_controller()
    image = partial_image(first_column=10, columns=4)  # hits fixed 12..15
    ctl.start_configure(len(image), on_done=lambda bs, res: None)
    feed_ideal(buffer, image)
    before = mem.snapshot()
    with pytest.raises(bits.FixedRegionViolation):
        sim.run_until_idle()
    assert mem.snapshot() == before


def test_readback_stream_matches_memory_and_timing():
    sim, buffer, mem, ctl = make_controller()
    payload = bytes((i * 11) % 256 for i in range(4 * G.column_bytes))
    mem.apply(bits.parse(bits.encode(G, bits.BitstreamKind.PARTIAL, 1, 0, payload)))
    collected = bytearray()
    buffer.on_enqueue(lambda: collected.extend(buffer.pop().to_bytes(4, "little")))
    results = []
    total = ctl.start_readback(0, 4, on_done=results.append)
    sim.run_until_idle()
    assert bytes(collected[:total]) == mem.readback(0, 4)
    assert bits.parse(bytes(collected[:total])).payload == payload
    (result,) = results
    assert result.duration == len(payload) * CFG_PERIOD == 163_840_000


def test_readback_pauses_on_full_buffer():
    sim, buffer, mem, ctl = make_controller()
    collected = bytearray()
    results = []
    draining = {"on": False}

    def drain():
        while buffer.occupancy:
            collected.extend(buffer.pop().to_bytes(4, "little"))

    buffer.on_enqueue(lambda: drain() if draining["on"] else None)
    ctl.start_readback(0, 4, on_done=results.append)

    def start_draining():
        draining["on"] = True
        drain()

    # Let the producer hit the 256-word capacity before draining anything.
    sim.schedule_at(300 * 4 * CFG_PERIOD, start_draining)
    sim.run_until_idle()
    assert ctl.pauses >= 1
    total = 28 + 4 * G.column_bytes
    assert bytes(collected[:total]) == mem.readback(0, 4)
    assert results


def test_boot_timing_and_memory_load():
    sim, buffer, mem, ctl = make_controller()
    payload = bytes((i * 3) % 256 for i in range(G.total_bytes))
    flash = bits.encode(G, bits.BitstreamKind.FULL, 0, 0, payload)
    done = []
    report = ctl.power_up_boot(flash, byte_period=CFG_PERIOD, on_done=done.append)
    assert report.ok
    assert report.duration == 32768 * CFG_PERIOD == 655_360_000
    assert mem.snapshot() != payload  # not loaded yet
    sim.run_until_idle()
    assert mem.snapshot() == payload
    assert done


def test_boot_rejects_corrupt_flash():
    sim, buffer, mem, ctl = make_controller()
    payload = bytes(G.total_bytes)
    flash = bytearray(bits.encode(G, bits.BitstreamKind.FULL, 0, 0, payload))
    flash[-1] ^= 1
    report = ctl.power_up_boot(bytes(flash))
    assert not report.ok
    sim.run_until_idle()
    assert mem.snapshot() == bytes(G.total_bytes)


def test_boot_rejects_partial_image():
    sim, buffer, mem, ctl = make_controller()
    report = ctl.power_up_boot(partial_image())
    assert not report.ok


@given(t=st.integers(0, 2000), first=st.integers(0, 2000), g=st.integers(1, 6),
       a=st.integers(1, 10), b=st.integers(1, 10), room=st.integers(0, 40))
@example(t=0, first=300, g=1, a=3, b=7, room=5)     # room < before: runs out first
@example(t=0, first=0, g=1, a=2, b=5, room=3)       # q < period: the bound's closed form
@example(t=500, first=20, g=2, a=3, b=4, room=0)    # first before t
@example(t=0, first=50, g=3, a=4, b=2, room=10)     # q >= period: never
def test_first_over_matches_brute_force(t, first, g, a, b, room):
    q, period = g * a, g * b

    def over(k):    # k minus the lattice points before point k
        x = t + k * q
        return k - max(0, -(-(x - first) // period))

    # A finite answer lies below this: past ``first``, ``over`` grows by
    # (period - q) / period >= 1/period per point on average.
    limit = abs(first - t) + (room + 2) * period + 2
    want = next((k for k in range(limit) if over(k) > room), FOREVER)
    assert _first_over(t, q, first, period, room) == want
