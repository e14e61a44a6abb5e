"""The per-word views that ``records`` expands from trace records.

The expected lists were recorded by the bus's and the controller's own
per-word logs, before the trace became the only record.
"""

import pytest
from records import bus_cycles, port_byte_times

from proteus_sim import bitstream as bits
from proteus_sim.fixed_part import StreamBuffer
from proteus_sim.pci import PCI_CLOCK_PERIOD as P
from proteus_sim.pci import BusTransaction, Direction, HostMemory, PciBus, PciConfig
from proteus_sim.selectmap import SelectMapController
from proteus_sim.sim import ClockDomain, Simulator
from proteus_sim.trace import TraceRecorder

CFG = 20_000


def run_bus(nbytes, grant, burst, stalls=()):
    """One device-bound job, restarted from the next address after each
    preemption; returns the trace and the bus configuration."""
    sim = Simulator()
    host = HostMemory()
    config = PciConfig(grant_latency_cycles=grant, max_burst_cycles=burst)
    bus = PciBus(sim, host, config, trace=TraceRecorder(sim))
    _rid, base = host.map_shared_region(nbytes)
    for start, duration in stalls:
        bus.inject_stall(start, duration)
    done = [0]

    def fetch():
        if done[0] >= nbytes:
            return None
        return BusTransaction("dev", Direction.TO_DEVICE, base + done[0], nbytes - done[0],
                              word_sink=lambda word, n: None,
                              on_finish=lambda txn: done.__setitem__(
                                  0, done[0] + txn.transferred_bytes))

    bus.set_master(fetch)
    bus.poke()
    sim.run_until_idle()
    return bus.trace.records, config


@pytest.mark.parametrize("grant,burst,ends,cycles", [
    (2, 4096, ["dev 10/10B"], [(2 * P, 4), (3 * P, 4), (4 * P, 2)]),
    # Only a transaction's last word is short, not a preempted burst's.
    (1, 2, ["dev 8/10B", "dev 2/2B"], [(P, 4), (2 * P, 4), (4 * P, 2)]),
])
def test_short_last_word(grant, burst, ends, cycles):
    records, config = run_bus(10, grant, burst)
    assert [r.detail for r in records if r.event != "grant"] == ends
    assert bus_cycles(records, config) == [(t, n, "dev") for t, n in cycles]


def test_burst_stalled_at_its_first_word_moves_nothing():
    records, config = run_bus(12, grant=2, burst=4096, stalls=[(2 * P, P)])
    assert [(r.time, r.event, r.detail) for r in records] == [
        (0, "grant", "dev"), (2 * P, "preempt", "dev 0/12B"),
        (3 * P, "grant", "dev"), (8 * P, "complete", "dev 12/12B")]
    assert bus_cycles(records, config) == [(5 * P, 4, "dev"), (6 * P, 4, "dev"),
                                           (7 * P, 4, "dev")]


def test_pause_inside_the_header():
    """Two words arrive off the clock grid, then the buffer runs dry after
    byte 8 of the 24-byte header; the rest arrive from 1.01 us on."""
    g = bits.DeviceGeometry(columns=2, frames_per_column=1, bytes_per_frame=8, fixed_first=1)
    image = bits.encode(g, bits.BitstreamKind.PARTIAL, 0x11, 0, bytes(range(8)))
    sim = Simulator()
    buffer = StreamBuffer(4, 1, 1)
    ctl = SelectMapController(sim, ClockDomain("cfg", CFG), buffer, bits.ConfigurationMemory(g),
                              trace=TraceRecorder(sim))
    ctl.start_configure(len(image))
    words = [int.from_bytes(image[i:i + 4], "little") for i in range(0, len(image), 4)]
    arrivals = [5_000, 5_000] + [1_010_000 + 4 * CFG * k for k in range(len(words) - 2)]
    for t, word in zip(arrivals, words):
        sim.schedule_at(t, lambda word=word: buffer.push(word))
    sim.run_until_idle()
    assert [(r.time, r.event) for r in ctl.trace.records] == [
        (0, "configure_start"), (180_000, "pause"), (1_010_000, "resume"),
        (1_580_000, "configure_done")]
    times = port_byte_times(ctl.trace.records, CFG)
    assert times == [*range(20_000, 180_000, CFG), *range(1_020_000, 1_580_000, CFG)]
    assert len(times) == len(image) == 36

