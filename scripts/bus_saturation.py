#!/usr/bin/env python3
"""Measure downstream PCI throughput against grant latency and burst limit.

A sink kernel drains the downstream buffer at the user-clock rate (faster
than the bus can fill it), so the bus runs flat out: the measured rate
shows the grant-latency overhead between back-to-back bursts against the
132 MB/s wire peak.  The rate is the job's bytes over the span from its
first data cycle (first grant plus the grant latency) to the end of its
last burst, both read from the trace.
"""

import argparse
import random
import sys

from proteus_sim import bitstream as bits
from proteus_sim.board import BoardConfig, World
from proteus_sim.fixed_part import IrqCause
from proteus_sim.kernels import SinkKernel
from proteus_sim.pci import PciConfig

G = bits.DESK_GEOMETRY


def run_point(grant, burst, nbytes):
    config = BoardConfig(pci=PciConfig(grant_latency_cycles=grant,
                                       max_burst_cycles=burst))
    world = World(config, tracing=True)
    world.boot(bits.encode(G, bits.BitstreamKind.FULL, 0, 0, bytes(G.total_bytes)))
    world.device.registry.bind(0x50, SinkKernel)
    world.reconfigure(bits.encode(G, bits.BitstreamKind.PARTIAL, 0x50, 0,
                                  bytes(4 * G.column_bytes)))
    world.start_stream(random.Random(0).randbytes(nbytes), up=False)
    world.wait(IrqCause.DOWNSTREAM_DONE, "downstream")

    bus = [rec for rec in world.trace.records
           if rec.component == "pci" and rec.detail.startswith("downstream")]
    t0 = bus[0].time + grant * config.pci.clock_period
    t1 = bus[-1].time
    return nbytes / ((t1 - t0) * 1e-12)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kbytes", type=int, default=128,
                        help="downstream job size in KiB")
    args = parser.parse_args()
    nbytes = args.kbytes * 1024
    peak = 4 / (30303e-12)
    print(f"wire peak: {peak / 1e6:.3f} MB/s; job size {args.kbytes} KiB\n")
    print(f"{'grant':>6} {'burst':>6} {'MB/s':>9} {'of peak':>8}")
    for grant in (0, 4, 8, 16, 32):
        for burst in (64, 256, 4096):
            rate = run_point(grant, burst, nbytes)
            print(f"{grant:>6} {burst:>6} {rate / 1e6:>9.3f} {rate / peak:>8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
