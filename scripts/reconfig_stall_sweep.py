#!/usr/bin/env python3
"""Sweep PCI stall duty cycles and report reconfiguration cost.

For each duty cycle, periodic stall windows are injected while an 8 KB
partial bitstream streams to the configuration port.  The table shows how
the configuration clock pauses absorb bus starvation without corrupting
the loaded image (the final memory is compared to the clean run).
"""

import argparse
import random
import sys

from proteus_sim import bitstream as bits
from proteus_sim.board import World

G = bits.DESK_GEOMETRY
BOOT_PS = G.total_bytes * 20_000


def boot_world():
    world = World()
    world.boot(bits.encode(G, bits.BitstreamKind.FULL, 0, 0, bytes(G.total_bytes)))
    return world


def reconfigure(world, image):
    return world.reconfigure(image), world.device.config_mem.snapshot()


def run_sweep(duties, period_us):
    payload = random.Random(1).randbytes(4 * G.column_bytes)
    image = bits.encode(G, bits.BitstreamKind.PARTIAL, 0x21, 0, payload)

    clean_result, clean_mem = reconfigure(boot_world(), image)
    print(f"payload: {clean_result.bytes} bytes; "
          f"clean duration {clean_result.duration / 1e6:.2f} us\n")
    print(f"{'duty':>6} {'duration_us':>12} {'overhead':>9} {'pauses':>7} {'memory':>7}")
    for duty in duties:
        world = boot_world()
        if duty > 0:
            period = int(period_us * 1e6)
            stall = int(period * duty)
            for k in range(400):
                world.bus.inject_stall(BOOT_PS + k * period, stall)
        result, mem = reconfigure(world, image)
        overhead = result.duration / clean_result.duration - 1
        print(f"{duty:>6.0%} {result.duration / 1e6:>12.2f} {overhead:>8.1%} "
              f"{result.pauses:>7} {'ok' if mem == clean_mem else 'DIFFERS':>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--period-us", type=float, default=40.0,
                        help="stall pattern period in microseconds")
    args = parser.parse_args()
    run_sweep([0.0, 0.1, 0.25, 0.5, 0.75, 0.9], args.period_us)
    return 0


if __name__ == "__main__":
    sys.exit(main())
