"""Command-line front end.

    proteus-sim run <scenario> [--trace PATH] [--metrics PATH] [--seed N]
    proteus-sim kernels
    proteus-sim makebit out=... kind=... id=... cols=... fill=... [geometry flags]

Exit status: 0 on success, 1 if any expectation failed, 2 on parse or
runtime faults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bitstream as bits
from .kernels import BUILTIN_KERNELS
from .runner import ScenarioRunner, emit_metrics, makebit
from .scenario import MakebitCmd, ParseError, _col_range, parse_scenario
from .trace import emit_trace

KERNEL_SUMMARIES = {
    "identity": "pass words through unchanged",
    "negate": "bitwise NOT of every word",
    "add_const": "add register 8 to every word (wrapping)",
    "fir4": "sliding sum of the last four words (wrapping)",
}


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proteus-sim",
        description="Discrete-event simulator of a PCI-attached "
                    "self-reconfigurable FPGA board.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario script")
    run_p.add_argument("scenario", help="path to the scenario file")
    run_p.add_argument("--trace", metavar="PATH", help="write a CSV event trace")
    run_p.add_argument("--metrics", metavar="PATH", help="write key=value metrics")
    run_p.add_argument("--seed", type=_u64, default=0,
                       help="seed for unseeded random fills (default 0)")

    sub.add_parser("kernels", help="list built-in kernel behaviors")

    make_p = sub.add_parser("makebit", help="create a .pbit bitstream image")
    make_p.add_argument("args", nargs="+", metavar="key=value",
                        help="out= kind= id= cols= fill= (scenario syntax)")
    make_p.add_argument("--cols", type=int, default=16, help="device columns")
    make_p.add_argument("--frames", type=int, default=32, help="frames per column")
    make_p.add_argument("--fbytes", type=int, default=64, help="bytes per frame")
    make_p.add_argument("--fixed", default="12..15", metavar="A..B",
                        help="fixed column range (suffix)")
    return parser


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text, base_dir=path.parent)
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 2
    runner = ScenarioRunner(scenario, path.parent, seed=args.seed,
                            tracing=args.trace is not None)
    result = runner.run()
    if args.metrics:
        emit_metrics(result.metrics, args.metrics)
    if args.trace:
        emit_trace(result.trace_records, args.trace)
    for failure in result.expect_failures:
        print(f"expect failed: {failure}", file=sys.stderr)
    if result.fault:
        print(f"fault: {result.fault}", file=sys.stderr)
    return result.exit_status


def _cmd_kernels() -> int:
    for name in sorted(BUILTIN_KERNELS):
        print(f"{name:<10} {KERNEL_SUMMARIES.get(name, '')}".rstrip())
    return 0


def _cmd_makebit(args) -> int:
    line = "makebit " + " ".join(args.args)
    try:
        scenario = parse_scenario(line)
        (cmd,) = scenario.commands
        if not isinstance(cmd, MakebitCmd):
            raise ValueError("expected makebit arguments")
        fixed_lo, fixed_hi = _col_range(args.fixed)
        if fixed_hi != args.cols - 1:
            raise ValueError("--fixed must end at the right-most column")
        geometry = bits.DeviceGeometry(args.cols, args.frames, args.fbytes, fixed_lo)
        image = makebit(cmd, geometry, 0)     # seed 0 for a random fill without one
        Path(cmd.out).write_bytes(image)
    except (ParseError, ValueError, bits.BitstreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {cmd.out} ({len(image)} bytes)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "kernels":
        return _cmd_kernels()
    return _cmd_makebit(args)


if __name__ == "__main__":
    sys.exit(main())
