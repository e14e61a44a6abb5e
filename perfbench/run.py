#!/usr/bin/env python3
"""proteus-sim benchmark: runs one workload, checks every output, prints
every metric by name with its unit, and ends with one JSON line.

    python3 perfbench/run.py --workload stream_1mb --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, measured untraced.  ``--trace 1`` makes a separate traced run and
prints the per-layer metrics, the tracing overhead and the check that the
traced run executed exactly the untraced number of events; its spans and
counters go to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Every measurement runs in a fresh child process (``worker.py``), so peak
RSS and import time are never shared between workloads.  See README.md
for what each metric means and which end-to-end metric each per-layer
metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("stream_1mb", "reconfig_1mb", "scenario_mix")
SETUP_RUNS = 9          # fresh processes timed for setup_s; the median is reported
P90_TAIL = 10           # p90 is valid with at least this many jobs beyond it

# name, unit
END_TO_END = (
    ("wall_s", "s"),
    ("sim_ps_per_s", "ps/s"),
    ("events", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
)

# name, unit, the end-to-end metric (and workload) it should move
PER_LAYER = (
    ("sim.events.pci", "count", "events, wall_s on every workload"),
    ("sim.events.selectmap", "count", "events, wall_s on every workload"),
    ("sim.events.kernels", "count", "events, wall_s on every workload"),
    ("sim.events.other", "count", "events, wall_s on every workload"),
    ("sim.events_per_word", "events/word", "events, wall_s on every workload"),
    ("sim.loop_s", "s", "wall_s on every workload"),
    ("pci.busy_s", "s", "wall_s on stream_1mb and reconfig_1mb"),
    ("pci.ns_per_word", "ns/word", "wall_s on stream_1mb and reconfig_1mb"),
    ("pci.words", "count", "wall_s on stream_1mb and reconfig_1mb"),
    ("pci.bursts", "count", "wall_s on stream_1mb and reconfig_1mb"),
    ("pci.words_per_burst", "words/burst", "wall_s on stream_1mb and reconfig_1mb"),
    ("pci.preempts", "count", "job_ms_p90 on scenario_mix"),
    ("pci.stall_s", "s", "job_ms_p90 on scenario_mix"),
    ("pci.locate_calls", "count", "job_ms_p90 on scenario_mix"),
    ("pci.locate_s", "s", "job_ms_p90 on scenario_mix"),
    ("pci.utilization", "fraction", "simulated; checked, never moves"),
    ("fixed_part.busy_s", "s", "wall_s on every workload"),
    ("fixed_part.buffer_ops", "count", "wall_s on every workload"),
    ("fixed_part.buffer_s", "s", "wall_s on every workload"),
    ("fixed_part.fill_checks", "count", "job_ms_p50 on scenario_mix"),
    ("fixed_part.fill_yield", "requests/check", "job_ms_p50 on scenario_mix"),
    ("fixed_part.grants", "count", "job_ms_p50 on scenario_mix"),
    ("fixed_part.arbitrate_s", "s", "job_ms_p50 on scenario_mix"),
    ("selectmap.busy_s", "s", "wall_s on reconfig_1mb, not stream_1mb"),
    ("selectmap.ns_per_byte", "ns/byte", "wall_s on reconfig_1mb, not stream_1mb"),
    ("selectmap.bytes", "bytes", "wall_s on reconfig_1mb, not stream_1mb"),
    ("selectmap.pauses", "count", "simulated; checked, never moves"),
    ("selectmap.pause_ps", "ps", "simulated; checked, never moves"),
    ("kernels.steps", "count", "wall_s on stream_1mb, not reconfig_1mb"),
    ("kernels.busy_s", "s", "wall_s on stream_1mb, not reconfig_1mb"),
    ("kernels.ns_per_step", "ns/step", "wall_s on stream_1mb, not reconfig_1mb"),
    ("kernels.useful_frac", "fraction", "wall_s on stream_1mb, not reconfig_1mb"),
    ("bitstream.parse_s", "s", "setup_s; job_ms_p50 on scenario_mix"),
    ("bitstream.encode_s", "s", "setup_s; job_ms_p50 on scenario_mix"),
    ("bitstream.crc_bytes", "bytes", "setup_s; job_ms_p50 on scenario_mix"),
    ("bitstream.mem_s", "s", "setup_s; job_ms_p50 on scenario_mix"),
    ("bitstream.setup_s", "s", "setup_s on every workload"),
    ("scenario.parse_s", "s", "job_ms_p50, peak_rss_mb on scenario_mix"),
) + tuple((f"runner.cmd_s.{cmd}", "s", "job_ms_p50, peak_rss_mb on scenario_mix")
          for cmd in ("geometry", "bus", "stall", "boot", "bind", "reconfig", "stream",
                      "readback", "expect")) + (
    ("trace.records", "count", "job_ms_p50, peak_rss_mb on scenario_mix"),
    ("trace.record_s", "s", "job_ms_p50, peak_rss_mb on scenario_mix"),
    ("trace.emit_s", "s", "job_ms_p50, peak_rss_mb on scenario_mix"),
    ("bench.untraced_wall_s", "s", "tracing overhead: untraced side"),
    ("bench.traced_wall_s", "s", "tracing overhead: traced side"),
    ("bench.trace_overhead_s", "s", "tracing overhead, traced minus untraced wall_s"),
    ("bench.trace_overhead_frac", "fraction", "tracing overhead over untraced wall_s"),
    ("bench.events_match", "count", "1 when traced events equal untraced events"),
)


class ChildFailed(Exception):
    pass


def _child(mode: str, args, workdir: Path, timeout: float, extra=()) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    """q-th percentile by linear interpolation; a single value is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(measure: dict, setups: list) -> tuple[dict, list, int]:
    """Medians over the run's repetitions; job percentiles over all jobs.

    Host times are normalised to the reference CPU speed (speed.py).
    """
    reps = measure["reps"]
    timed = [r for r in reps if r["wall_s"] > 0]
    problems = [e for r in reps for e in r["errors"]]
    events = {r["events"] for r in timed}
    if len(events) > 1:
        problems.append(f"events differ between repetitions: {sorted(events)}")
    values = {name: 0.0 for name, _unit in END_TO_END}   # no repetition completed
    values["peak_rss_mb"] = measure["peak_rss_mb"]
    values["setup_s"] = statistics.median(setups)
    if not timed:
        return values, problems, 0
    jobs_ms = [s * 1e3 for r in timed for s in r["jobs"]]
    values.update({
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "sim_ps_per_s": statistics.median(r["sim_ps"] / r["wall_s"] for r in timed),
        "events": timed[0]["events"],
        "job_ms_p50": statistics.median(jobs_ms),
        # Without ten jobs beyond it no tail percentile is valid; report the median.
        "job_ms_p90": (percentile(jobs_ms, 90) if p90_valid(len(jobs_ms))
                       else statistics.median(jobs_ms)),
    })
    return values, problems, len(jobs_ms)


def p90_valid(n: int) -> bool:
    return n - math.ceil(0.9 * n) >= P90_TAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="proteus-sim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proteus_sim" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    timeout = min(args.seconds + 100, 150)
    try:
        if args.trace:
            trace_out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            result = _child("trace", args, workdir, timeout,
                            ("--trace-out", str(trace_out)))
            reps = result["reps"]
            values = result["per_layer"]
            problems = [e for r in reps for e in r["errors"]] + result["checks"]
            table = [(name, unit, why) for name, unit, why in PER_LAYER]
        else:
            measure = _child("measure", args, workdir, timeout)
            setups = [_child("setup", args, workdir / f"setup{i}", 30)["setup_s"]
                      for i in range(SETUP_RUNS)]
            reps = measure["reps"]
            values, problems, n_jobs = end_to_end(measure, setups)
            table = [(name, unit, "") for name, unit in END_TO_END]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and not problems
    print(f"proteus-sim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(reps)} repetitions")
    for name, unit, why in table:
        print(f"  {name:<28} {values.get(name, 0.0):>18.10g} {unit:<14} {why}".rstrip())
    print(f"  {'ops':<28} {attempted:>18d} jobs")
    print(f"  {'ops_failed':<28} {failed:>18d} jobs")
    if not args.trace:
        for key in ("wall_s", "wall_raw_s"):
            print(f"  {key} of each repetition: "
                  + ", ".join(f"{r[key]:.3f}" for r in reps))
        tail = n_jobs - math.ceil(0.9 * n_jobs)
        print(f"  job latency samples: {n_jobs}; {tail} beyond p90, which needs "
              f"{P90_TAIL}: job_ms_p90 is "
              f"{'the p90' if p90_valid(n_jobs) else 'the median, as p90 is not valid'}")
    else:
        print(f"  per-layer spans and counters: {trace_out.relative_to(ROOT)}")
    for problem in problems[:10]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
