"""One fresh process of the benchmark; ``run.py`` starts it and reads the
JSON object it prints as its last line.

    python3 perfbench/worker.py <mode> --workload W --seed N [--seconds S] --workdir DIR

Modes:

* ``setup``   import the simulator, generate the inputs and set up once;
  report the host seconds that took.
* ``measure`` repeat set-up plus timed phase until ``--seconds`` would be
  exceeded by one more repetition (at least one); report every repetition
  and the process's peak RSS.
* ``trace``   alternate an untraced and a traced repetition, at least one
  pair; report the per-layer metrics, the tracing overhead, and write the
  spans and counters to ``--trace-out``.

``setup`` and ``measure`` run under a ``SpeedProbe`` and report host
seconds normalised to the reference speed, next to the raw seconds (see
speed.py).  ``trace`` reports raw seconds: its figures are not gated.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402  (standard library only)

START = perf_counter()   # set-up time starts before the simulator is imported

MAX_REPS = 1000


def _raw_seconds(t0: float, t1: float) -> tuple[float, float]:
    return t1 - t0, t1 - t0


def _one_rep(workload_cls, seed: int, workdir: Path, tracer=None, probe=None) -> dict:
    """Inputs, set-up, timed phase and checks; failures never escape.

    Host times are normalised by ``probe`` when one is given, else raw.
    """
    record = {"wall_s": 0.0, "wall_raw_s": 0.0, "events": 0, "sim_ps": 0, "words": 0,
              "jobs": [], "attempted": workload_cls.JOBS, "failed": workload_cls.JOBS,
              "errors": []}
    try:
        wl = workload_cls(seed, workdir)
        state = wl.setup()
        if tracer is not None:
            setup = {name: tracer.self_s(name) for name in
                     ("bitstream.parse", "bitstream.encode", "bitstream.mem")}
            tracer.reset()
        rep = wl.run(state)
        if tracer is not None:
            tracer.harvest_pauses()
            tracer.uninstall()   # the checks are not traced
        errors = wl.check(state, rep)
    except Exception as exc:   # a fault of the program counts as failed jobs
        record["errors"] = [f"{type(exc).__name__}: {exc}"]
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = probe.seconds if probe is not None else _raw_seconds
    raw, wall = seconds(rep.start, rep.end)
    record.update(wall_s=wall, wall_raw_s=raw, events=rep.events, sim_ps=rep.sim_ps,
                  words=rep.words, jobs=[seconds(a, b)[1] for _kind, a, b in rep.jobs],
                  attempted=rep.attempted, failed=min(len(errors), rep.attempted),
                  errors=errors[:5])
    if tracer is not None:
        record["per_layer"] = tracer.per_layer(rep)
        record["per_layer"]["bitstream.setup_s"] = sum(setup.values())
        record["spans"] = tracer.snapshot()
    return record


def _measure(workload_cls, args) -> dict:
    reps = []
    begin = perf_counter()
    with SpeedProbe() as probe:
        while len(reps) < MAX_REPS:
            t = perf_counter()
            reps.append(_one_rep(workload_cls, args.seed, args.workdir, probe=probe))
            gc.collect()   # one repetition's board is gone before the next is built
            rep_s = perf_counter() - t
            if perf_counter() - begin + rep_s > args.seconds:
                break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "peak_rss_mb": rss_kb / 1024}


def _trace(workload_cls, args) -> dict:
    from tracer import Tracer
    from workloads import REFERENCE

    plain, traced = [], []
    begin = perf_counter()
    while len(traced) < MAX_REPS:
        t = perf_counter()
        plain.append(_one_rep(workload_cls, args.seed, args.workdir))
        tracer = Tracer()
        tracer.install()
        traced.append(_one_rep(workload_cls, args.seed, args.workdir, tracer))
        pair_s = perf_counter() - t
        if perf_counter() - begin + pair_s > args.seconds:
            break

    ok = [r for r in traced if "per_layer" in r]
    per_layer = {}
    if ok:
        per_layer = {k: statistics.median(r["per_layer"][k] for r in ok)
                     for k in ok[0]["per_layer"]}
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    per_layer["bench.untraced_wall_s"] = untraced_wall
    per_layer["bench.traced_wall_s"] = traced_wall
    per_layer["bench.trace_overhead_s"] = traced_wall - untraced_wall
    per_layer["bench.trace_overhead_frac"] = (
        (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0)

    events = {r["events"] for r in plain + traced}
    owner_sums = {sum(r["per_layer"][f"sim.events.{o}"] for o in
                      ("pci", "selectmap", "kernels", "other")) for r in ok}
    checks = []
    if len(events) != 1:
        checks.append(f"events differ between repetitions: {sorted(events)}")
    if owner_sums != events:
        checks.append(f"per-owner events sum to {sorted(owner_sums)}, "
                      f"untraced events are {sorted(events)}")
    per_layer["bench.events_match"] = int(not checks)
    ref = REFERENCE.get(args.workload, {})
    for r in ok:
        got = (r["per_layer"]["selectmap.pauses"], r["per_layer"]["selectmap.pause_ps"])
        if got != (ref.get("pauses"), ref.get("pause_ps")):
            checks.append(f"configuration-port pauses {got} differ from the seed-commit "
                          f"reference {(ref.get('pauses'), ref.get('pause_ps'))}")

    out = {"workload": args.workload, "seed": args.seed,
           "untraced_reps": len(plain), "traced_reps": len(traced),
           "events": sorted(events), "events_checks": checks,
           "per_layer": per_layer,
           "traced_runs": [r.get("spans", {}) for r in traced]}
    args.trace_out.parent.mkdir(parents=True, exist_ok=True)
    args.trace_out.write_text(json.dumps(out, indent=1) + "\n")
    for r in traced:
        r.pop("spans", None)
        r.pop("per_layer", None)
    return {"reps": plain + traced, "per_layer": per_layer, "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        with SpeedProbe() as probe:
            from workloads import WORKLOADS   # imports the simulator

            WORKLOADS[args.workload](args.seed, args.workdir).setup()
            end = perf_counter()
        raw, norm = probe.seconds(START, end)
        result = {"setup_s": norm, "setup_raw_s": raw}
    else:
        from workloads import WORKLOADS

        workload_cls = WORKLOADS[args.workload]
        run = _measure if args.mode == "measure" else _trace
        result = run(workload_cls, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
