#!/usr/bin/env python3
"""Record the simulated reference results that the benchmark checks.

    python3 perfbench/record_reference.py

Runs every workload once and writes ``perfbench/reference.json``: the
simulated duration, bus busy time, bus data cycles and configuration-port
pauses (count and total picoseconds) of each timed phase, and for ``scenario_mix`` the per-job simulated results, every metrics key
and the SHA-256 of the trace CSV.  None of these depend on the seed, which
only chooses data bytes.  Recorded once, at the commit that introduced the
benchmark; a change that only speeds up the simulator must reproduce them
exactly, so re-recording is a deliberate act for a change meant to alter them.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    reference = {}
    workdir = HERE / "_work" / "reference"
    try:
        for name, cls in workloads.WORKLOADS.items():
            tracer = Tracer()
            tracer.install()
            try:
                wl = cls(0, workdir)
                state = wl.setup()
                tracer.reset()
                rep = wl.run(state)
                tracer.harvest_pauses()
            finally:
                tracer.uninstall()
            ref = {"sim_ps": rep.sim_ps, "bus_busy_ps": rep.bus_busy_ps,
                   "bus_cycles": rep.bus_cycles,
                   "pauses": tracer.counts["selectmap.pauses"],
                   "pause_ps": tracer.counts["selectmap.pause_ps"]}
            if name == "scenario_mix":
                ref["job_sim"] = [" ".join(map(str, j)) for j in rep.outputs["job_sim"]]
                ref["metrics"] = dict(line.split("=", 1) for line in
                                      (workdir / "metrics.txt").read_text().splitlines())
                ref["trace_sha256"] = hashlib.sha256(
                    (workdir / "trace.csv").read_bytes()).hexdigest()
            workloads.REFERENCE[name] = ref
            errors = wl.check(state, rep)
            if errors:
                print(f"{name}: outputs fail their checks: {errors[:3]}", file=sys.stderr)
                return 1
            reference[name] = ref
            print(f"{name}: recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
