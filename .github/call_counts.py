#!/usr/bin/env python3
"""Call counts of the benchmark's timed phases, for the CI report.

    python3 .github/call_counts.py [SRC]

Runs each workload of ``perfbench/workloads.py`` once at seed 1 with the
package imported from ``SRC`` (``src`` when none is given, run from the
repository root), counts the calls of its timed phase with
``sys.setprofile`` (``call`` and ``c_call`` events: Python and C functions
alike, each generator resumption one call), checks the run with the
workload's own ``check``, and prints a Markdown table of the events, the
calls and the check's verdict.  It reports only: its exit status is 0
whatever the checks say.

cProfile's totals are no substitute: pstats keys its entries by (file, line,
name), and every ``NamedTuple``'s ``__new__`` is ``<string>:1:<lambda>``, so
the calls of one overwrite those of the others.
"""

import sys
import tempfile
from pathlib import Path

SEED = 1


def counted(fn):
    """Run ``fn()`` under ``sys.setprofile``; returns its result and the
    calls it made."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def main(argv) -> None:
    src = Path(argv[0] if argv else "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    print(f"Calls of each timed phase, seed {SEED} (`sys.setprofile`, Python and C), "
          f"package from `{src}`:")
    print()
    print("| workload | events | calls | check |")
    print("|---|---:|---:|---|")
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            wl = workload(SEED, Path(workdir))
            state = wl.setup()
            rep, calls = counted(lambda: wl.run(state))
            errors = wl.check(state, rep)
        verdict = "; ".join(errors) if errors else "correct"
        print(f"| {name} | {rep.events:,} | {calls:,} | {verdict} |")


if __name__ == "__main__":
    main(sys.argv[1:])
