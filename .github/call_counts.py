#!/usr/bin/env python3
"""Call counts of the benchmark's timed phases, for the CI report.

    python3 .github/call_counts.py [SRC]

Runs each workload of ``perfbench/workloads.py`` once at seed 1 with the
package imported from ``SRC`` (``src`` when none is given, run from the
repository root), counts the calls of its timed phase with
``sys.setprofile`` (``call`` and ``c_call`` events: Python and C functions
alike, each generator resumption one call), checks the run with the
workload's own ``check``, and prints a Markdown table of the events, the
calls and the check's verdict.  From the same hook it counts the calls of
three methods of the steady state (``board.SteadyState``): ``at_burst_end``,
once per burst end walked event by event; ``_record``, once per segment the
board closes, kept or not; and ``_chain``, once per chain of replayed
segments.  It reports only: its exit status is 0 whatever the checks say.

cProfile's totals are no substitute: pstats keys its entries by (file, line,
name), and every ``NamedTuple``'s ``__new__`` is ``<string>:1:<lambda>``, so
the calls of one overwrite those of the others.
"""

import sys
import tempfile
from pathlib import Path

SEED = 1
# The steady state's methods counted apart, with their column headings.
METHODS = {"at_burst_end": "walked burst ends", "_record": "segments closed",
           "_chain": "chains"}


def counted(fn, codes):
    """Run ``fn()`` under ``sys.setprofile``; returns its result, the calls
    it made and the calls of each code object in ``codes``, by code."""
    calls = 0
    each = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1
            if event == "call" and frame.f_code in each:
                each[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, each


def main(argv) -> None:
    src = Path(argv[0] if argv else "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    from proteus_sim.board import SteadyState

    # A method the package does not have gets an empty column.
    codes = {name: getattr(SteadyState, name).__code__
             for name in METHODS if hasattr(SteadyState, name)}
    print(f"Calls of each timed phase, seed {SEED} (`sys.setprofile`, Python and C), "
          f"package from `{src}`:")
    print()
    print("| workload | events | calls | " + " | ".join(METHODS.values()) + " | check |")
    print("|---|---:|---:|" + "---:|" * len(METHODS) + "---|")
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            wl = workload(SEED, Path(workdir))
            state = wl.setup()
            rep, calls, each = counted(lambda: wl.run(state), codes.values())
            errors = wl.check(state, rep)
        verdict = "; ".join(errors) if errors else "correct"
        methods = " | ".join(f"{each[codes[m]]:,}" if m in codes else "" for m in METHODS)
        print(f"| {name} | {rep.events:,} | {calls:,} | {methods} | {verdict} |")


if __name__ == "__main__":
    main(sys.argv[1:])
