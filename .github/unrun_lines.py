#!/usr/bin/env python3
"""The statements of the package that no tier-1 test runs, for the CI report.

    python3 .github/unrun_lines.py [PYTEST_ARGS...]

Run from the repository root.  Runs the tier-1 suite in this process
(``pytest -q --continue-on-collection-errors`` unless other arguments are
given) with the package imported from ``src``, under a ``sys.settrace`` hook
that traces lines only in frames whose code lies in ``src/proteus_sim``, and
prints each statement of the package on none of whose lines a line event
fell, as ``file:line`` and its first line of source, in a Markdown code
block, then their number.  pytest's own output goes to stderr.

A simple statement counts as run if a line event fell on any of its lines,
and a compound one (``if``, ``for``, ``def``, ...) if one fell on its header,
decorators included, up to its first inner statement; lines that compile to
nothing (docstrings, ``global``) are not statements here.  So a line that
holds two statements counts once for both, and a child process (the
scripts' and console tests) is not traced.  It reports only: its exit status
is 0 whatever the tests say.  The trace makes the suite three to four
times slower.
"""

import ast
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proteus_sim"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def code_lines(code) -> set:
    """The lines of ``code`` and of the code objects nested in it that hold
    an instruction."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path):
    """Each statement of the module at ``path`` as (first line, the lines on
    which a line event says it ran)."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        inner = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
                 for child in getattr(node, field, ())]
        last = max(first, min(inner) - 1) if inner else node.end_lineno
        lines = set(range(first, last + 1)) & compiled
        if lines:
            out.append((node.lineno, lines))
    return out


def main(argv) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    package = str(PACKAGE) + "/"
    ran: dict = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or TIER1)
    finally:
        sys.settrace(None)

    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for line, own in sorted(statements(path)):
            if not own & lines:
                unrun.append(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(f"Statements of src/proteus_sim that no test runs (pytest exit status {int(status)}):")
    print()
    print("```")
    print("\n".join(unrun))
    print("```")
    print()
    print(f"{len(unrun)} statements unrun.")


if __name__ == "__main__":
    main(sys.argv[1:])
