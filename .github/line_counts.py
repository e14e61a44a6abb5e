#!/usr/bin/env python3
"""Line counts of a directory's Python files, for the CI report.

    python3 .github/line_counts.py [DIR [BASE/DIR]]

Prints the lines and the code lines of the directory's ``*.py`` files
(``src/proteus_sim`` when none is given, run from the repository root),
under the directory's name: ``src/proteus_sim`` for the package,
``tests`` for the tests.  Code lines are the non-blank lines outside
docstrings and comments.  Given the same directory of a base tree as well,
it also prints the change against it, in total and, as a Markdown table,
module by module.
"""

import ast
import sys
from pathlib import Path


def counts(directory) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of each ``*.py`` file in ``directory``, by name."""
    out = {}
    for path in sorted(Path(directory).glob("*.py")):
        text = path.read_text()
        prose = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node):
                doc = node.body[0]
                prose.update(range(doc.lineno, doc.end_lineno + 1))
        rows = text.splitlines()
        out[path.name] = len(rows), sum(
            1 for i, line in enumerate(rows, 1)
            if line.strip() and not line.lstrip().startswith("#") and i not in prose)
    return out


def total(modules: dict) -> tuple[int, int]:
    """(lines, code lines) summed over ``modules``, as ``counts`` returns them."""
    return sum(n for n, _ in modules.values()), sum(c for _, c in modules.values())


def main(argv) -> None:
    directory = argv[0] if argv else "src/proteus_sim"
    ours = counts(directory)
    lines, code = total(ours)
    print(f"{directory}: {lines} lines, {code} code lines")
    if len(argv) > 1:
        base = counts(argv[1])
        base_lines, base_code = total(base)
        print(f"{directory} against the base commit: {lines - base_lines:+d} lines, "
              f"{code - base_code:+d} code lines")
        print()
        print("| module | lines | change | code lines | change |")
        print("|---|---:|---:|---:|---:|")
        for name in sorted(ours.keys() | base.keys()):
            n, c = ours.get(name, (0, 0))
            base_n, base_c = base.get(name, (0, 0))
            print(f"| {name} | {n} | {n - base_n:+d} | {c} | {c - base_c:+d} |")


if __name__ == "__main__":
    main(sys.argv[1:])
