#!/usr/bin/env python3
"""Line counts of the package source, for the CI report.

    python3 .github/line_counts.py [src/proteus_sim [BASE/src/proteus_sim]]

Prints the lines and the code lines of the directory's ``*.py`` files
(``src/proteus_sim`` when none is given, run from the repository root).
Code lines are the non-blank lines outside docstrings and comments.  Given
the same directory of a base tree as well, it also prints the change
against it.
"""

import ast
import sys
from pathlib import Path


def counts(directory) -> tuple[int, int]:
    """(lines, code lines) of the ``*.py`` files in ``directory``."""
    lines = code = 0
    for path in sorted(Path(directory).glob("*.py")):
        text = path.read_text()
        prose = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node):
                doc = node.body[0]
                prose.update(range(doc.lineno, doc.end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(1 for i, line in enumerate(rows, 1)
                    if line.strip() and not line.lstrip().startswith("#") and i not in prose)
    return lines, code


def main(argv) -> None:
    lines, code = counts(argv[0] if argv else "src/proteus_sim")
    print(f"src/: {lines} lines, {code} code lines")
    if len(argv) > 1:
        base_lines, base_code = counts(argv[1])
        print(f"src/ against the base commit: {lines - base_lines:+d} lines, "
              f"{code - base_code:+d} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
