"""Count the lines of each module of src/blinkdet: all lines, and code lines.

    python3 tools/code_lines.py

A code line is a non-blank line outside comments and docstrings. Docstrings
are found with `ast` (the first string statement of a module, class or
function body); a comment line is one whose first non-blank character is #.
Prints one row per module, by path under src/blinkdet, then the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blinkdet"


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )
    return len(lines), code


def module_counts(package: Path = PACKAGE) -> dict[str, tuple[int, int]]:
    """Path under the package -> (total lines, code lines), for every .py file, sorted by path."""
    return {
        path.relative_to(package).as_posix(): count(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def main() -> int:
    counts = module_counts()
    width = max(map(len, counts))
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, (total, code) in counts.items():
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(t for t, _ in counts.values()):>6}  {sum(c for _, c in counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
