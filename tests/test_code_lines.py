"""tools/code_lines.py, the line counter of src/blinkdet."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_totals_equal_the_files_line_counts():
    tool = _tool()
    files = sorted(tool.PACKAGE.rglob("*.py"))
    counts = tool.module_counts()
    assert list(counts) == [path.relative_to(tool.PACKAGE).as_posix() for path in files]
    assert [total for total, _ in counts.values()] == [len(path.read_text().splitlines()) for path in files]
    assert all(0 < code < total for total, code in counts.values())


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = ('"""Module.\n\nMore."""\n\n# a comment\nx = 1  # a code line\n\n\n'
              'def f():\n    """One line."""\n    return "a string, not a docstring"\n')
    assert _tool().count(source) == (11, 3)
