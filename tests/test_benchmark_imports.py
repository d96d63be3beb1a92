"""Every name the benchmark imports from blinkdet resolves.

The benchmark's own smoke tests also catch a deleted or renamed name, but
they need a working benchmark worker; this check only parses the sources.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _blinkdet_imports():
    """(file, module, name) per `from blinkdet... import name`, and (file, module, None) per `import blinkdet...`."""
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "blinkdet":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "blinkdet")


def test_benchmark_imports_from_blinkdet_resolve():
    imports = list(_blinkdet_imports())
    assert any(source == "workloads.py" for source, _, _ in imports)
    missing = []
    for source, module, name in imports:
        try:
            resolved = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"{source}: {module} ({exc})")
            continue
        if name is not None and not hasattr(resolved, name):
            missing.append(f"{source}: {module}.{name}")
    assert missing == []
