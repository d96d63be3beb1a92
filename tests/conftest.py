import sys
from pathlib import Path

import pytest

# allow running the suite from a checkout without installing the package
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from blinkdet import netcore  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # without hypothesis only the property test modules fail, at collection
    pass
else:
    # every property test: examples derived from the test's source, so each run draws the same
    # ones; no example database; no per-example deadline on a shared host. Tests set max_examples.
    settings.register_profile("blinkdet", derandomize=True, database=None, deadline=None)
    settings.load_profile("blinkdet")


@pytest.fixture(autouse=True)
def _worker_count_restored():
    """A test that sets netcore's worker count must restore it (monkeypatch does) for the next test."""
    workers = netcore._WORKERS
    yield
    assert netcore._WORKERS == workers, "a test left netcore._WORKERS changed"
