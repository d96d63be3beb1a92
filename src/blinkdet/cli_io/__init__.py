"""File formats, CLI surface, synthetic scenarios, and configuration."""

from .config import Config
from .jsonio import (
    InternalCheckError,
    SchemaError,
    read_annotations,
    read_predictions,
    read_scores,
    write_annotations,
    write_predictions,
    write_report,
)
from .oracle import ORACLE_ID, naive_evaluate
from .synth import (
    SyntheticScenario,
    generate_scenario,
    perfect_prediction,
    shrunk60_prediction,
    write_scenario_assets,
)

__all__ = [
    "Config",
    "InternalCheckError",
    "ORACLE_ID",
    "SchemaError",
    "SyntheticScenario",
    "generate_scenario",
    "main",
    "naive_evaluate",
    "perfect_prediction",
    "read_annotations",
    "read_predictions",
    "read_scores",
    "shrunk60_prediction",
    "write_annotations",
    "write_predictions",
    "write_report",
    "write_scenario_assets",
]


def __getattr__(name):
    # `main` loads on first use, so `python -m blinkdet.cli_io.cli` does not
    # find the module already imported by its own package.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
