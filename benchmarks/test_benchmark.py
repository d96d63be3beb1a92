"""Smoke-size runs of the benchmark itself (tiny inputs and detector, --smoke).

Every workload completes, passes its output checks, and emits every metric
named in BENCHMARK.json with its unit; counts repeat exactly from run to
run, and output digests are the same with tracing on and off. Failed
operations still give a result line, marked not correct.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "netcore.clips",
    "netcore.frames_computed",
    "geometry.tube_3d_iou.calls",
    "assignment.cost_entries",
    "metrics.tp_at_50",
    "postprocess.link_rate",
)


def _run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


_cache: dict = {}


def _result(workload: str, trace: int, repeat: int = 0) -> tuple[dict, dict]:
    key = (workload, trace, repeat)
    if key not in _cache:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        _cache[key] = record, result
    return _cache[key]


def _check_result(result: dict, spec_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = _result(workload, 0)
    _check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    tail = record["details"]["raw_op_ms_tail"]
    assert tail["samples"] >= 1 and 0 < tail["percentile"] <= 100
    assert record["environment"]["blas_threads_pinned"] <= record["environment"]["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_counts_and_digests(workload):
    record, result = _result(workload, 1)
    again_record, again = _result(workload, 1, repeat=1)
    _check_result(result, SPEC["per_layer"])
    _check_result(again, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert result["metrics"][name]["value"] == again["metrics"][name]["value"], name
    assert record["digests"] == again_record["digests"]
    assert record["digests"] == _result(workload, 0)[0]["digests"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_failed_operations_still_give_a_result(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    answers = {
        "generate": {"config": {}, "feature_hw": [12, 20], "inputs": {}},
        "setup": {"seconds": 0.5},
        "measure": {"attempted": 4, "failed": 4, "errors": ["CheckFailed"], "digests": {},
                    "details": {}, "environment": {}, "metrics": {"peak_rss_mb": 80.0}},
    }
    monkeypatch.setattr(bench_run, "_child", lambda args, deadline: answers[args[0]])
    args = argparse.Namespace(workload=WORKLOADS[-1], seed=1, seconds=1.0, trace=0, smoke=True)
    result, _ = bench_run.run(args, SPEC)
    assert result["correct"] is False and (result["attempted"], result["failed"]) == (4, 4)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["metrics"]["setup_s"]["value"] == 0.5
    assert result["metrics"]["frames_per_s"]["value"] is None
