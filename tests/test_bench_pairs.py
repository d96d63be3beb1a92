"""tools/bench_pairs.py: the summary arithmetic of parent/change pairs on fixed numbers, and an in-process smoke run."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
CLEAN = {"parent": 0, "change": 0}  # no failed operation on either side


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_fixed_pairs():
    parent = [{"fps": v, "ms": m} for v, m in zip([10, 12, 11, 13, 9, 10, 12, 11, 10, 12],
                                                    [5.0, 5.0, 4.0, 6.0, 5.0, 5.0, 5.0, 5.0, 5.0, None])]
    change = [{"fps": v, "ms": m} for v, m in zip([14, 15, 13, 16, 12, 14, 15, 13, 10, 15],
                                                    [4.0, 5.0, 5.0, 5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0])]
    summary = _tool().summarize(parent, change, {"fps": "higher", "ms": "lower"}, CLEAN, [True] * 10)

    fps = summary["fps"]
    # parent sorted 9 10 10 10 11 11 12 12 12 13, change sorted 10 12 13 13 14 14 15 15 15 16
    assert fps["parent"] == pytest.approx({"q1": 10.0, "median": 11.0, "q3": 12.0})
    assert fps["change"] == pytest.approx({"q1": 13.0, "median": 14.0, "q3": 15.0})
    assert (fps["pairs"], fps["wins"]) == (10, 9)  # pair 9 ties at 10 and counts for neither side
    assert fps["gain_claimable"]  # 9 of 10 wins, and a gap of 3 over the parent's IQR of 2

    ms = summary["ms"]
    # a null value wins nothing and drops out of its side's quartiles
    assert ms["parent"] == pytest.approx({"q1": 5.0, "median": 5.0, "q3": 5.0})
    assert ms["change"] == pytest.approx({"q1": 4.0, "median": 4.0, "q3": 4.75})
    assert ms["wins"] == 7 and not ms["gain_claimable"]  # pairs 1 and 4-9; a tie, a loss and a null


def test_gap_must_exceed_the_parents_spread():
    parent = [{"fps": v} for v in [10, 20, 10, 20, 10, 20, 10, 20, 10, 20]]
    change = [{"fps": v + 1} for v in [10, 20, 10, 20, 10, 20, 10, 20, 10, 20]]
    fps = _tool().summarize(parent, change, {"fps": "higher"}, CLEAN, [True] * 10)["fps"]
    assert fps["wins"] == 10 and not fps["gain_claimable"]  # gap 1, parent IQR 10


@pytest.mark.parametrize("failed, digests_equal", [
    ({"parent": 0, "change": 1}, [True] * 10),  # the change fails an operation the parent does not
    ({"parent": 2, "change": 2}, [True] * 9 + [False]),  # one pair's outputs differ
])
def test_no_gain_from_failed_operations_or_differing_outputs(failed, digests_equal):
    parent = [{"fps": v} for v in [10, 12, 11, 13, 9, 10, 12, 11, 10, 12]]
    change = [{"fps": v + 5} for v in [10, 12, 11, 13, 9, 10, 12, 11, 10, 12]]
    tool = _tool()
    assert tool.summarize(parent, change, {"fps": "higher"}, CLEAN, [True] * 10)["fps"]["gain_claimable"]
    fps = tool.summarize(parent, change, {"fps": "higher"}, failed, digests_equal)["fps"]
    assert fps["wins"] == 10 and not fps["gain_claimable"]


def test_regressed_beyond_the_bound():
    parent = [{"fps": v, "ms": 10.0} for v in [100, 102, 98, 101, 99, 100]]
    change = [{"fps": v, "ms": m} for v, m in zip([70, 72, 68, 71, 69, 70], [10.5, 10.4, 10.6, 10.5, 10.5, 10.5])]
    summary = _tool().summarize(parent, change, {"fps": "higher", "ms": "lower"}, CLEAN, [True] * 6,
                                {"fps": 0.25, "ms": 0.25})
    # fps: median 100 -> 70, 30% worse against a 25% bound; ms: 10 -> 10.5, 5% worse
    assert summary["fps"]["regressed"] and not summary["fps"]["unresolved"]
    assert not summary["ms"]["regressed"] and not summary["ms"]["unresolved"]
    # a metric without a bound gets no verdict
    unbounded = _tool().summarize(parent, change, {"fps": "higher"}, CLEAN, [True] * 6)["fps"]
    assert unbounded["regressed"] is None and unbounded["unresolved"] is None


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [{"ms": v} for v in [4.0, 10.0, 4.0, 10.0, 4.0, 10.0]]  # IQR 6 over median 7
    tool = _tool()
    close = [{"ms": v} for v in [5.0, 9.0, 5.0, 9.0, 5.0, 9.0]]
    row = tool.summarize(parent, close, {"ms": "lower"}, CLEAN, [True] * 6, {"ms": 0.25})["ms"]
    assert row["unresolved"] and not row["regressed"]
    # every change run beats every parent run: resolved despite the spread
    clear = [{"ms": v} for v in [1.0, 3.0, 2.0, 3.5, 1.5, 2.5]]
    row = tool.summarize(parent, clear, {"ms": "lower"}, CLEAN, [True] * 6, {"ms": 0.25})["ms"]
    assert not row["unresolved"] and not row["regressed"]


def test_per_pair_ratio_quartiles():
    # the parent drifts 100 -> 200 over the pairs and the change runs 10% faster within each pair
    parent = [{"fps": v, "ms": m} for v, m in zip([100, 120, 140, 160, 180, 200], [10.0, 0.0, 8.0, 4.0, None, 5.0])]
    change = [{"fps": 1.1 * p["fps"], "ms": m} for p, m in zip(parent, [5.0, 1.0, 2.0, 4.0, 3.0, None])]
    tool = _tool()
    summary = tool.summarize(parent, change, {"fps": "higher", "ms": "lower"}, CLEAN, [True] * 6, {"fps": 0.25})
    fps = summary["fps"]
    assert fps["ratio"] == pytest.approx({"q1": 1.1, "median": 1.1, "q3": 1.1})
    # the sides' own quartiles carry the drift, and the verdicts do not read the ratio
    assert fps["parent"]["q3"] - fps["parent"]["q1"] == pytest.approx(50.0)
    assert fps["wins"] == 6 and not fps["gain_claimable"] and fps["unresolved"]
    # a parent 0 or a missing value on either side gives the pair no ratio: pairs 1, 3 and 4 remain
    assert summary["ms"]["ratio"] == pytest.approx(tool.quartiles([0.5, 0.25, 1.0]))
    assert summary["ms"]["ratio"] == pytest.approx({"q1": 0.375, "median": 0.5, "q3": 0.75})


def test_in_process_smoke_on_two_copies_of_one_tree(tmp_path):
    root = TOOL.parent.parent
    skip = shutil.ignore_patterns("__pycache__", "out", ".work", ".hypothesis")
    for copy in ("parent", "change"):
        for part in ("src", "benchmarks"):
            shutil.copytree(root / part, tmp_path / copy / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "eval_pooled",
         "--seed", "3", "--pairs", "3", "--in-process", "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    *pairs, last = proc.stdout.strip().splitlines()
    report = json.loads(last)
    assert [line.split(" first:")[0] for line in pairs] == ["pair 1 parent", "pair 2 change", "pair 3 parent"]
    assert set(report) == {"workload", "seed", "in_process", "pairs", "seconds", "ratio", "ratio_iqr_below_1",
                           "digests", "digests_equal"}
    assert (report["workload"], report["seed"], report["in_process"], report["pairs"]) == ("eval_pooled", 3, True, 3)
    assert all(len(report["seconds"][side]) == 3 and min(report["seconds"][side]) > 0 for side in ("parent", "change"))
    assert set(report["ratio"]) == {"q1", "median", "q3"} and isinstance(report["ratio_iqr_below_1"], bool)
    # one sha256 per prediction family, equal on both sides: the two copies are one tree
    assert len(report["digests"]["parent"]) == 5 and all(len(d) == 64 for d in report["digests"]["parent"])
    assert report["digests"]["parent"] == report["digests"]["change"] and report["digests_equal"]


def test_in_process_match_clips_smoke_on_two_copies_of_one_tree(tmp_path):
    root = TOOL.parent.parent
    skip = shutil.ignore_patterns("__pycache__", "out", ".work", ".hypothesis")
    for copy in ("parent", "change"):
        for part in ("src", "benchmarks"):
            shutil.copytree(root / part, tmp_path / copy / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "match_clips",
         "--seed", "3", "--pairs", "2", "--in-process", "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    *pairs, last = proc.stdout.strip().splitlines()
    report = json.loads(last)
    assert [line.split(" first:")[0] for line in pairs] == ["pair 1 parent", "pair 2 change"]
    assert (report["workload"], report["seed"], report["in_process"], report["pairs"]) == ("match_clips", 3, True, 2)
    assert all(len(report["seconds"][side]) == 2 and min(report["seconds"][side]) > 0 for side in ("parent", "change"))
    assert set(report["ratio"]) == {"q1", "median", "q3"}
    # one sha256 per batch of clips (the smoke inputs hold one), equal on both sides
    assert len(report["digests"]["parent"]) == 1 and len(report["digests"]["parent"][0]) == 64
    assert report["digests"]["parent"] == report["digests"]["change"] and report["digests_equal"]


def test_in_process_rejects_forward_video():
    with pytest.raises(SystemExit):
        _tool().main([".", ".", "--workload", "forward_video", "--seed", "1", "--in-process"])
