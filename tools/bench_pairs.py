"""Run the benchmark in alternating parent/change pairs and summarise the end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload match_clips --seed 56101 --pairs 10

PARENT and CHANGE are two checkouts of the repository. Pair k (1, 2, ...)
runs `benchmarks/run.py --workload W --seed SEED+k-1 --trace 0` once in each
checkout, the parent first on odd pairs and the change first on even ones,
at the benchmark's own run length. The metrics and their directions are
the `end_to_end` list of the parent's BENCHMARK.json.

Prints one line per pair (both sides' metrics, failed operations, and
whether the output digests are equal), then per metric each side's median
and quartiles, the change's wins (ties count for neither side), and whether
a gain may be claimed: the change wins at least nine tenths of the pairs,
its median is better than the parent's by more than the parent's
interquartile range, it fails no more operations than the parent, and
every pair's output digests are equal. Each metric also gets the two
no-regression verdicts, against its `bound` in BENCHMARK.json taken as a
fraction of the parent's median: `regressed`, the change's median is worse
than the parent's by more than the bound; and `unresolved`, the parent's
interquartile range is wider than the bound, unless every change run beats
every parent run. Each metric also gets the quartiles of its per-pair
change/parent ratio: a ratio within one pair cancels the host load that
both runs of the pair share, and changes no verdict. The last line is the
whole summary as JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --workload eval_pooled --seed 61001 --pairs 12 --in-process

    python3 tools/bench_pairs.py PARENT CHANGE --workload match_clips --seed 61001 --pairs 12 --in-process

With --in-process (eval_pooled or match_clips) both checkouts run in this
one process. `benchmarks/worker.py generate` of PARENT writes the inputs
of SEED once; each checkout's `src/blinkdet` is imported under its own
module name. One eval_pooled pass runs the eval_pooled operation
(read_annotations, read_predictions, evaluate) once on every prediction
family. One match_clips pass runs match_instances, instance_losses on the
matched pairs and unmatched_loss on the rest once on every clip; each side
reads the clips once beforehand, as the benchmark does, so the tracks'
cached targets are warm after the first pass. Pair k is one pass of each
side, the parent first on odd pairs, after one untimed pass of each. Both
sides share the allocator, the caches and the host's load at that moment,
so the per-pair change/parent time ratio times the code alone; setup_s and
peak_rss_mb are not measured. Prints one line per pair, then the whole
summary as JSON: each side's pass seconds, the quartiles of the time ratio
(below 1 is the change faster) and whether its interquartile range lies
wholly below 1, and each side's digests as the benchmark digests its
outputs: one report digest per eval_pooled family, or one digest of the
match results per match_clips batch.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WIN_SHARE = 0.9  # share of pairs the change must win before a gain is claimed


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One trace-0 run in checkout: its metric values, failed operations and digests."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {checkout} on seed {seed} exited with code {proc.returncode}")
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    return {
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "failed": result["failed"],
        "digests": json.loads(record)["digests"],
    }


def quartiles(values: list[float]) -> dict:
    """Lower quartile, median and upper quartile, interpolated as numpy.percentile does by default."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              failed: dict[str, int], digests_equal: list[bool], bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's quartiles, the quartiles of the per-pair change/parent ratio, the
    change's wins, whether a gain may be claimed, and the no-regression verdicts.

    parent[k] and change[k] map metric names to the values of pair k; better
    maps each name to "higher" or "lower". A missing (None) value wins nothing.
    failed counts each side's failed operations over all pairs, and
    digests_equal[k] says whether pair k's outputs agree; no gain is claimed
    when the change fails more operations or any digest differs. bounds maps
    a metric to its allowed regression as a fraction of the parent's median;
    a metric without one, or without values, gets None for both verdicts.
    A pair without both values, or with a parent value of 0, has no ratio.
    """
    sound = failed["change"] <= failed["parent"] and all(digests_equal)
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
        wins = sum(1 for p, c in pairs if p is not None and c is not None and sign * (c - p) > 0)
        values = {side: [run[name] for run in runs if run[name] is not None]
                  for side, runs in (("parent", parent), ("change", change))}
        sides = {side: quartiles(v) if v else None for side, v in values.items()}
        ratios = [c / p for p, c in pairs if p and c is not None]
        claim = False
        regressed = unresolved = None
        if sides["parent"] and sides["change"]:
            gap = sign * (sides["change"]["median"] - sides["parent"]["median"])
            spread = sides["parent"]["q3"] - sides["parent"]["q1"]
            claim = sound and wins >= WIN_SHARE * len(pairs) and gap > spread
            bound = (bounds or {}).get(name)
            if bound is not None:
                allowed = bound * abs(sides["parent"]["median"])
                regressed = gap < -allowed
                clear = min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
                unresolved = spread > allowed and not clear
        summary[name] = {**sides, "ratio": quartiles(ratios) if ratios else None, "pairs": len(pairs),
                         "wins": wins, "gain_claimable": claim, "regressed": regressed, "unresolved": unresolved}
    return summary


def load_blinkdet(checkout: Path, name: str):
    """checkout's src/blinkdet imported as the package `name`, beside any other copy."""
    init = checkout / "src" / "blinkdet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def generate_inputs(checkout: Path, workload: str, seed: int, work: Path, smoke: bool) -> Path:
    """The directory of the workload's inputs that checkout's benchmark generates for seed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    subprocess.run([sys.executable, "benchmarks/worker.py", "generate", "--work", str(work), "--seed", str(seed),
                    "--workloads", workload] + (["--smoke"] if smoke else []),
                   cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True)
    return work / workload


def eval_inputs(package, inputs: Path) -> tuple[Path, list[Path]]:
    """The ground truth and the per-family predictions of the eval_pooled inputs; each pass reads them."""
    families = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))["families"]
    return inputs / "gt.json", [inputs / f"pred_{family}.json" for family in families]


def eval_pass(package, paths: tuple[Path, list[Path]]) -> tuple[float, list[str]]:
    """Seconds of one eval_pooled operation per family, summed, and each family's report digest."""
    cli_io, metrics = package.cli_io, package.metrics
    (gt_path, pred_paths), seconds, digests = paths, 0.0, []
    for pred_path in pred_paths:
        t0 = time.perf_counter()
        report = metrics.evaluate(cli_io.read_annotations(gt_path), cli_io.read_predictions(pred_path))
        seconds += time.perf_counter() - t0
        digests.append(hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")).hexdigest())
    return seconds, digests


def match_inputs(package, inputs: Path) -> list[list[tuple]]:
    """The (hypotheses, tracks) of every match_clips clip, read once by package, in the benchmark's batches."""
    gts = package.cli_io.read_annotations(inputs / "gt.json")
    preds = package.cli_io.read_predictions(inputs / "pred.json")
    clips = [(p.hypotheses, g.instances) for g, p in zip(gts, preds, strict=True)]
    size = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))["batch"]
    return [clips[b : b + size] for b in range(0, len(clips), size)]


def match_pass(package, batches: list[list[tuple]]) -> tuple[float, list[str]]:
    """Seconds of matching and losses over every clip, summed, and one digest of the results per batch."""
    seconds, digests = 0.0, []
    for batch in batches:
        records = []
        for hyps, tracks in batch:
            t0 = time.perf_counter()
            assignment = package.match_instances(hyps, tracks)
            losses = [package.instance_losses(hyps[r], tracks[c]) for r, c in assignment.pairs]
            unmatched = [package.unmatched_loss(hyps[r]) for r in assignment.unmatched_predictions]
            seconds += time.perf_counter() - t0
            terms = [x for loss in losses for x in (loss.face_cls, loss.face_box, loss.blink, loss.total)]
            records.append((assignment.pairs, assignment.unmatched_predictions, assignment.total_cost.hex(),
                            [x.hex() for x in terms], [x.hex() for x in unmatched]))
        digests.append(hashlib.sha256(repr(records).encode("utf-8")).hexdigest())
    return seconds, digests


IN_PROCESS = {"eval_pooled": (eval_inputs, eval_pass), "match_clips": (match_inputs, match_pass)}


def in_process(parent: Path, change: Path, workload: str, seed: int, pairs: int, smoke: bool) -> dict:
    """Alternating in-process passes of workload: each side's seconds, the time ratio and the digests."""
    packages = {side: load_blinkdet(path, f"blinkdet_{side}") for side, path in (("parent", parent), ("change", change))}
    for package in packages.values():
        importlib.import_module(f"{package.__name__}.cli_io")
    load, run_pass = IN_PROCESS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = generate_inputs(parent, workload, seed, Path(tmp), smoke)
        args = {side: load(package, inputs) for side, package in packages.items()}
        digests = {side: run_pass(package, args[side])[1] for side, package in packages.items()}
        seconds = {"parent": [], "change": []}
        for k in range(1, pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                gc.collect()
                elapsed, got = run_pass(packages[side], args[side])
                if got != digests[side]:
                    raise SystemExit(f"error: the {side}'s digests changed between passes")
                seconds[side].append(elapsed)
            print(f"pair {k} {order[0]} first: {seconds['parent'][-1]:.4f} s -> {seconds['change'][-1]:.4f} s",
                  flush=True)
    ratio = quartiles([c / p for p, c in zip(seconds["parent"], seconds["change"])])
    return {"workload": workload, "seed": seed, "in_process": True, "pairs": pairs, "seconds": seconds,
            "ratio": ratio, "ratio_iqr_below_1": ratio["q3"] < 1.0, "digests": digests,
            "digests_equal": digests["parent"] == digests["change"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k uses seed + k - 1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--in-process", action="store_true",
                        help="time both checkouts in this process, pass by pass (eval_pooled or match_clips)")
    parser.add_argument("--smoke", action="store_true", help="with --in-process: the benchmark's tiny inputs")
    args = parser.parse_args(argv)
    if args.in_process:
        if args.workload not in IN_PROCESS:
            parser.error(f"--in-process runs only the workloads {', '.join(IN_PROCESS)}")
        print(json.dumps(in_process(args.parent, args.change, args.workload, args.seed, args.pairs, args.smoke)))
        return 0
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"] if "bound" in metric}

    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    digests_equal = []
    for k in range(1, args.pairs + 1):
        seed = args.seed + k - 1
        order = ("parent", "change") if k % 2 else ("change", "parent")
        done = {side: run_once(getattr(args, side), args.workload, seed) for side in order}
        for side in order:
            runs[side].append(done[side]["metrics"])
            failed[side] += done[side]["failed"]
        same = done["parent"]["digests"] == done["change"]["digests"]
        digests_equal.append(same)
        line = "  ".join(f"{name} {runs['parent'][-1][name]} -> {runs['change'][-1][name]}" for name in better)
        print(f"pair {k} seed {seed} {order[0]} first: {line}  failed "
              f"{done['parent']['failed']} -> {done['change']['failed']}  digests {'equal' if same else 'DIFFER'}",
              flush=True)

    summary = summarize(runs["parent"], runs["change"], better, failed, digests_equal, bounds)
    for name, row in summary.items():
        sides = []
        for side in ("parent", "change", "ratio"):
            q = row[side]
            sides.append(f"{side} median {q['median']:.6g} (q1 {q['q1']:.6g}, q3 {q['q3']:.6g})" if q else
                         f"{side} unmeasured")
        print(f"{name}: {'  '.join(sides)}  wins {row['wins']} of {row['pairs']}  "
              f"gain claimable: {row['gain_claimable']}  regressed: {row['regressed']}  "
              f"unresolved: {row['unresolved']}")
    print(json.dumps({"workload": args.workload, "first_seed": args.seed, "failed": failed,
                      "digests_equal": digests_equal, "runs": runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
