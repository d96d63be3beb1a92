"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload forward_video --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory. The run
generates its inputs from the seed in a child process, measures in another,
and times set-up (a fresh `import blinkdet`, plus `load_params` for
forward_video) in several more, half before and half after the measuring
child, all with PYTHONPATH set to the checkout's src/ and BLAS pinned to
BLAS_THREADS threads.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (environment, config, input sizes, tail percentile, digests),
which is also written to benchmarks/out/. Metric definitions are in
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1  # at or below nproc; one thread is the faster and steadier setting here
SETUP_REPS = 5  # fresh interpreters per run, split around the measuring child
RUN_BUDGET_S = 175.0


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    module = result.get("module")
    if module is not None and not Path(module).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"blinkdet was imported from {module}, not from {ROOT / 'src'}")
    return result


def run(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]] if args.trace else [args.workload]
    work = BENCH_DIR / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        generated = _child(["generate", "--work", str(work), "--seed", str(args.seed),
                            "--workloads", ",".join(names)] + (["--smoke"] if args.smoke else []),
                           deadline)
        reps = 0 if args.trace else 1 if args.smoke else SETUP_REPS
        weights = work / "forward_video" / "weights.bin"
        extra = ["--weights", str(weights)] if args.workload == "forward_video" else []

        def setup(count: int) -> list[float]:
            return [_child(["setup", *extra], deadline)["seconds"] for _ in range(count)]

        # Set-up times sampled on both sides of the measurement see two
        # stretches of the machine's load, not one.
        setup_samples = setup(reps // 2)
        measured = _child(["measure", "--work", str(work), "--workload", args.workload,
                           "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setup_samples += setup(reps - reps // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(measured["metrics"])
    if setup_samples:
        values["setup_s"] = statistics.median(setup_samples)
    names = {m["name"] for m in wanted}
    missing = names - set(values)
    if set(values) - names or (missing and measured["failed"] == 0):
        raise BenchError(f"measured metrics {sorted(values)} do not match BENCHMARK.json")
    # A failed operation can leave metrics unmeasured; they read null, and
    # the result is not correct.
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**measured["environment"], "blas_threads_pinned": BLAS_THREADS},
        "config": generated["config"],
        "feature_hw": generated["feature_hw"],
        "inputs": generated["inputs"],
        "setup_s_samples": setup_samples,
        "errors": measured["errors"],
        "digests": measured["digests"],
        "details": measured["details"],
    }
    return result, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and detector, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blinkdet" / "__init__.py").is_file():
        print(f"error: no blinkdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    details = {k: v for k, v in record["details"].items() if k not in ("spans", "latency_ms")}
    print(json.dumps({**record, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
