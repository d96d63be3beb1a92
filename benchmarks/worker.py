"""Child processes of the benchmark: input generation, set-up timing, measurement.

run.py starts each of these with PYTHONPATH set to the checkout's src/ and
the BLAS thread count pinned; each prints one JSON object as the last line
of its standard output. Nothing outside the standard library is imported at
module level, so `setup` times a fresh `import blinkdet`.

    python3 benchmarks/worker.py generate --work DIR --seed N --workloads forward_video [--smoke]
    python3 benchmarks/worker.py setup [--weights weights.bin]
    python3 benchmarks/worker.py measure --work DIR --workload NAME --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# On workloads with HOST_SCALED set, timed operations are scaled to a host
# on which calibration_loop() takes CAL_REF_S. After each timed piece of an
# operation the loop runs once per CAL_EVERY_S of that piece's time (at
# least once).
CAL_REF_S = 0.010
CAL_EVERY_S = 0.1


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import blinkdet

    if args.weights:
        blinkdet.load_params(args.weights)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "module": blinkdet.__file__}


def cmd_generate(args) -> dict:
    import blinkdet
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    sizes.config.save(work / "config.json")
    inputs = {
        name: workloads.generate(name, sizes, args.seed, work / name)
        for name in args.workloads.split(",")
    }
    return {
        "inputs": inputs,
        "config": sizes.config.to_dict(),
        "feature_hw": workloads.FEATURE_HW,
        "module": blinkdet.__file__,
    }


class Ledger:
    """Attempted and failed operations, error texts, and first-seen output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict = {}

    def attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # count the failed operation and keep measuring
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=4))
            return None

    def same(self, key, digest: str) -> None:
        """Each input must give the same output every time it runs, traced or not."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            raise RuntimeError(f"output digest of input {key} changed: {first} -> {digest}")


def _passes(count: int, seconds: float, step) -> int:
    """Run whole passes over inputs 0..count-1; stop at the pass end nearest the deadline."""
    start = time.perf_counter()
    passes = 0
    while True:
        for i in range(count):
            step(i)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return passes


def _tail(sorted_values: list[float]) -> dict:
    """The highest sample with at least ten samples beyond it (the lowest if there are fewer)."""
    n = len(sorted_values)
    index = max(0, n - 11)
    return {
        "ms": 1e3 * sorted_values[index],
        "percentile": 100.0 * (index + 1) / n,
        "beyond": n - 1 - index,
        "samples": n,
    }


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop: the host's speed right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


def measure_untraced(wl, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics from each input's time over the passes.

    Other tenants of a shared machine slow the program by up to 2x, in
    stretches from under a second to minutes. On a workload that does most
    of its work in BLAS (wl.HOST_SCALED false), the fastest repetition of
    an input is the estimate that stays put from run to run. Pure-Python
    work slows more, and a run can lie wholly in a slow stretch. There the
    workload calls pause() after each timed piece of an operation (a clip
    of match_clips, the whole operation of eval_pooled); pause() times the
    calibration loop and multiplies the piece's time by CAL_REF_S / (that
    loop time). The metrics take the median over the passes of the scaled
    operation times. The best unscaled times, the raw median and tail of
    all samples, and the calibration samples go into the record.
    """
    op_seconds: dict[int, list[float]] = {}
    unit_seconds: dict[tuple[int, int], list[float]] = {}
    op_scaled: dict[int, list[float]] = {}
    cal_seconds: list[float] = []

    def step(i: int) -> None:
        scaled: list[float] = []

        def pause(piece_seconds: float) -> None:
            cal = [calibration_loop() for _ in range(max(1, round(piece_seconds / CAL_EVERY_S)))]
            cal_seconds.extend(cal)
            scaled.append(piece_seconds * CAL_REF_S / statistics.median(cal))

        timed = wl.run(i, pause) if wl.HOST_SCALED else wl.run(i)
        ledger.same(i, wl.check(i, timed.output))
        op_seconds.setdefault(i, []).append(timed.seconds)
        for j, seconds in enumerate(timed.latencies):
            unit_seconds.setdefault((i, j), []).append(seconds)
        if wl.HOST_SCALED:
            op_scaled.setdefault(i, []).append(sum(scaled))

    passes = _passes(len(wl), seconds, lambda i: ledger.attempt(lambda: step(i)))
    ledger.attempt(lambda: ledger.same(0, wl.rerun_digest()))
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    details: dict = {"passes": passes, "operations": sum(len(v) for v in op_seconds.values())}
    if not op_seconds:  # every operation failed: nothing was timed
        return metrics, details
    if wl.HOST_SCALED:  # the latency unit of these workloads is the whole operation
        per_op = per_unit = [statistics.median(v) for v in op_scaled.values()]
        details["calibration_ms"] = {
            "median": 1e3 * statistics.median(cal_seconds),
            "best": 1e3 * min(cal_seconds),
            "samples": len(cal_seconds),
        }
    else:
        per_op = [min(v) for v in op_seconds.values()]
        per_unit = [min(v) for v in unit_seconds.values()]
    metrics["frames_per_s"] = sum(wl.frames(i) for i in op_seconds) / sum(per_op)
    metrics["op_ms_p50"] = 1e3 * statistics.median(per_unit)
    best_unit = sorted(min(v) for v in unit_seconds.values())
    raw = sorted(x for v in unit_seconds.values() for x in v)
    details.update({
        "host_scaled": wl.HOST_SCALED,
        "latency_units": len(best_unit),
        "best_op_ms_p50": 1e3 * statistics.median(best_unit),
        "raw_op_ms_p50": 1e3 * statistics.median(raw),
        "raw_op_ms_tail": _tail(raw),
        "best_ms": [1e3 * x for x in best_unit],
        "latency_ms": [1e3 * x for x in raw],
    })
    return metrics, details


def _sum_counts(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _layer_metrics(compute, ledger: Ledger) -> dict:
    """Layer metrics from the spans recorded; none if failed operations left spans missing."""
    try:
        return compute()
    except (KeyError, ZeroDivisionError):
        if ledger.failed:
            return {}
        raise


def measure_traced(wl, others: dict, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Pairs of untraced and traced runs of each input, then one traced probe per other workload.

    Counts come from one pass (each input once), so they repeat exactly.
    Tracing overhead is the traced operation time over the untraced one.
    A failed operation or probe leaves its metrics out of the result.
    """
    from tracing import Tracer

    tracer = Tracer()
    wl.trace_setup(tracer)
    paired = {"untraced": 0.0, "traced": 0.0}
    counts: dict = {}

    def traced(i: int) -> float:
        tracer.op_id = ledger.attempted
        output = wl.run_traced(i, tracer)
        ledger.same(i, wl.check(i, output))
        counts.setdefault(i, wl.counts(i, output))
        root = next(s for s in reversed(tracer.spans) if s["name"] == "op")
        return root["end"] - root["start"]

    def untraced(i: int) -> float:
        timed = wl.run(i)
        ledger.same(i, wl.check(i, timed.output))
        return timed.seconds

    def step(i: int) -> None:
        # alternate which side runs first, so neither always finds warm caches
        if ledger.attempted % 2:
            u, t = untraced(i), traced(i)
        else:
            t, u = traced(i), untraced(i)
        paired["untraced"] += u
        paired["traced"] += t

    passes = _passes(len(wl), seconds, lambda i: ledger.attempt(lambda: step(i)))
    metrics = _layer_metrics(lambda: wl.layer_metrics(tracer, _sum_counts(counts.values())), ledger)
    if paired["untraced"] > 0:
        metrics["trace.overhead"] = paired["traced"] / paired["untraced"] - 1.0
    spans = {wl.NAME: tracer.spans}
    notes = {wl.NAME: wl.notes}
    for name, other in others.items():
        probe_tracer = Tracer()

        def probe(other=other, probe_tracer=probe_tracer):
            other.trace_setup(probe_tracer)
            output = other.run_traced(0, probe_tracer)
            other.check(0, output)
            return other.layer_metrics(probe_tracer, other.counts(0, output))

        metrics.update(ledger.attempt(probe) or {})
        spans[name] = probe_tracer.spans
        notes[name] = other.notes
    details = {
        "passes": passes,
        "paired_seconds": paired,
        "notes": notes,
        "spans": spans,
    }
    return metrics, details


def environment() -> dict:
    import numpy
    import scipy

    try:  # mode= exists from numpy 1.25 on
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def cmd_measure(args) -> dict:
    import workloads
    from blinkdet.cli_io import Config

    work = Path(args.work)
    config = Config.load(work / "config.json")
    ledger = Ledger()
    wl = workloads.WORKLOADS[args.workload](work / args.workload, config)
    if args.trace:
        others = {
            name: cls(work / name, config)
            for name, cls in workloads.WORKLOADS.items()
            if name != args.workload
        }
        metrics, details = measure_traced(wl, others, args.seconds, ledger)
    else:
        metrics, details = measure_untraced(wl, args.seconds, ledger)
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors[:5],
        "metrics": metrics,
        "details": details,
        "digests": ledger.digests,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("generate")
    p_gen.add_argument("--work", required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--workloads", required=True, help="comma-separated workload names")
    p_gen.add_argument("--smoke", action="store_true")
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--weights")
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--work", required=True)
    p_measure.add_argument("--workload", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    command = {"generate": cmd_generate, "setup": cmd_setup, "measure": cmd_measure}[args.command]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
