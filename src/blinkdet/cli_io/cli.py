"""Command-line surface.

Subcommands: eval (run the metrics), merge (blink-score merging), forward
(detector on a feature container, post-processed to a predictions file),
synth (synthetic scenarios), gradcheck (loss-gradient self-check), and
validate (annotation invariant check). Exit codes: 0 success, 1 usage
error, 2 data error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .. import metrics
from ..netcore import SIZE_FIELDS, VideoFeature, detector_forward, load_params, read_container
from ..losses import run_gradient_checks
from ..postprocess import finalize, link_clips, merge_blinks
from ..anno_model import validate_annotation
from .config import Config
from .jsonio import (
    InternalCheckError,
    SchemaError,
    _parse_frame_size,
    read_annotations,
    read_predictions,
    read_scores,
    write_annotations,
    write_predictions,
    write_report,
)
from .synth import generate_scenario, write_scenario_assets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blinkdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("--gt", required=True, help="annotation JSON file")
    p_eval.add_argument("--pred", required=True, help="prediction JSON file")
    p_eval.add_argument("--report", help="write the full report JSON here")

    p_merge = sub.add_parser("merge", help="merge frame-level blink scores into intervals")
    p_merge.add_argument("--scores", required=True, help="JSON array or {'scores': [...]} file")
    p_merge.add_argument("--threshold", type=float, default=0.3)

    p_fwd = sub.add_parser("forward", help="run the detector over a feature container")
    p_fwd.add_argument("--features", required=True, help="binary feature container")
    p_fwd.add_argument("--weights", required=True, help="binary weights container")
    p_fwd.add_argument("--config", help="config JSON (defaults when omitted)")
    p_fwd.add_argument("--out", required=True, help="prediction JSON output path")

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--config", help="config JSON (defaults when omitted)")
    p_synth.add_argument("--videos", type=int, help="fix the number of videos")
    p_synth.add_argument(
        "--assets", action="store_true",
        help="also emit random feature and weight containers for the forward command",
    )

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of loss gradients")
    p_grad.add_argument("--samples", type=int, default=1000)
    p_grad.add_argument("--seed", type=int, default=7)

    p_val = sub.add_parser("validate", help="check an annotation file's invariants")
    p_val.add_argument("--gt", required=True)

    return parser


def _check_pairing(gts, preds, gt_path, pred_path) -> None:
    """Name the video that evaluate could not pair: a repeated ground-truth id, or a
    prediction whose id is not in the ground truth or whose frame count differs."""
    frames: dict[str, int] = {}
    for vi, video in enumerate(gts):
        if video.video_id in frames:
            raise SchemaError(f"{gt_path}.videos[{vi}].video_id", f"duplicate video_id {video.video_id!r}")
        frames[video.video_id] = video.num_frames
    for vi, video in enumerate(preds):
        vpath = f"{pred_path}.videos[{vi}]"
        if video.video_id not in frames:
            raise SchemaError(f"{vpath}.video_id", f"video_id {video.video_id!r} is not in {gt_path}")
        if video.num_frames != frames[video.video_id]:
            raise SchemaError(
                f"{vpath}.num_frames",
                f"num_frames {video.num_frames} != {frames[video.video_id]} in {gt_path}",
            )


def _cmd_eval(args) -> int:
    gts = read_annotations(args.gt)
    preds = read_predictions(args.pred)
    _check_pairing(gts, preds, args.gt, args.pred)
    report = metrics.evaluate(gts, preds)
    print(f"Inst-AP (mean 0.50:0.95): {report.inst_ap:.4f}")
    for tau in sorted(report.inst_ap_at):
        print(f"  Inst-AP@{tau:.2f}: {report.inst_ap_at[tau]:.4f}")
    print(f"Blink-AP@0.50: {report.blink_ap_50:.4f}")
    print(f"Blink-AP@0.75: {report.blink_ap_75:.4f}")
    for line in report.diagnostics:
        print(f"note: {line}", file=sys.stderr)
    if args.report:
        write_report(args.report, report)
    return EXIT_OK


def _cmd_merge(args) -> int:
    scores = read_scores(args.scores)
    if not 0.0 < args.threshold < 1.0:
        raise _UsageError(f"--threshold must be in (0, 1), got {args.threshold}")
    intervals = merge_blinks(scores, args.threshold)
    print(
        json.dumps(
            {
                "threshold": args.threshold,
                "intervals": [
                    {"start": b.start, "end": b.end, "confidence": b.confidence}
                    for b in intervals
                ],
            },
            indent=2,
        )
    )
    return EXIT_OK


def _clip_starts(num_frames: int, clip_length: int, stride: int) -> list[int]:
    if num_frames <= clip_length:
        return [0]
    starts = list(range(0, num_frames - clip_length + 1, stride))
    if starts[-1] + clip_length < num_frames:
        starts.append(num_frames - clip_length)
    return starts


def _cmd_forward(args) -> int:
    config = Config.load(args.config) if args.config else Config()
    features = str(args.features)
    arrays, meta = read_container(features)
    if meta.get("kind") != "features" or "feature" not in arrays:
        raise SchemaError(features, "container is not a feature file")
    for key in ("video_id", "width", "height"):
        if key not in meta:
            raise SchemaError(features, f"feature meta missing {key!r}")
    width, height = _parse_frame_size(meta, features)
    try:
        feature = VideoFeature(arrays["feature"])
    except ValueError as exc:
        raise SchemaError(features, str(exc)) from exc
    params = load_params(args.weights)
    for name in SIZE_FIELDS:
        if getattr(config, name) != getattr(params, name):
            raise SchemaError(
                str(args.weights),
                f"config {name} {getattr(config, name)} != weights {name} {getattr(params, name)}",
            )
    if params.channels != feature.values.shape[1]:
        raise SchemaError(
            features,
            f"feature channels {feature.values.shape[1]} != weights channels {params.channels}",
        )

    num_frames = feature.values.shape[0]
    clips = []
    try:
        # finite features or weights can still be too large for the forward pass
        with np.errstate(over="raise", invalid="raise"):
            for start in _clip_starts(num_frames, config.clip_length, config.clip_stride):
                clip_feature = VideoFeature(feature.values[start : start + config.clip_length])
                out = detector_forward(clip_feature, params)
                clips.append(
                    finalize(
                        out,
                        start,
                        config.keep_top,
                        video_id=str(meta["video_id"]),
                        blink_threshold=config.blink_threshold,
                    )
                )
    except FloatingPointError as exc:
        raise SchemaError(features, f"the forward pass with {args.weights} overflowed: {exc}") from exc
    video_pred = link_clips(clips, config.link_iou_threshold, config.blink_threshold)
    write_predictions(args.out, [video_pred], width, height)
    print(f"wrote {args.out}: {len(video_pred.hypotheses)} hypotheses over {video_pred.num_frames} frames")
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.videos is not None and args.videos < 1:
        raise _UsageError(f"--videos must be >= 1, got {args.videos}")
    config = Config.load(args.config) if args.config else Config()
    scenario = generate_scenario(config, args.seed, num_videos=args.videos)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_annotations(out / "gt.json", list(scenario.videos))
    for name, preds in scenario.predictions.items():
        width, height = scenario.videos[0].width, scenario.videos[0].height
        write_predictions(out / f"pred_{name}.json", list(preds), width, height)
    (out / "expected.json").write_text(
        json.dumps({"oracle": scenario.oracle_id, "families": scenario.expected}, indent=2) + "\n",
        encoding="utf-8",
    )
    if args.assets:
        write_scenario_assets(out, scenario.videos, config, args.seed)
    print(f"wrote scenario (seed {args.seed}) to {out}: {len(scenario.videos)} videos, "
          f"{len(scenario.predictions)} prediction families")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise _UsageError(f"--samples must be >= 1, got {args.samples}")
    result = run_gradient_checks(samples=args.samples, seed=args.seed)
    print(f"focal loss: max relative gradient error {result['max_rel_focal']:.3e}")
    print(f"giou loss:  max relative gradient error {result['max_rel_giou']:.3e}")
    if result["failures"]:
        for line in result["failures"][:20]:
            print(f"FAIL {line}", file=sys.stderr)
        print(f"{len(result['failures'])} gradient checks exceeded tolerance 1e-4", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"all {2 * args.samples} gradient checks within tolerance 1e-4")
    return EXIT_OK


def _cmd_validate(args) -> int:
    videos = read_annotations(args.gt, validate=False)
    total = 0
    for vi, video in enumerate(videos):
        for violation in validate_annotation(video):
            print(f"videos[{vi}] ({video.video_id}): {violation}")
            total += 1
    if total:
        print(f"{total} violation(s) found", file=sys.stderr)
        return EXIT_DATA
    print(f"OK: {len(videos)} video(s), all invariants hold")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "merge": _cmd_merge,
    "forward": _cmd_forward,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, OSError, ValueError) as exc:  # OSError messages name the path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
