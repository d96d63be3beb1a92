"""Benchmark workloads: seeded inputs, timed operations and output checks.

Every workload is a closed loop with one client: one operation at a time,
the next one starts when the previous one has returned, which is how the
offline CLI is used.

  forward_video  per video: read_container -> per clip detector_forward +
                 finalize -> link_clips -> write_predictions.
  eval_pooled    read_annotations + read_predictions + evaluate on 48
                 pooled videos, rotating over the five synth families.
  match_clips    per clip of a training batch: match_instances of
                 config.num_queries hypotheses against the clip's
                 ground-truth tracks, then instance_losses on the pairs and
                 unmatched_loss on the rest.

Inputs come from single-video synth scenarios drawn in derived-seed order.
Each workload keeps the first draws that fall into fixed strata (frame
count, instance count, visible track-frames), so the work in one pass over
the inputs is nearly the same for every seed while the content follows the
seed. Layers are timed only from outside, by calls into public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blinkdet import (
    BlinkInterval,
    CostMatrix,
    FrameBox,
    InstancePrediction,
    InstanceTrack,
    ModelOutput,
    QueryState,
    TubePair,
    VideoAnnotation,
    VideoFeature,
    VideoPrediction,
    blink_ap,
    blink_frame_labels,
    detector_forward,
    evaluate,
    finalize,
    hungarian,
    init_queries,
    inst_ap,
    instance_losses,
    link_clips,
    load_params,
    match_instances,
    matching_cost,
    merge_blinks,
    query_interaction,
    read_container,
    tube_3d_iou,
    unmatched_loss,
    validate_annotation,
    video_interaction,
)
from blinkdet.cli_io import (
    Config,
    generate_scenario,
    main as cli_main,
    naive_evaluate,
    read_annotations,
    read_predictions,
    write_annotations,
    write_predictions,
    write_scenario_assets,
)
from blinkdet.cli_io.cli import _clip_starts as clip_starts  # the schedule of `blinkdet forward`; never timed
from blinkdet.metrics import BLINK_TIOU_THRESHOLDS
from blinkdet.netcore import StageOutput, heads_forward

from tracing import Tracer

FAMILIES = ("perfect", "shrunk60", "shifted_blinks", "noisy", "half_missing")
FEATURE_HW = (12, 20)
COPIES_PER_TRACK = 3  # near-ground-truth hypotheses per track in match_clips
LOAD_REPS = 3  # load_params calls timed in a traced run
MAX_DRAWS = 100_000
ABSENT_BOX = FrameBox(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Sizes:
    """Input strata of the three workloads and the detector config."""

    config: Config
    forward_frames: tuple[tuple[int, int], ...]  # one video per inclusive frame range
    eval_cells: tuple[tuple[int, tuple[int, int]], ...]  # (instances, frame range)
    match_strata: tuple[int, ...]  # visible track-frames per clip, in clip lengths
    match_batches: int  # each batch holds one clip per stratum


# Frame ranges of forward_video follow the default clip schedule (36/18):
# 40-54 frames make 2 clips, 55-72 make 3 and 73-80 make 4.
FULL = Sizes(
    config=Config(),
    forward_frames=((40, 47), (48, 54), (55, 63), (64, 72), (73, 80)),
    eval_cells=tuple(itertools.product(
        range(1, 9), ((40, 46), (47, 53), (54, 60), (61, 67), (68, 74), (75, 80))
    )),
    match_strata=tuple(range(1, 9)),
    match_batches=3,
)

SMOKE = Sizes(
    config=Config(num_queries=10, num_iterations=2, channels=16, num_heads=4,
                  roi_grid=3, keep_top=5),
    forward_frames=((40, 54),),
    eval_cells=((1, (40, 80)), (2, (40, 80))),
    match_strata=(1, 2),
    match_batches=1,
)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Timed:
    output: object
    seconds: float  # whole operation
    latencies: list[float]  # per latency unit: each clip, or the operation itself


def _no_pause(seconds: float) -> None:
    """The default `pause` of a HOST_SCALED workload's run(): nothing to do.

    run(i, pause) calls pause(seconds) after each timed piece of the
    operation, outside the timed region, with that piece's duration.
    """


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _draws(config: Config, seed: int):
    """Single-video synth scenarios in derived-seed order."""
    for k in range(MAX_DRAWS):
        yield generate_scenario(config, seed * MAX_DRAWS + k, num_videos=1)


def _fill(cells, per_cell: int, keyed):
    """The first per_cell items of each cell, from (cell, item) pairs, in cell order."""
    chosen = {cell: [] for cell in cells}
    for cell, item in keyed:
        bucket = chosen.get(cell)
        if bucket is None or len(bucket) == per_cell:
            continue
        bucket.append(item)
        if all(len(b) == per_cell for b in chosen.values()):
            return [item for cell in cells for item in chosen[cell]]
    raise RuntimeError(f"strata {cells} not filled after {MAX_DRAWS} draws")


def _frame_range(ranges, num_frames: int):
    return next((r for r in ranges if r[0] <= num_frames <= r[1]), None)


def _window_track(track: InstanceTrack, start: int, length: int) -> InstanceTrack:
    end = start + length - 1
    blinks = tuple(
        BlinkInterval(max(b.start, start) - start, min(b.end, end) - start)
        for b in track.blinks
        if b.end >= start and b.start <= end
    )
    return InstanceTrack(
        track.face_presence[start : end + 1], track.boxes[start : end + 1], blinks
    )


def _clip_windows(config: Config, seed: int):
    """(stratum, clip annotation) for every scheduled clip of every draw.

    The stratum is the clip's visible track-frames in whole clip lengths,
    rounded: the box terms on visible frames are most of the matching work.
    """
    length = config.clip_length
    for scenario in _draws(config, seed):
        video = scenario.videos[0]
        for start in clip_starts(video.num_frames, length, config.clip_stride):
            tracks = tuple(
                _window_track(t, start, length)
                for t in video.instances
                if any(t.face_presence[start : start + length])
            )
            clip = VideoAnnotation(f"{video.video_id}_clip{start}", length, video.fps,
                                   video.width, video.height, tracks)
            visible = sum(sum(t.face_presence) for t in tracks)
            yield round(visible / length), clip


def _jitter_box(rng: np.random.Generator, box: FrameBox, magnitude: float) -> FrameBox:
    x1, y1, x2, y2 = np.clip(np.array(box.as_tuple()) + rng.uniform(-magnitude, magnitude, 4), 0.0, 1.0)
    return FrameBox(float(min(x1, x2)), float(min(y1, y2)), float(max(x1, x2)), float(max(y1, y2)))


def _near_copy(rng: np.random.Generator, track: InstanceTrack, blink_threshold: float) -> InstancePrediction:
    """A jittered copy of a ground-truth track, as a detector hypothesis."""
    labels = blink_frame_labels(track, len(track.face_presence))
    face = [float(rng.uniform(0.55, 0.95)) if f else float(rng.uniform(0.02, 0.3))
            for f in track.face_presence]
    boxes = [_jitter_box(rng, b, 0.03) if f else ABSENT_BOX
             for f, b in zip(track.face_presence, track.boxes)]
    blink = [float(rng.uniform(0.5, 0.9)) if lab else float(rng.uniform(0.0, 0.25)) for lab in labels]
    return InstancePrediction(face, boxes, blink, merge_blinks(blink, blink_threshold))


def _ghost(rng: np.random.Generator, num_frames: int) -> InstancePrediction:
    """A hypothesis where nobody is: a fixed box with low scores."""
    x, y = rng.uniform(0.05, 0.65, 2)
    w, h = rng.uniform(0.1, 0.3, 2)
    box = FrameBox(float(x), float(y), float(x + w), float(y + h))
    face = [float(s) for s in rng.uniform(0.05, 0.45, num_frames)]
    blink = [float(s) for s in rng.uniform(0.0, 0.2, num_frames)]
    return InstancePrediction(face, [box] * num_frames, blink, ())


def _hypotheses(rng: np.random.Generator, clip: VideoAnnotation, count: int,
                blink_threshold: float) -> tuple[InstancePrediction, ...]:
    near = [_near_copy(rng, t, blink_threshold) for t in clip.instances for _ in range(COPIES_PER_TRACK)]
    near = near[:count]
    return tuple(near + [_ghost(rng, clip.num_frames) for _ in range(count - len(near))])


def generate(workload: str, sizes: Sizes, seed: int, out: Path) -> dict:
    """Write one workload's inputs under `out`; returns a summary of their sizes."""
    config = sizes.config
    out.mkdir(parents=True, exist_ok=True)
    if workload == "forward_video":
        keyed = ((_frame_range(sizes.forward_frames, s.videos[0].num_frames), s.videos[0])
                 for s in _draws(config, seed))
        videos = _fill(sizes.forward_frames, 1, keyed)
        write_scenario_assets(out, videos, config, seed, *FEATURE_HW)
        manifest = {"videos": [{"video_id": v.video_id, "frames": v.num_frames} for v in videos]}
        summary = {
            "videos": len(videos),
            "frames": [v.num_frames for v in videos],
            "feature_shape": [None, config.channels, *FEATURE_HW],
        }
    elif workload == "eval_pooled":
        keyed = (((len(s.videos[0].instances), _frame_range(
            [r for _, r in sizes.eval_cells], s.videos[0].num_frames)), s)
                 for s in _draws(config, seed))
        scenarios = _fill(sizes.eval_cells, 1, keyed)
        videos = [s.videos[0] for s in scenarios]
        write_annotations(out / "gt.json", videos)
        for family in FAMILIES:
            write_predictions(out / f"pred_{family}.json",
                              [s.predictions[family][0] for s in scenarios],
                              videos[0].width, videos[0].height)
        manifest = {"families": list(FAMILIES)}
        summary = {
            "videos": len(videos),
            "frames": sum(v.num_frames for v in videos),
            "instances": sum(len(v.instances) for v in videos),
        }
    elif workload == "match_clips":
        strata = sizes.match_strata
        by_stratum = _fill(strata, sizes.match_batches, _clip_windows(config, seed))
        # batch-major order: batch b is clip b of every stratum
        clips = [by_stratum[k * sizes.match_batches + b]
                 for b in range(sizes.match_batches) for k in range(len(strata))]
        preds = [
            VideoPrediction(c.video_id, c.num_frames, _hypotheses(
                np.random.default_rng((seed, k)), c, config.num_queries, config.blink_threshold))
            for k, c in enumerate(clips)
        ]
        write_annotations(out / "gt.json", clips)
        write_predictions(out / "pred.json", preds, clips[0].width, clips[0].height)
        manifest = {"batch": len(strata)}
        summary = {
            "clips": len(clips),
            "batches": sizes.match_batches,
            "clip_frames": config.clip_length,
            "hypotheses_per_clip": config.num_queries,
            "tracks": [len(c.instances) for c in clips],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "inputs.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return summary


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _per(st: dict, name: str, units: int) -> float:
    """Self time of all `name` spans in ms, per unit of work."""
    return 1e3 * st[name][0] / units


class ForwardVideo:
    """One operation is one video through the `blinkdet forward` pipeline."""

    NAME = "forward_video"
    HOST_SCALED = False  # most of the time is in BLAS, which the calibration loop does not track

    def __init__(self, work: Path, config: Config):
        self.work = work
        self.config = config
        self.videos = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["videos"]
        for v in self.videos:
            v["starts"] = clip_starts(v["frames"], config.clip_length, config.clip_stride)
        self.params = load_params(work / "weights.bin")
        self.notes: dict = {}

    def __len__(self) -> int:
        return len(self.videos)

    def frames(self, i: int) -> int:
        return self.videos[i]["frames"]

    def _paths(self, i: int) -> tuple[Path, Path]:
        vid = self.videos[i]["video_id"]
        return self.work / f"features_{vid}.bin", self.work / f"pred_{vid}.json"

    def run(self, i: int) -> Timed:
        cfg = self.config
        features_path, out_path = self._paths(i)
        clip_times = []
        t0 = time.perf_counter()
        arrays, meta = read_container(features_path)
        feature = VideoFeature(arrays["feature"])
        clips = []
        for start in self.videos[i]["starts"]:
            clip_feature = VideoFeature(feature.values[start : start + cfg.clip_length])
            c0 = time.perf_counter()
            out = detector_forward(clip_feature, self.params)
            clips.append(finalize(out, start, cfg.keep_top, video_id=str(meta["video_id"]),
                                  blink_threshold=cfg.blink_threshold))
            clip_times.append(time.perf_counter() - c0)
        pred = link_clips(clips, cfg.link_iou_threshold, cfg.blink_threshold)
        write_predictions(out_path, [pred], int(meta["width"]), int(meta["height"]))
        seconds = time.perf_counter() - t0
        return Timed(self._output(i, clips, pred), seconds, clip_times)

    def run_traced(self, i: int, tr: Tracer):
        """The same pipeline with detector_forward spelled out stage by stage."""
        cfg, params = self.config, self.params
        features_path, out_path = self._paths(i)
        with tr.span("op"):
            with tr.span("netcore.read_container"):
                arrays, meta = read_container(features_path)
                feature = VideoFeature(arrays["feature"])
            clips = []
            for start in self.videos[i]["starts"]:
                clip_feature = VideoFeature(feature.values[start : start + cfg.clip_length])
                with tr.span("clip"):
                    with tr.span("netcore.init_queries"):
                        qs = init_queries(params, clip_feature.values.shape[0])
                    stages = []
                    for stage in params.stages:
                        with tr.span("netcore.query_interaction"):
                            qs = query_interaction(qs, stage, params.num_heads)
                        with tr.span("netcore.video_interaction"):
                            q_updated = video_interaction(qs, clip_feature, stage, params.roi_grid)
                        with tr.span("netcore.heads_forward"):
                            face, boxes, blink = heads_forward(q_updated, stage)
                        stages.append(StageOutput(face, boxes, blink))
                        qs = QueryState(q_updated, boxes)
                    with tr.span("postprocess.finalize"):
                        clips.append(finalize(ModelOutput(tuple(stages)), start, cfg.keep_top,
                                              video_id=str(meta["video_id"]),
                                              blink_threshold=cfg.blink_threshold))
            with tr.span("postprocess.link_clips"):
                pred = link_clips(clips, cfg.link_iou_threshold, cfg.blink_threshold)
            with tr.span("cli_io.write_predictions"):
                write_predictions(out_path, [pred], int(meta["width"]), int(meta["height"]))
        return self._output(i, clips, pred)

    def _output(self, i: int, clips, pred: VideoPrediction) -> dict:
        return {
            "path": self._paths(i)[1],
            "clips": len(clips),
            "frames_computed": sum(c.length for c in clips),
            "kept": [len(c.hypotheses) for c in clips],
            "hypotheses": len(pred.hypotheses),
        }

    def check(self, i: int, output: dict) -> str:
        path = output["path"]
        (video,) = read_predictions(path)
        if video.num_frames != self.frames(i) or len(video.hypotheses) != output["hypotheses"]:
            raise CheckFailed(f"{path}: read back {video.num_frames} frames, "
                              f"{len(video.hypotheses)} hypotheses")
        for hyp in video.hypotheses:
            scores = [*hyp.face_scores, *hyp.blink_scores, *(b.confidence for b in hyp.blink_intervals)]
            if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
                raise CheckFailed(f"{path}: score outside [0, 1] or not finite")
        return _sha256(path.read_bytes())

    def rerun_digest(self) -> str:
        """Run input 0 through `blinkdet forward` itself; its output must match the loop's."""
        features_path, _ = self._paths(0)
        cli_out = self.work / "cli_pred.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["forward", "--features", str(features_path),
                             "--weights", str(self.work / "weights.bin"),
                             "--config", str(self.work.parent / "config.json"),
                             "--out", str(cli_out)])
        if code != 0:
            raise CheckFailed(f"blinkdet forward exited with {code}")
        return _sha256(cli_out.read_bytes())

    def trace_setup(self, tr: Tracer) -> None:
        for _ in range(LOAD_REPS):
            with tr.span("netcore.load_params"):
                load_params(self.work / "weights.bin")

    def counts(self, i: int, output: dict) -> dict:
        return {
            "clips": output["clips"],
            "frames_computed": output["frames_computed"],
            "video_frames": self.frames(i),
            "links": sum(output["kept"]) - output["hypotheses"],
            "link_slots": (output["clips"] - 1) * self.config.keep_top,
        }

    def macs_per_clip(self) -> int:
        """Multiply-adds of video_interaction on one clip, computed from the shapes."""
        p = self.params
        c, h, bins = p.channels, p.hidden_channels, p.roi_grid ** 2
        per_query_frame = (
            c * 2 * c * h  # filter generation
            + bins * c * h + bins * h * c  # two dynamic 1x1 convolutions
            + bins * c * c  # projection back to C
            + 4 * bins * c  # bilinear RoI samples
        )
        return per_query_frame * p.num_queries * self.config.clip_length * p.num_iterations

    def layer_metrics(self, tr: Tracer, counts: dict) -> dict:
        st = tr.self_times()
        clips, videos = st["clip"][1], st["op"][1]
        vi_seconds = st["netcore.video_interaction"][0]
        self.notes["video_interaction_macs_per_clip"] = self.macs_per_clip()
        return {
            "netcore.query_interaction.ms": _per(st, "netcore.query_interaction", clips),
            "netcore.video_interaction.ms": _per(st, "netcore.video_interaction", clips),
            "netcore.heads_forward.ms": _per(st, "netcore.heads_forward", clips),
            "netcore.video_interaction.share": vi_seconds / tr.total("clip"),
            "netcore.video_interaction.gmac_per_s": self.macs_per_clip() * clips / vi_seconds / 1e9,
            "netcore.load_params.ms": _per(st, "netcore.load_params", st["netcore.load_params"][1]),
            "netcore.read_container.ms": _per(st, "netcore.read_container", videos),
            "netcore.frames_computed": counts["frames_computed"],
            "netcore.overlap_factor": counts["frames_computed"] / counts["video_frames"],
            "netcore.clips": counts["clips"],
            "postprocess.finalize.ms": _per(st, "postprocess.finalize", clips),
            "postprocess.link_clips.ms": _per(st, "postprocess.link_clips", videos),
            "postprocess.link_rate": counts["links"] / max(counts["link_slots"], 1),
            "cli_io.write_predictions.ms": _per(st, "cli_io.write_predictions", videos),
        }


class EvalPooled:
    """One operation is `blinkdet eval` on one prediction family, minus interpreter start-up."""

    NAME = "eval_pooled"
    HOST_SCALED = True  # pure Python

    def __init__(self, work: Path, config: Config):
        self.gt_path = work / "gt.json"
        self.families = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["families"]
        self.pred_paths = [work / f"pred_{f}.json" for f in self.families]
        gts = read_annotations(self.gt_path)
        self.total_frames = sum(v.num_frames for v in gts)
        self.reference = [naive_evaluate(gts, read_predictions(p)) for p in self.pred_paths]
        self.notes: dict = {}

    def __len__(self) -> int:
        return len(self.families)

    def frames(self, i: int) -> int:
        return self.total_frames

    def run(self, i: int, pause=_no_pause) -> Timed:
        t0 = time.perf_counter()
        gts = read_annotations(self.gt_path)
        preds = read_predictions(self.pred_paths[i])
        report = evaluate(gts, preds)
        seconds = time.perf_counter() - t0
        pause(seconds)
        return Timed({"report": report, "detections": sum(len(v.hypotheses) for v in preds)},
                     seconds, [seconds])

    def run_traced(self, i: int, tr: Tracer):
        with tr.span("op"):
            with tr.span("cli_io.read_annotations"):
                gts = read_annotations(self.gt_path, validate=False)
            with tr.span("anno_model.validate_annotation"):
                violations = [msg for video in gts for msg in validate_annotation(video)]
            if violations:
                raise CheckFailed(f"{self.gt_path}: {violations[0]}")
            with tr.span("cli_io.read_predictions"):
                preds = read_predictions(self.pred_paths[i])
            with tr.span("metrics.evaluate"):
                report = evaluate(gts, preds)
        gt_map = {v.video_id: v for v in gts}
        pairs = [
            TubePair(hyp.boxes, tuple(b if f else None for f, b in zip(t.face_presence, t.boxes)))
            for vp in preds
            for hyp in vp.hypotheses
            for t in gt_map[vp.video_id].instances
        ]
        with tr.span("detail"):
            with tr.span("metrics.inst_ap"):
                _, _, tp_matches = inst_ap(gts, preds)
            with tr.span("metrics.blink_ap"):
                for threshold in BLINK_TIOU_THRESHOLDS:
                    blink_ap(tp_matches, threshold)
            with tr.span("geometry.tube_3d_iou") as record:
                for pair in pairs:
                    tube_3d_iou(pair)
                record["calls"] = len(pairs)
            with tr.span("oracle.naive_evaluate"):
                naive_evaluate(gts, preds)
        return {"report": report, "detections": sum(len(v.hypotheses) for v in preds),
                "tube_pairs": len(pairs)}

    def check(self, i: int, output: dict) -> str:
        got, want = output["report"].to_dict(), self.reference[i]
        values = [(got[k], want[k]) for k in ("inst_ap", "blink_ap_50", "blink_ap_75")]
        values += [(got["inst_ap_at"][k], want["inst_ap_at"][k]) for k in want["inst_ap_at"]]
        if len(got["inst_ap_at"]) != len(want["inst_ap_at"]) or any(
            not abs(a - b) <= 1e-9 for a, b in values
        ):
            raise CheckFailed(f"{self.families[i]}: report differs from naive_evaluate")
        return _sha256(json.dumps(got, sort_keys=True).encode("utf-8"))

    def rerun_digest(self) -> str:
        return self.check(0, self.run(0).output)

    def trace_setup(self, tr: Tracer) -> None:
        pass

    def counts(self, i: int, output: dict) -> dict:
        per_video = output["report"].per_video.values()
        return {
            "detections": output["detections"],
            "tp_at_50": sum(v["tp_at_50"] for v in per_video),
            "tube_pairs": output["tube_pairs"],
        }

    def layer_metrics(self, tr: Tracer, counts: dict) -> dict:
        st = tr.self_times()
        ops = st["op"][1]
        tube = [s for s in tr.spans if s["name"] == "geometry.tube_3d_iou"]
        evaluate_s, naive_s = st["metrics.evaluate"][0], st["oracle.naive_evaluate"][0]
        self.notes["evaluate_ms_per_op"] = 1e3 * evaluate_s / ops
        self.notes["naive_evaluate_ms_per_op"] = 1e3 * naive_s / st["oracle.naive_evaluate"][1]
        return {
            "cli_io.read_annotations.ms": _per(st, "cli_io.read_annotations", ops),
            "anno_model.validate_annotation.ms": _per(st, "anno_model.validate_annotation", ops),
            "cli_io.read_predictions.ms": _per(st, "cli_io.read_predictions", ops),
            "metrics.inst_ap.ms": _per(st, "metrics.inst_ap", ops),
            "metrics.blink_ap.ms": _per(st, "metrics.blink_ap", ops),
            "metrics.detections": counts["detections"],
            "metrics.tp_at_50": counts["tp_at_50"],
            "metrics.evaluate_vs_oracle": self.notes["evaluate_ms_per_op"] / self.notes["naive_evaluate_ms_per_op"],
            "geometry.tube_3d_iou.us_per_call": 1e6 * sum(s["end"] - s["start"] for s in tube)
            / sum(s["calls"] for s in tube),
            "geometry.tube_3d_iou.calls": counts["tube_pairs"],
        }


class MatchClips:
    """One operation is the training-side target assignment of one batch of clips."""

    NAME = "match_clips"
    HOST_SCALED = True  # pure Python

    def __init__(self, work: Path, config: Config):
        gts = read_annotations(work / "gt.json")
        preds = read_predictions(work / "pred.json")
        if [g.video_id for g in gts] != [p.video_id for p in preds]:
            raise CheckFailed("match inputs: clip ids of gt.json and pred.json differ")
        clips = [(p.hypotheses, g.instances) for g, p in zip(gts, preds)]
        size = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["batch"]
        self.batches = [clips[b : b + size] for b in range(0, len(clips), size)]
        self.clip_length = gts[0].num_frames
        self.notes: dict = {}

    def __len__(self) -> int:
        return len(self.batches)

    def frames(self, i: int) -> int:
        return self.clip_length * len(self.batches[i])

    def run(self, i: int, pause=_no_pause) -> Timed:
        outputs = []
        seconds = 0.0
        for hyps, tracks in self.batches[i]:
            t0 = time.perf_counter()
            assignment = match_instances(hyps, tracks)
            losses = [instance_losses(hyps[r], tracks[c]) for r, c in assignment.pairs]
            unmatched = [unmatched_loss(hyps[r]) for r in assignment.unmatched_predictions]
            clip_seconds = time.perf_counter() - t0
            pause(clip_seconds)
            seconds += clip_seconds
            outputs.append((assignment, losses, unmatched))
        return Timed(outputs, seconds, [seconds])

    def run_traced(self, i: int, tr: Tracer):
        """match_instances spelled out: the cost matrix, then the solver."""
        outputs = []
        with tr.span("op"):
            for hyps, tracks in self.batches[i]:
                with tr.span("assignment.matching_cost"):
                    matrix = np.array([[matching_cost(p, g) for g in tracks] for p in hyps], dtype=float)
                with tr.span("assignment.hungarian"):
                    assignment = hungarian(CostMatrix(matrix))
                with tr.span("losses.instance_losses"):
                    losses = [instance_losses(hyps[r], tracks[c]) for r, c in assignment.pairs]
                with tr.span("losses.unmatched_loss"):
                    unmatched = [unmatched_loss(hyps[r]) for r in assignment.unmatched_predictions]
                outputs.append((assignment, losses, unmatched))
        return outputs

    def check(self, i: int, outputs) -> str:
        records = []
        for k, ((hyps, tracks), (assignment, losses, unmatched)) in enumerate(zip(self.batches[i], outputs)):
            where = f"batch {i} clip {k}"
            if len(assignment.pairs) != min(len(hyps), len(tracks)):
                raise CheckFailed(f"{where}: {len(assignment.pairs)} pairs for {len(hyps)}x{len(tracks)}")
            chosen = sum(matching_cost(hyps[r], tracks[c]) for r, c in assignment.pairs)
            if not abs(chosen - assignment.total_cost) <= 1e-9 * max(1.0, abs(chosen)):
                raise CheckFailed(f"{where}: total_cost {assignment.total_cost} != chosen entries {chosen}")
            terms = [x for loss in losses for x in (loss.face_cls, loss.face_box, loss.blink, loss.total)]
            if not all(math.isfinite(x) for x in terms + unmatched):
                raise CheckFailed(f"{where}: non-finite loss")
            records.append((assignment.pairs, assignment.unmatched_predictions, assignment.total_cost.hex(),
                            [x.hex() for x in terms], [x.hex() for x in unmatched]))
        return _sha256(repr(records).encode("utf-8"))

    def rerun_digest(self) -> str:
        return self.check(0, self.run(0).output)

    def trace_setup(self, tr: Tracer) -> None:
        pass

    def counts(self, i: int, output) -> dict:
        return {"cost_entries": sum(len(hyps) * len(tracks) for hyps, tracks in self.batches[i])}

    def layer_metrics(self, tr: Tracer, counts: dict) -> dict:
        st = tr.self_times()
        clips = st["assignment.hungarian"][1]
        return {
            "assignment.matching_cost.ms": _per(st, "assignment.matching_cost", clips),
            "assignment.hungarian.ms": _per(st, "assignment.hungarian", clips),
            "assignment.cost_entries": counts["cost_entries"],
            "losses.instance_losses.ms": _per(st, "losses.instance_losses", clips),
            "losses.unmatched_loss.ms": _per(st, "losses.unmatched_loss", clips),
        }


WORKLOADS = {cls.NAME: cls for cls in (ForwardVideo, EvalPooled, MatchClips)}
