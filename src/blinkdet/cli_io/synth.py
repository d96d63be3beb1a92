"""Synthetic scenario generation: ground truth plus perturbed prediction families.

Scenarios are deterministic in the seed and mimic the awkward parts of real
untrimmed footage: people entering and leaving, mid-video occlusion gaps,
and back-to-back blinks separated by a single frame. Blink durations are
drawn from 0.2-0.4 s at the video's frame rate.

Box coordinates live on a 1/64 grid and widths are multiples of 5/64, so
the "shrunk60" family (boxes eroded to 3/5 of their width) has per-frame
and tube IoU of exactly 0.6 in double precision. Video dimensions are
powers of two, so pixel/normalized conversion round-trips bit-exactly.
Every stored expected metric value is computed by the naive reference
evaluator at generation time, never typed in by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..anno_model import (
    BlinkInterval,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    blink_frame_labels,
    frame_targets,
    interval_frame_labels,
)
from ..geometry import NO_BOX
from ..netcore import SIZE_FIELDS, random_params, save_params, write_container
from ..postprocess import merge_blinks
from .config import Config
from .oracle import ORACLE_ID, naive_evaluate

COORD_GRID = 64
VIDEO_WIDTH = 512  # powers of two keep pixel round trips exact
VIDEO_HEIGHT = 256


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground truth, named prediction families, and oracle-stamped expectations."""

    videos: tuple[VideoAnnotation, ...]
    predictions: dict[str, tuple[VideoPrediction, ...]]
    expected: dict[str, dict]
    oracle_id: str


def perfect_prediction(track: InstanceTrack) -> InstancePrediction:
    """The zero-perturbation hypothesis: scores from flags, boxes copied (NO_BOX where absent)."""
    num_frames = len(track.face_presence)
    labels = blink_frame_labels(track, num_frames)
    return InstancePrediction(
        face_scores=track.face_presence,
        boxes=frame_targets([track])[1][:, 0],
        blink_scores=labels,
        blink_intervals=tuple(
            BlinkInterval(b.start, b.end, 1.0) for b in track.blinks
        ),
    )


def shrunk60_prediction(track: InstanceTrack) -> InstancePrediction:
    """Boxes eroded to 3/5 of their width, anchored at the left edge.

    On the generator's coordinate grid this lands exactly on representable
    values, so each visible frame's IoU is exactly 0.6.
    """
    base = perfect_prediction(track)
    boxes = base.boxes.array.copy()  # NO_BOX rows stay NO_BOX
    boxes[:, 2] = boxes[:, 0] + (boxes[:, 2] - boxes[:, 0]) * 3.0 / 5.0
    return InstancePrediction(base.face_scores, boxes, base.blink_scores, base.blink_intervals)


def _walk_track(rng: np.random.Generator, num_frames: int, lo: int, hi: int,
                occlusion: tuple[int, int] | None) -> tuple[list[int], np.ndarray]:
    """Presence flags and (T, 4) grid-snapped random-walk boxes between frames lo..hi (NaN rows elsewhere)."""
    w_units = 5 * int(rng.integers(1, 6))  # widths are multiples of 5/64
    h_units = int(rng.integers(6, 29))
    x = int(rng.integers(0, COORD_GRID - w_units + 1))
    y = int(rng.integers(0, COORD_GRID - h_units + 1))
    presence = [0] * num_frames
    boxes = np.full((num_frames, 4), np.nan)
    for t in range(lo, hi + 1):
        if occlusion and occlusion[0] <= t <= occlusion[1]:
            continue
        presence[t] = 1
        boxes[t] = (x, y, x + w_units, y + h_units)
        x = int(np.clip(x + rng.integers(-1, 2), 0, COORD_GRID - w_units))
        y = int(np.clip(y + rng.integers(-1, 2), 0, COORD_GRID - h_units))
    return presence, boxes / COORD_GRID


def _gen_blinks(rng: np.random.Generator, lo: int, hi: int, fps: float,
                force_pair: bool) -> list[BlinkInterval]:
    """Non-overlapping sorted intervals, >= 1 zero frame between consecutive ones."""
    blinks: list[BlinkInterval] = []
    t = lo + int(rng.integers(0, 5))
    forced = force_pair
    while True:
        duration = max(2, round(float(rng.uniform(0.2, 0.4)) * fps))
        if t + duration - 1 > hi:
            break
        blinks.append(BlinkInterval(t, t + duration - 1))
        if forced:
            gap = 2  # exactly one zero frame: the back-to-back case
            forced = False
        else:
            gap = int(rng.integers(2, 11))
        t = t + duration - 1 + gap
    return blinks


def _generate_video(rng: np.random.Generator, video_id: str) -> VideoAnnotation:
    num_frames = int(rng.integers(40, 81))
    fps = float(rng.choice([24.0, 25.0, 30.0]))
    num_instances = int(rng.integers(1, 9))
    instances = []
    for j in range(num_instances):
        if j == 0:
            lo, hi = 0, num_frames - 1  # one instance always spans the video
            occlusion = None
        else:
            lo = int(rng.integers(0, num_frames // 3))
            hi = int(rng.integers(2 * num_frames // 3, num_frames))
            hi = min(hi, num_frames - 1)
            occlusion = None
            if hi - lo > 20 and rng.random() < 0.4:
                occ_start = lo + int(rng.integers(5, hi - lo - 10))
                occlusion = (occ_start, occ_start + int(rng.integers(2, 6)))
        presence, boxes = _walk_track(rng, num_frames, lo, hi, occlusion)
        blinks = _gen_blinks(rng, lo, hi, fps, force_pair=(j == 0))
        instances.append(InstanceTrack(presence, boxes, blinks))
    return VideoAnnotation(video_id, num_frames, fps, VIDEO_WIDTH, VIDEO_HEIGHT, tuple(instances))


def _jitter_box(rng: np.random.Generator, box, magnitude: float) -> tuple[float, float, float, float]:
    x1, y1, x2, y2 = (float(np.clip(c + rng.uniform(-magnitude, magnitude), 0.0, 1.0)) for c in box)
    return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def _noisy_prediction(rng: np.random.Generator, track: InstanceTrack,
                      blink_threshold: float) -> InstancePrediction:
    num_frames = len(track.face_presence)
    labels = blink_frame_labels(track, num_frames)
    face_scores = []
    boxes = []
    for flag, box in zip(track.face_presence, track.boxes.array.tolist()):
        if flag:
            face_scores.append(float(rng.uniform(0.6, 0.98)))
            boxes.append(_jitter_box(rng, box, 0.02))
        else:
            face_scores.append(float(rng.uniform(0.01, 0.3)))
            boxes.append(NO_BOX)
    blink_scores = [
        float(rng.uniform(0.55, 0.95)) if lab else float(rng.uniform(0.0, 0.25))
        for lab in labels
    ]
    return InstancePrediction(face_scores, boxes, blink_scores, merge_blinks(blink_scores, blink_threshold))


def _ghost_prediction(rng: np.random.Generator, num_frames: int) -> InstancePrediction:
    """A spurious hypothesis somewhere nobody is."""
    box = _jitter_box(rng, (0.7, 0.7, 0.95, 0.95), 0.03)
    score = float(rng.uniform(0.2, 0.45))
    return InstancePrediction(
        face_scores=(score,) * num_frames,
        boxes=(box,) * num_frames,
        blink_scores=(0.0,) * num_frames,
        blink_intervals=(),
    )


def _shifted_blinks_prediction(track: InstanceTrack, num_frames: int) -> InstancePrediction:
    """Perfect boxes but every blink interval shifted one frame late."""
    base = perfect_prediction(track)
    shifted = [
        BlinkInterval(b.start + 1, min(b.end + 1, num_frames - 1), 1.0)
        for b in track.blinks
        if b.start + 1 <= num_frames - 1
    ]
    labels = interval_frame_labels(shifted, num_frames)
    return InstancePrediction(base.face_scores, base.boxes, labels, shifted)


def generate_scenario(config: Config, seed: int, num_videos: int | None = None) -> SyntheticScenario:
    """Build ground truth plus prediction families with oracle-stamped expectations."""
    rng = np.random.default_rng(seed)
    count = num_videos if num_videos is not None else int(rng.integers(1, 4))
    videos = tuple(_generate_video(rng, f"video_{seed}_{v}") for v in range(count))

    def family(hypotheses) -> tuple[VideoPrediction, ...]:
        """One prediction per video, holding hypotheses(video); videos in order, so noisy's draws keep theirs."""
        return tuple(VideoPrediction(v.video_id, v.num_frames, tuple(hypotheses(v))) for v in videos)

    def noisy(v: VideoAnnotation) -> list[InstancePrediction]:
        # a few instances go undetected, then 0-2 ghosts
        found = [_noisy_prediction(rng, t, config.blink_threshold) for t in v.instances if rng.random() > 0.15]
        return found + [_ghost_prediction(rng, v.num_frames) for _ in range(int(rng.integers(0, 3)))]

    families = {
        "perfect": family(lambda v: map(perfect_prediction, v.instances)),
        "shrunk60": family(lambda v: map(shrunk60_prediction, v.instances)),
        "shifted_blinks": family(lambda v: (_shifted_blinks_prediction(t, v.num_frames) for t in v.instances)),
        "noisy": family(noisy),
        "half_missing": family(lambda v: map(perfect_prediction, v.instances[::2])),
    }

    expected = {name: naive_evaluate(list(videos), list(preds)) for name, preds in families.items()}
    return SyntheticScenario(videos, families, expected, ORACLE_ID)


def write_scenario_assets(out_dir, videos, config: Config, seed: int,
                          feature_height: int = 12, feature_width: int = 20) -> None:
    """Emit random-but-seeded feature containers and a weights container."""
    from pathlib import Path

    out = Path(out_dir)
    params = random_params(**{name: getattr(config, name) for name in SIZE_FIELDS}, seed=seed)
    save_params(out / "weights.bin", params, seed=seed)
    for vi, video in enumerate(videos):
        rng = np.random.default_rng((seed, vi))
        feature = rng.uniform(-0.5, 0.5, (video.num_frames, config.channels, feature_height, feature_width))
        write_container(
            out / f"features_{video.video_id}.bin",
            {"feature": feature},
            meta={
                "kind": "features",
                "video_id": video.video_id,
                "width": video.width,
                "height": video.height,
            },
        )
