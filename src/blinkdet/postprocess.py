"""Inference post-processing: blink merging, hypothesis ranking, clip linking.

A detector runs on overlapping fixed-length clips of an untrimmed video.
Per clip, frame-level blink scores are merged into intervals and hypotheses
are ranked by mean face score. Across clips, hypotheses are chained by mean
box IoU over the overlapping frames (greedy, highest IoU first, one-to-one);
scores and boxes on overlap frames are averaged, unlinked hypotheses start
or terminate instances, and blink intervals are re-merged from the stitched
full-video score sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anno_model import BlinkInterval, Hypotheses, VideoPrediction, frame_mean
from .geometry import box_overlap, ratio
from .netcore import ModelOutput

DEFAULT_BLINK_THRESHOLD = 0.3
DEFAULT_LINK_IOU = 0.5


@dataclass(frozen=True)
class ClipPrediction:
    """Hypotheses of one clip, frame indices local to the clip."""

    video_id: str
    clip_start: int
    length: int
    hypotheses: Hypotheses

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"clip length must be positive, got {self.length}")
        hyps = Hypotheses(self.hypotheses, self.length, f"clip at {self.clip_start}", "")
        object.__setattr__(self, "hypotheses", hyps)


def merge_blinks(scores: Sequence[float], threshold: float = DEFAULT_BLINK_THRESHOLD) -> list[BlinkInterval]:
    """Merge frame-level blink scores into intervals.

    Maximal runs of consecutive frames with score strictly above the
    threshold become inclusive intervals; interval confidence is the mean
    score inside the run. Ties at exactly the threshold are excluded, so the
    boundary behavior is deterministic. The runs are where the mask
    `scores > threshold`, padded with False at both ends, changes: each
    [start, end) pair of changes is one run, and its confidence is the
    frame_mean of its scores.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    values = np.asarray(scores, dtype=float)
    above = np.concatenate(([False], values > threshold, [False]))
    starts, ends = np.flatnonzero(above[1:] != above[:-1]).reshape(-1, 2).T.tolist()
    return [BlinkInterval(s, e - 1, float(frame_mean(values[s:e]))) for s, e in zip(starts, ends)]


def finalize(
    out: ModelOutput,
    clip_start: int,
    keep_top: int,
    video_id: str = "video",
    blink_threshold: float = DEFAULT_BLINK_THRESHOLD,
) -> ClipPrediction:
    """Turn the last iteration's raw outputs into a ranked clip prediction.

    Hypotheses are sorted by InstancePrediction.confidence, the frame_mean
    of their face scores (ties keep the lower query index), and the top
    keep_top survive, checked once as one Hypotheses.from_arrays.
    """
    if keep_top < 1:
        raise ValueError(f"keep_top must be >= 1, got {keep_top}")
    order = np.argsort(-frame_mean(out.final.face_scores.T), kind="stable")[:keep_top]
    face, boxes, blink = out.final.face_scores[order], out.final.boxes[order], out.final.blink_scores[order]
    hypotheses = Hypotheses.from_arrays(face, boxes, blink, [merge_blinks(row, blink_threshold) for row in blink])
    return ClipPrediction(video_id, clip_start, face.shape[1], hypotheses)


def link_clips(
    clips: Sequence[ClipPrediction],
    iou_threshold: float = DEFAULT_LINK_IOU,
    blink_threshold: float = DEFAULT_BLINK_THRESHOLD,
) -> VideoPrediction:
    """Stitch per-clip hypotheses into whole-video instance predictions.

    Clips must be sorted by clip_start, share a video_id, and each adjacent
    pair must overlap. Linking is greedy by descending overlap IoU (strictly
    above iou_threshold, one-to-one; ties prefer the lower hypothesis index,
    then the older chain). Frames covered by two clips average their scores
    and boxes; frames outside a chain get score 0 and a zero-area box.
    """
    if not clips:
        raise ValueError("need at least one clip")
    video_id = clips[0].video_id
    for clip in clips[1:]:
        if clip.video_id != video_id:
            raise ValueError(f"inconsistent video ids: {video_id!r} vs {clip.video_id!r}")
    for prev, nxt in zip(clips, clips[1:]):
        if nxt.clip_start <= prev.clip_start:
            raise ValueError("clips must be sorted by clip_start")
        if nxt.clip_start >= prev.clip_start + prev.length:
            raise ValueError(
                f"adjacent clips must overlap: [{prev.clip_start}, {prev.clip_start + prev.length}) "
                f"then [{nxt.clip_start}, ...)"
            )
        if nxt.clip_start + nxt.length < prev.clip_start + prev.length:
            raise ValueError(
                f"a clip must not end before the clip before it: [{prev.clip_start}, "
                f"{prev.clip_start + prev.length}) then [{nxt.clip_start}, {nxt.clip_start + nxt.length})"
            )

    total_frames = max(c.clip_start + c.length for c in clips)
    per_clip = []  # per clip, one (hypotheses, frames, 6) array: face score, blink score, box corners
    chains: list[list[tuple[int, int]]] = []  # members (clip index, hypothesis index), oldest first
    for k, clip in enumerate(clips):
        hyps = clip.hypotheses
        per_clip.append(np.dstack((hyps.face_array, hyps.blink_array, hyps.box_array)))
        boxes = per_clip[k][..., 2:]
        active = [ci for ci, chain in enumerate(chains) if chain[-1][0] == k - 1]
        candidates = []
        if active and len(boxes):
            # mean box IoU over the seam frames, hypotheses x active chains; a tail is its last member's boxes
            seam = clips[k - 1].clip_start + clips[k - 1].length - clip.clip_start
            tails = np.stack([per_clip[k - 1][chains[ci][-1][1], -seam:, 2:] for ci in active], axis=1)  # (seam, C, 4)
            inter, union, _ = box_overlap(boxes[:, :seam].transpose(1, 0, 2)[:, :, None], tails[:, None])
            mean_iou = frame_mean(ratio(inter, union))
            candidates = [
                (iou, hi, ci) for hi, row in enumerate(mean_iou.tolist()) for ci, iou in zip(active, row)
            ]
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

        used_hyps: set[int] = set()
        used_chains: set[int] = set()
        for iou, hi, ci in candidates:
            if iou <= iou_threshold:
                break
            if hi in used_hyps or ci in used_chains:
                continue
            chains[ci].append((k, hi))
            used_hyps.add(hi)
            used_chains.add(ci)
        chains.extend([(k, hi)] for hi in range(len(boxes)) if hi not in used_hyps)

    totals = np.zeros((len(chains), total_frames, 6))
    for total, chain in zip(totals, chains):
        weight = np.zeros(total_frames)
        for k, hi in chain:
            span = slice(clips[k].clip_start, clips[k].clip_start + clips[k].length)
            total[span] += per_clip[k][hi]
            weight[span] += 1.0
        total /= np.maximum(weight, 1.0)[:, None]  # an uncovered frame stays 0.0
    face, blink, boxes = totals[..., 0], totals[..., 1], totals[..., 2:]
    intervals = [merge_blinks(row, blink_threshold) for row in blink]
    return VideoPrediction.from_arrays(video_id, total_frames, face, boxes, blink, intervals)
