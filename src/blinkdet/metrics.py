"""Evaluation protocol: instance-level AP over tube IoU and blink-interval AP.

Instance AP pools hypotheses across videos, ranks them by confidence (mean
face score), and greedily matches each to the highest-tube-IoU unmatched
ground-truth instance of its own video; a match counts as a true positive
when the IoU clears the threshold. The reported number averages thresholds
0.50 to 0.95 in steps of 0.05. Blink AP then scores the blink intervals of
the instances that were true positives at IoU 0.50, against the blinks of
their matched ground-truth instances, at temporal IoU 0.50 and 0.75.

AP itself is all-point interpolated, computed on arrays over the ranked
detections: the precision at each rank (a cumulative TP count over the
rank), its monotone non-increasing envelope (a running maximum from the
last rank back), and the sum of recall increments times envelope
precision. Every float sum adds left to right (frame_sum), so the numbers
do not depend on how numpy or the Python version pair terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .anno_model import (
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    frame_mean,
    frame_targets,
    pair_videos,
)
from .geometry import frame_sum, interval_tiou, tube_ious

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
BLINK_TIOU_THRESHOLDS: tuple[float, float] = (0.5, 0.75)


@dataclass(frozen=True)
class TPMatch:
    """A hypothesis that was a true positive at tube IoU 0.50, with its ground truth."""

    video_id: str
    hyp_index: int
    gt_index: int
    pred: InstancePrediction
    gt: InstanceTrack


@dataclass
class EvalReport:
    """Full evaluation output, serializable to JSON."""

    inst_ap: float
    inst_ap_at: dict[float, float]
    blink_ap_50: float
    blink_ap_75: float
    per_video: dict[str, dict] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "inst_ap_at": {f"{t:.2f}": v for t, v in self.inst_ap_at.items()}}


def average_precision(detections: Sequence[tuple[float, bool]], num_gt: int) -> float:
    """All-point interpolated AP from (confidence, is_tp) records.

    Records are ranked by descending confidence (stable, so callers control
    tie order). The precision at each rank is the running TP count over the
    rank, the envelope is its running maximum from the last rank back, and
    AP is the envelope summed over the true positives, rank after rank with
    frame_sum, over num_gt. AP is 0 when there is no ground truth or no
    detection.
    """
    if num_gt < 0:
        raise ValueError(f"num_gt must be >= 0, got {num_gt}")
    if num_gt == 0 or not detections:
        return 0.0
    flags = np.array([d[1] for d in sorted(detections, key=lambda d: -d[0])], dtype=bool)
    precisions = np.cumsum(flags) / np.arange(1, len(flags) + 1)
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    # recall steps by 1/num_gt exactly at true positives, so sum envelope
    # values there and divide once; a perfect ranking yields exactly 1.0
    return float(frame_sum(envelope[flags])) / num_gt


def _tube_iou_matrix(vp: VideoPrediction, ann: VideoAnnotation, gt_ids: list[int]) -> np.ndarray:
    """(hypotheses, gt_ids) tube IoUs of one video, from one broadcast over its frames."""
    if not vp.hypotheses or not gt_ids:
        return np.zeros((len(vp.hypotheses), len(gt_ids)))
    # (frames, hypotheses, 4); box_overlap runs faster on a contiguous copy than on the transposed view
    pred = np.ascontiguousarray(vp.box_array.transpose(1, 0, 2))
    gt = frame_targets([ann.instances[j] for j in gt_ids])[1]
    if len(pred) != len(gt):
        raise ValueError(f"tube lengths differ: pred {len(pred)} vs gt {len(gt)}")
    return tube_ious(pred[:, :, None], gt[:, None])


def _countable(ann: VideoAnnotation) -> list[int]:
    """Indices of the instances that count as ground truth: those with a visible frame."""
    return [j for j, track in enumerate(ann.instances) if track.num_visible > 0]


def _ranked_detections(
    gt_map: dict[str, VideoAnnotation], countable: dict[str, list[int]], preds: Sequence[VideoPrediction]
) -> list[tuple[float, str, int, InstancePrediction, list[float]]]:
    """(confidence, video_id, hyp index, hyp, tube IoUs with the video's countable GT), best first."""
    entries = []
    for vp in preds:
        ious = _tube_iou_matrix(vp, gt_map[vp.video_id], countable[vp.video_id]).tolist()
        confidences = frame_mean(vp.face_array.T).tolist()  # InstancePrediction.confidence of every hypothesis
        entries += [
            (confidence, vp.video_id, hi, hyp, row)
            for hi, (confidence, hyp, row) in enumerate(zip(confidences, vp.hypotheses, ious))
        ]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def inst_ap(
    gts: Sequence[VideoAnnotation], preds: Sequence[VideoPrediction]
) -> tuple[float, dict[float, float], list[TPMatch]]:
    """Instance AP per tube-IoU threshold of IOU_THRESHOLDS, their mean, and the TP matches.

    The returned match list is collected at the first (lowest) threshold,
    0.50; it feeds the blink AP. Ground-truth instances with zero
    visible frames are excluded both from the ground-truth count and from
    matching. A prediction video must name a ground-truth video and cover
    its num_frames; otherwise ValueError names the video (pair_videos).
    """
    gt_map = pair_videos(gts, preds)
    countable = {ann.video_id: _countable(ann) for ann in gts}
    num_gt = sum(len(ids) for ids in countable.values())

    ranked = _ranked_detections(gt_map, countable, preds)

    ap_at: dict[float, float] = {}
    tp_matches: list[TPMatch] = []
    for tau in IOU_THRESHOLDS:
        matched: set[tuple[str, int]] = set()
        records: list[tuple[float, bool]] = []
        for confidence, video_id, hi, hyp, ious in ranked:
            best_j = -1
            best_iou = -1.0
            for j, iou in zip(countable[video_id], ious):
                if (video_id, j) not in matched and iou > best_iou:
                    best_iou = iou
                    best_j = j
            is_tp = best_j >= 0 and best_iou >= tau
            if is_tp:
                matched.add((video_id, best_j))
                if tau == IOU_THRESHOLDS[0]:
                    tp_matches.append(
                        TPMatch(video_id, hi, best_j, hyp, gt_map[video_id].instances[best_j])
                    )
            records.append((confidence, is_tp))
        ap_at[tau] = average_precision(records, num_gt)

    mean_ap = float(frame_mean(np.array([ap_at[t] for t in IOU_THRESHOLDS])))
    return mean_ap, ap_at, tp_matches


def blink_ap(tp_matches: Sequence[TPMatch], tiou_threshold: float) -> float:
    """AP over blink intervals pooled from the true-positive instances.

    A predicted interval is a true positive when its temporal IoU with a
    still-unmatched blink of its instance's matched ground truth clears the
    threshold (greedy by descending interval confidence). The ground-truth
    count is the number of blinks within the matched ground-truth instances.
    """
    num_gt = sum(len(m.gt.blinks) for m in tp_matches)
    detections = [
        (interval.confidence, mi, ki)
        for mi, m in enumerate(tp_matches)
        for ki, interval in enumerate(m.pred.blink_intervals)
    ]
    detections.sort(key=lambda d: (-d[0], tp_matches[d[1]].video_id, tp_matches[d[1]].hyp_index, d[2]))

    matched: set[tuple[int, int]] = set()
    records: list[tuple[float, bool]] = []
    for conf, mi, ki in detections:
        interval = tp_matches[mi].pred.blink_intervals[ki]
        best_j = -1
        best_tiou = -1.0
        for j, gt_blink in enumerate(tp_matches[mi].gt.blinks):
            if (mi, j) in matched:
                continue
            tiou = interval_tiou(interval, gt_blink)
            if tiou > best_tiou:
                best_tiou = tiou
                best_j = j
        is_tp = best_j >= 0 and best_tiou >= tiou_threshold
        if is_tp:
            matched.add((mi, best_j))
        records.append((conf, is_tp))
    return average_precision(records, num_gt)


def evaluate(
    gts: Sequence[VideoAnnotation], preds: Sequence[VideoPrediction]
) -> EvalReport:
    """Run the full protocol and assemble the report with diagnostics."""
    mean_ap, ap_at, tp_matches = inst_ap(gts, preds)
    blink_50 = blink_ap(tp_matches, BLINK_TIOU_THRESHOLDS[0])
    blink_75 = blink_ap(tp_matches, BLINK_TIOU_THRESHOLDS[1])

    diagnostics: list[str] = []
    num_gt = sum(len(_countable(ann)) for ann in gts)
    num_det = sum(len(vp.hypotheses) for vp in preds)
    if num_gt == 0 and num_det == 0:
        diagnostics.append("AP undefined: no ground-truth instances and no detections; reported as 0")
    elif num_gt == 0:
        diagnostics.append("no countable ground-truth instances; instance AP reported as 0")
    elif num_det == 0:
        diagnostics.append("no detections")
    if not tp_matches:
        diagnostics.append("no true-positive instances at tube IoU 0.50; blink APs are 0 by definition")

    pred_map = {vp.video_id: vp for vp in preds}
    tp_by_video = Counter(m.video_id for m in tp_matches)
    per_video = {}
    for ann in gts:
        vp = pred_map.get(ann.video_id)
        per_video[ann.video_id] = {
            "gt_instances": len(_countable(ann)),
            "gt_blinks": sum(len(t.blinks) for t in ann.instances),
            "hypotheses": len(vp.hypotheses) if vp else 0,
            "tp_at_50": tp_by_video[ann.video_id],
        }

    metadata = {
        "iou_thresholds": list(IOU_THRESHOLDS),
        "detection_pooling": "pooled across videos; candidate ground truths restricted to the same video",
        "instance_confidence": "mean face score",
    }
    return EvalReport(
        inst_ap=mean_ap,
        inst_ap_at=ap_at,
        blink_ap_50=blink_50,
        blink_ap_75=blink_75,
        per_video=per_video,
        diagnostics=diagnostics,
        metadata=metadata,
    )
