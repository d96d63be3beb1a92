"""Slow reference evaluation, kept deliberately independent of the metrics module.

Everything here is plain Python loops over scalars: its own box overlap
arithmetic, frame-by-frame tube accumulation, frame-set interval IoU, and an
O(n^2) average-precision integration that rescans the tail for the best
precision at every rank. Synthetic scenarios stamp their expected metric
values with this implementation, and the test suite cross-checks the fast
path against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..anno_model import (
    FrameBox,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    pair_videos,
)

ORACLE_ID = "naive-loop-eval-v1"

_TAUS = [round(0.50 + 0.05 * k, 2) for k in range(10)]


def _area(box: FrameBox) -> float:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def _inter(a: FrameBox, b: FrameBox) -> float:
    w = min(a.x2, b.x2) - max(a.x1, b.x1)
    h = min(a.y2, b.y2) - max(a.y1, b.y1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def _tube_iou(
    pred_boxes: Sequence[FrameBox], gt: InstanceTrack, gt_boxes: Sequence[Optional[FrameBox]]
) -> float:
    inter_sum = 0.0
    union_sum = 0.0
    for t in range(len(gt.face_presence)):
        pred_box: Optional[FrameBox] = pred_boxes[t]
        gt_box = gt_boxes[t] if gt.face_presence[t] == 1 else None
        if gt_box is None:
            union_sum += _area(pred_box)
        else:
            i = _inter(pred_box, gt_box)
            inter_sum += i
            union_sum += _area(pred_box) + _area(gt_box) - i
    if union_sum <= 0.0:
        return 0.0
    return inter_sum / union_sum


def _tiou(s1: int, e1: int, s2: int, e2: int) -> float:
    frames1 = set(range(s1, e1 + 1))
    frames2 = set(range(s2, e2 + 1))
    union = frames1 | frames2
    if not union:
        return 0.0
    return len(frames1 & frames2) / len(union)


def _ap(records: Sequence[tuple[float, bool]], num_gt: int) -> float:
    """Direct all-point integration: sum recall steps times best tail precision."""
    if num_gt == 0 or not records:
        return 0.0
    order = sorted(range(len(records)), key=lambda i: -records[i][0])
    flags = [records[i][1] for i in order]
    precisions = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / rank)
    ap = 0.0
    for i, flag in enumerate(flags):
        if not flag:
            continue
        best = 0.0
        for j in range(i, len(flags)):
            if precisions[j] > best:
                best = precisions[j]
        ap += best
    return ap / num_gt


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean, added left to right as Python 3.11's sum() adds floats; 0 when empty."""
    if not values:
        return 0.0
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def naive_evaluate(
    gts: Sequence[VideoAnnotation], preds: Sequence[VideoPrediction]
) -> dict:
    """Reference metric values: mean instance AP, per-threshold APs, blink APs.

    A video_id repeated within either list, a prediction video with no
    ground truth, or one whose num_frames differs from its ground truth's,
    raises ValueError: the pairing rule of inst_ap, pair_videos.
    """
    gt_map = pair_videos(gts, preds)
    countable = {
        ann.video_id: [
            j
            for j, track in enumerate(ann.instances)
            if any(f == 1 for f in track.face_presence)
        ]
        for ann in gts
    }
    num_gt = sum(len(v) for v in countable.values())

    pool = []
    for vp in preds:
        for hi, hyp in enumerate(vp.hypotheses):
            pool.append((vp.video_id, hi, hyp))
    pool.sort(key=lambda e: (-_mean(e[2].face_scores), e[0], e[1]))

    # each track's boxes are read once, not once per pair
    gt_boxes = {ann.video_id: [list(track.boxes) for track in ann.instances] for ann in gts}
    ious = {}
    for video_id, hi, hyp in pool:
        pred_boxes = list(hyp.boxes)
        ious[(video_id, hi)] = {
            j: _tube_iou(pred_boxes, gt_map[video_id].instances[j], gt_boxes[video_id][j])
            for j in countable[video_id]
        }

    ap_at: dict[float, float] = {}
    tp_matches: list[tuple[str, int, InstancePrediction, InstanceTrack]] = []
    for tau in _TAUS:
        taken: set[tuple[str, int]] = set()
        records = []
        for video_id, hi, hyp in pool:
            best_j, best_iou = -1, -1.0
            for j in countable[video_id]:
                if (video_id, j) in taken:
                    continue
                if ious[(video_id, hi)][j] > best_iou:
                    best_iou = ious[(video_id, hi)][j]
                    best_j = j
            hit = best_j >= 0 and best_iou >= tau
            if hit:
                taken.add((video_id, best_j))
                if tau == _TAUS[0]:
                    tp_matches.append((video_id, hi, hyp, gt_map[video_id].instances[best_j]))
            records.append((_mean(hyp.face_scores), hit))
        ap_at[tau] = _ap(records, num_gt)

    mean_ap = _mean([ap_at[t] for t in _TAUS])

    blink_gt = sum(len(gt.blinks) for _, _, _, gt in tp_matches)
    blink_aps = {}
    for thr in (0.5, 0.75):
        dets = []
        for mi, (video_id, hi, hyp, _) in enumerate(tp_matches):
            for ki, interval in enumerate(hyp.blink_intervals):
                # tie order of the ranking: video id, then hypothesis index
                dets.append((interval.confidence, video_id, hi, mi, ki))
        dets.sort(key=lambda d: (-d[0], d[1], d[2], d[4]))
        taken_blinks: set[tuple[int, int]] = set()
        records = []
        for conf, _, _, mi, ki in dets:
            interval = tp_matches[mi][2].blink_intervals[ki]
            gt_track = tp_matches[mi][3]
            best_j, best_tiou = -1, -1.0
            for j, gt_blink in enumerate(gt_track.blinks):
                if (mi, j) in taken_blinks:
                    continue
                tiou = _tiou(interval.start, interval.end, gt_blink.start, gt_blink.end)
                if tiou > best_tiou:
                    best_tiou = tiou
                    best_j = j
            hit = best_j >= 0 and best_tiou >= thr
            if hit:
                taken_blinks.add((mi, best_j))
            records.append((conf, hit))
        blink_aps[thr] = _ap(records, blink_gt)

    return {
        "inst_ap": mean_ap,
        "inst_ap_at": {f"{t:.2f}": ap_at[t] for t in _TAUS},
        "blink_ap_50": blink_aps[0.5],
        "blink_ap_75": blink_aps[0.75],
    }
