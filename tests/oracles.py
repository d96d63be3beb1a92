"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions, without calling the code
under test: exhaustive assignment enumeration, grid-count rasterized IoU,
frame-set interval IoU, per-frame tube IoU re-summation, central finite
differences, a loop-based re-implementation of the RoI + dynamic
filtering update, and the frame-by-frame loops that blink merging,
interval labelling, the GIoU gradient and the gradient self-check were
before they became array code. The JSON readers as they were before the
prediction reader built one array per video are kept too; they share only
jsonio's per-value validators with the code under test. So is finalize as
it was before it built its clip from one stacked check: one checked
hypothesis per kept row. So is unmatched_loss as it was before it read one
broadcast over its row's set: the negative focal branch of one row.
"""

import itertools
import math

import numpy as np

from blinkdet.anno_model import (
    BlinkInterval,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    frame_sum,
)
from blinkdet.cli_io.jsonio import (
    SchemaError,
    _as_int,
    _as_list,
    _as_score,
    _check_known,
    _parse_box,
    _parse_videos,
    _pixel_scale,
    _require,
)
from blinkdet.losses import DEFAULT_FOCAL_ALPHA, DEFAULT_FOCAL_GAMMA, EPS
from blinkdet.postprocess import ClipPrediction, merge_blinks


def brute_force_assignment(matrix):
    """Minimum-cost injection by exhaustive enumeration; returns (pairs, cost).

    Candidate costs are summed in row order so they are bit-comparable with
    an implementation that sums row-sorted pairs.
    """
    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    best_pairs, best_cost = None, math.inf
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            pairs = [(i, perm[i]) for i in range(rows)]
            cost = float(np.array([m[i, j] for i, j in pairs]).sum())
            if cost < best_cost:
                best_cost, best_pairs = cost, pairs
    else:
        for perm in itertools.permutations(range(rows), cols):
            pairs = sorted((perm[j], j) for j in range(cols))
            cost = float(np.array([m[i, j] for i, j in pairs]).sum())
            if cost < best_cost:
                best_cost, best_pairs = cost, pairs
    return best_pairs, best_cost


def rasterized_iou(box_a, box_b, unit):
    """Grid-count IoU; exact when all coordinates are multiples of unit."""

    def cells(box):
        x1 = round(box[0] / unit)
        y1 = round(box[1] / unit)
        x2 = round(box[2] / unit)
        y2 = round(box[3] / unit)
        return x1, y1, x2, y2

    ax1, ay1, ax2, ay2 = cells(box_a)
    bx1, by1, bx2, by2 = cells(box_b)
    iw = max(0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    area_a = max(0, ax2 - ax1) * max(0, ay2 - ay1)
    area_b = max(0, bx2 - bx1) * max(0, by2 - by1)
    union = area_a + area_b - inter
    if union == 0:
        return 0.0
    return inter / union


def enum_tiou(s1, e1, s2, e2):
    """Frame-set interval IoU by literal set enumeration."""
    a = set(range(s1, e1 + 1))
    b = set(range(s2, e2 + 1))
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def direct_tube_iou(pred_boxes, gt_boxes):
    """Per-frame re-summation of the tube IoU from scalar area arithmetic.

    Boxes are (x1, y1, x2, y2) tuples or None.
    """
    inter_sum = 0.0
    union_sum = 0.0
    for p, g in zip(pred_boxes, gt_boxes):
        pa = 0.0 if p is None else max(0.0, p[2] - p[0]) * max(0.0, p[3] - p[1])
        ga = 0.0 if g is None else max(0.0, g[2] - g[0]) * max(0.0, g[3] - g[1])
        if p is None and g is None:
            continue
        if p is None or g is None:
            union_sum += pa + ga
            continue
        iw = min(p[2], g[2]) - max(p[0], g[0])
        ih = min(p[3], g[3]) - max(p[1], g[1])
        inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
        inter_sum += inter
        union_sum += pa + ga - inter
    if union_sum <= 0.0:
        return 0.0
    return inter_sum / union_sum


def loop_merge_blinks(scores, threshold):
    """(start, end, confidence) of each run above threshold, the run's scores summed frame after frame."""
    intervals = []
    run_start = None
    run_sum = 0.0
    for t, score in enumerate([*scores, threshold]):  # the threshold, appended, closes a last run
        if score > threshold:
            if run_start is None:
                run_start = t
                run_sum = 0.0
            run_sum += float(score)
        elif run_start is not None:
            intervals.append((run_start, t - 1, run_sum / (t - run_start)))
            run_start = None
    return intervals


def per_object_finalize(out, clip_start, keep_top, video_id, blink_threshold):
    """finalize as one checked InstancePrediction per kept row: ranked by the frame-after-frame mean face score
    (ties keep the lower query index), each row's blink scores merged on their own."""
    face, boxes, blink = out.final.face_scores, out.final.boxes, out.final.blink_scores
    order = np.argsort(-frame_sum(face.T) / face.shape[1], kind="stable")[:keep_top]
    hypotheses = [
        InstancePrediction(face[i], boxes[i], blink[i], merge_blinks(blink[i], blink_threshold)) for i in order
    ]
    return ClipPrediction(video_id, clip_start, face.shape[1], tuple(hypotheses))


def per_row_unmatched_loss(pred):
    """-(1 - alpha) * q^gamma * log(1 - q) of the row's face scores q, clamped to [EPS, 1 - EPS], added frame
    after frame: the loss of one prediction matched to nothing, from that row alone."""
    q = np.minimum(np.maximum(np.array(pred.face_scores, dtype=float), EPS), 1.0 - EPS)
    return float(frame_sum(-(1.0 - DEFAULT_FOCAL_ALPHA) * q**DEFAULT_FOCAL_GAMMA * np.log(1.0 - q)))


def loop_interval_frame_labels(intervals, num_frames):
    """Per-frame 0/1 labels, set frame by frame inside each inclusive (start, end) clipped to the video."""
    labels = [0] * num_frames
    for start, end in intervals:
        for t in range(max(0, start), min(num_frames - 1, end) + 1):
            labels[t] = 1
    return labels


def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def scalar_giou_with_grad(pred, gt):
    """GIoU of two corner boxes (x1, y1, x2, y2) and its gradient w.r.t. pred's corners, in scalar branches.

    Ties in the max/min corner selections take the subgradient on the
    prediction side. Areas are not floored: the boxes are valid.
    """
    px1, py1, px2, py2 = pred
    gx1, gy1, gx2, gy2 = gt

    pw, ph = px2 - px1, py2 - py1
    area_p = pw * ph
    area_g = (gx2 - gx1) * (gy2 - gy1)
    d_area_p = np.array([-ph, -pw, ph, pw])

    iw = min(px2, gx2) - max(px1, gx1)
    ih = min(py2, gy2) - max(py1, gy1)
    if iw > 0.0 and ih > 0.0:
        inter = iw * ih
        d_inter = np.array(
            [
                -ih if px1 >= gx1 else 0.0,
                -iw if py1 >= gy1 else 0.0,
                ih if px2 <= gx2 else 0.0,
                iw if py2 <= gy2 else 0.0,
            ]
        )
    else:
        inter = 0.0
        d_inter = np.zeros(4)

    union = area_p + area_g - inter
    d_union = d_area_p - d_inter
    if union > 0.0:
        iou = inter / union
        d_iou = (d_inter * union - inter * d_union) / union**2
    else:
        iou = 0.0
        d_iou = np.zeros(4)

    ew = max(px2, gx2) - min(px1, gx1)
    eh = max(py2, gy2) - min(py1, gy1)
    enclose = ew * eh
    d_enclose = np.array(
        [
            -eh if px1 <= gx1 else 0.0,
            -ew if py1 <= gy1 else 0.0,
            eh if px2 >= gx2 else 0.0,
            ew if py2 >= gy2 else 0.0,
        ]
    )
    if enclose > 0.0:
        # giou = iou - 1 + union / enclose
        giou = iou - (enclose - union) / enclose
        d_giou = d_iou + (d_union * enclose - union * d_enclose) / enclose**2
    else:
        giou = iou
        d_giou = d_iou
    return giou, d_giou


def loop_gradient_checks(samples, seed, focal_loss, h=1e-5):
    """The gradient self-check sample by sample: focal_loss on one score, scalar_giou_with_grad on one pair.

    Draws as the self-check does: all focal samples, then each box pair,
    redrawn while a predicted and a ground-truth coordinate of one axis lie
    within 10 h.
    """
    rng = np.random.default_rng(seed)
    failures = []

    max_focal = 0.0
    for _ in range(samples):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        _, grad = focal_loss(p, y)
        num = (focal_loss(p + h, y)[0] - focal_loss(p - h, y)[0]) / (2 * h)
        rel = abs(grad - num) / max(abs(num), 1e-8)
        max_focal = max(max_focal, rel)
        if rel >= 1e-4:
            failures.append(f"focal p={p:.6f} y={y}: rel err {rel:.3e}")

    def random_box():
        x1, y1 = rng.uniform(0.0, 0.6, 2)
        w, hgt = rng.uniform(0.1, 0.4, 2)
        return (float(x1), float(y1), float(x1 + w), float(y1 + hgt))

    max_giou = 0.0
    for _ in range(samples):
        while True:
            pb, gb = random_box(), random_box()
            if min(abs(a - b) for i, a in enumerate(pb) for j, b in enumerate(gb) if i % 2 == j % 2) > 10 * h:
                break
        loss = lambda box: 1.0 - scalar_giou_with_grad(box, gb)[0]
        grad = -scalar_giou_with_grad(pb, gb)[1]
        for k in range(4):
            plus, minus = list(pb), list(pb)
            plus[k] += h
            minus[k] -= h
            num = (loss(plus) - loss(minus)) / (2 * h)
            rel = abs(grad[k] - num) / max(abs(num), 1e-6)
            max_giou = max(max_giou, rel)
            if rel >= 1e-4:
                failures.append(f"giou box={pb} gt={gb} coord {k}: rel err {rel:.3e}")

    return {"max_rel_focal": max_focal, "max_rel_giou": max_giou, "failures": failures}


def naive_bilinear(fmap, x, y):
    """Scalar bilinear sample; cell (r, c) sits at coordinates (c + .5, r + .5)."""
    _, fh, fw = fmap.shape
    u = min(max(x - 0.5, 0.0), fw - 1.0)
    v = min(max(y - 0.5, 0.0), fh - 1.0)
    u0, v0 = int(math.floor(u)), int(math.floor(v))
    u1, v1 = min(u0 + 1, fw - 1), min(v0 + 1, fh - 1)
    fu, fv = u - u0, v - v0
    return (
        fmap[:, v0, u0] * (1 - fv) * (1 - fu)
        + fmap[:, v0, u1] * (1 - fv) * fu
        + fmap[:, v1, u0] * fv * (1 - fu)
        + fmap[:, v1, u1] * fv * fu
    )


def naive_roi(fmap, box, grid):
    """Loop-based RoI align; returns (grid, grid, C)."""
    _, fh, fw = fmap.shape
    x1, y1, x2, y2 = box
    out = np.zeros((grid, grid, fmap.shape[0]))
    for i in range(grid):
        for j in range(grid):
            x = x1 * fw + (j + 0.5) / grid * (x2 - x1) * fw
            y = y1 * fh + (i + 0.5) / grid * (y2 - y1) * fh
            out[i, j] = naive_bilinear(fmap, x, y)
    return out


def naive_video_interaction(queries, proposals, feature_values, stage, grid):
    """Loop re-implementation of the dynamic-filter query update."""
    n, t_total, channels = queries.shape
    hidden = channels // 4
    out = np.zeros((n, t_total, channels))
    for i in range(n):
        for t in range(t_total):
            roi = naive_roi(feature_values[t], proposals[i, t], grid)
            x = roi.reshape(grid * grid, channels)
            filters = queries[i, t] @ stage.filter_gen
            m1 = filters[: channels * hidden].reshape(channels, hidden)
            m2 = filters[channels * hidden :].reshape(hidden, channels)
            h1 = np.maximum(x @ m1, 0.0)
            h2 = h1 @ m2
            out[i, t] = h2.reshape(-1) @ stage.update_w + stage.update_b
    return out


# The JSON readers as they were before the prediction reader built one array per video: each box row
# through numpy's nested-list conversion, each interval through the validator chain, and every
# hypothesis built, and checked, as its own InstancePrediction. The per-value validators are
# jsonio's own, the one statement of each rule and message.


def _reference_ints(obj, key, path):
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    return [v if type(v) is int else _as_int(v, f"{path}[{t}]") for t, v in enumerate(_as_list(items, path))]


def _reference_scores(obj, key, path):
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    return [
        v if type(v) is float and 0.0 <= v <= 1.0 else _as_score(v, f"{path}[{t}]")
        for t, v in enumerate(_as_list(items, path))
    ]


def _reference_boxes(obj, key, path, width, height, nullable):
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    rows = []
    for t, raw in enumerate(_as_list(items, path)):
        if type(raw) is list and len(raw) == 4:
            x1, y1, x2, y2 = raw
            if type(x1) is type(y1) is type(x2) is type(y2) is float and math.isfinite(x1 + y1 + x2 + y2):
                rows.append(raw)
                continue
        if raw is None and nullable:
            rows.append((math.nan,) * 4)
        else:
            rows.append(_parse_box(raw, f"{path}[{t}]"))
    return np.array(rows, dtype=float).reshape(-1, 4) / _pixel_scale(width, height)


def _reference_blink(value, path, with_confidence):
    allowed = {"start", "end", "confidence"} if with_confidence else {"start", "end"}
    start = _as_int(_require(value, "start", path), f"{path}.start")
    end = _as_int(_require(value, "end", path), f"{path}.end")
    _check_known(value, allowed, path)
    if with_confidence:
        confidence = _as_score(_require(value, "confidence", path), f"{path}.confidence")
    else:
        confidence = 1.0
    return BlinkInterval(start, end, confidence)


def reference_parse_annotations(data, source="$"):
    videos = []
    for vpath, video_id, num_frames, fps, width, height, items in _parse_videos(data, source, "instances", True):
        instances = []
        for ii, inst in enumerate(items):
            ipath = f"{vpath}.instances[{ii}]"
            _check_known(inst, {"presence", "boxes", "blinks"}, ipath)
            presence = _reference_ints(inst, "presence", ipath)
            boxes = _reference_boxes(inst, "boxes", ipath, width, height, nullable=True)
            blinks = [
                _reference_blink(b, f"{ipath}.blinks[{k}]", with_confidence=False)
                for k, b in enumerate(_as_list(_require(inst, "blinks", ipath), f"{ipath}.blinks"))
            ]
            instances.append(InstanceTrack(presence, boxes, blinks))
        videos.append(VideoAnnotation(video_id, num_frames, fps, width, height, tuple(instances)))
    return videos


def reference_parse_predictions(data, source="$"):
    videos = []
    for vpath, video_id, num_frames, _, width, height, items in _parse_videos(data, source, "hypotheses", False):
        hypotheses = []
        for hi, hyp in enumerate(items):
            hpath = f"{vpath}.hypotheses[{hi}]"
            _check_known(hyp, {"face_scores", "boxes", "blink_scores", "blink_intervals", "presence"}, hpath)
            face_scores = _reference_scores(hyp, "face_scores", hpath)
            boxes = _reference_boxes(hyp, "boxes", hpath, width, height, nullable=False)
            blink_scores = _reference_scores(hyp, "blink_scores", hpath)
            intervals = [
                _reference_blink(b, f"{hpath}.blink_intervals[{k}]", with_confidence=True)
                for k, b in enumerate(
                    _as_list(_require(hyp, "blink_intervals", hpath), f"{hpath}.blink_intervals")
                )
            ]
            for name, seq in (("face_scores", face_scores), ("boxes", boxes), ("blink_scores", blink_scores)):
                if len(seq) != num_frames:
                    raise SchemaError(
                        f"{hpath}.{name}", f"length {len(seq)} != num_frames {num_frames}"
                    )
            for k, interval in enumerate(intervals):
                kpath = f"{hpath}.blink_intervals[{k}]"
                if interval.start > interval.end:
                    raise SchemaError(kpath, f"start <= end violated ({interval.start} > {interval.end})")
                if interval.start < 0 or interval.end > num_frames - 1:
                    raise SchemaError(kpath, "interval outside frame range")
            hypotheses.append(InstancePrediction(face_scores, boxes, blink_scores, intervals))
        videos.append(VideoPrediction(video_id, num_frames, tuple(hypotheses)))
    return videos
