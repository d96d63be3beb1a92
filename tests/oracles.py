"""Independent brute-force oracles for the test suite.

Everything here is written from the definitions, without calling the code
under test: exhaustive assignment enumeration, grid-count rasterized IoU,
frame-set interval IoU, per-frame tube IoU re-summation, central finite
differences, a loop-based re-implementation of the RoI + dynamic
filtering update, and the frame-by-frame loops that blink merging and
interval labelling were before they became array code.
"""

import itertools
import math

import numpy as np


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


def loop_interval_frame_labels(intervals, num_frames):
    """Per-frame 0/1 labels, set frame by frame inside each inclusive (start, end) clipped to the video."""
    labels = [0] * num_frames
    for start, end in intervals:
        for t in range(max(0, start), min(num_frames - 1, end) + 1):
            labels[t] = 1
    return labels


def central_diff(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


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
