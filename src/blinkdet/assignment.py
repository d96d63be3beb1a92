"""Optimal one-to-one matching between prediction and ground-truth sets.

The matching cost of a pair sums, over frames, a weighted focal term on the
face score against the presence flag plus, on visible frames only, weighted
L1 and GIoU box terms (losses.face_terms); every pair of a prediction set
and a ground-truth set is costed in one broadcast over frames. The focal
term selects, per frame, the branch of its presence flag and builds no
derivative; the analytic gradients are in losses.focal_loss and
losses.giou_loss, for the self-checks. The solver is exact and in this
module: the rectangular shortest-augmenting-path algorithm of Crouse (2016,
"On implementing 2D rectangular assignment algorithms"), ported from
scipy's `linear_sum_assignment` with its operation order and tie rule, so
it returns the same pairs as scipy for every finite matrix. When the first
minimum of every row of the (wide) matrix lies in a column of its own,
that assignment is optimal and is what the augmenting loop returns, so it
is taken directly. Rectangular matrices yield min(rows, cols) pairs and the
leftover prediction rows are reported as unmatched. `match_instances` with
no predictions or no ground truths (a clip in which nobody is visible)
solves nothing and reports every prediction as unmatched; `hungarian`
itself rejects an empty matrix, and a total cost that overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .anno_model import Hypotheses, InstancePrediction, InstanceTrack, check_tube_lengths
from .geometry import frame_sum
from .losses import DEFAULT_W_CLS, face_terms


@dataclass(frozen=True)
class CostMatrix:
    """Finite pairwise costs, predictions on rows, ground truths on columns."""

    costs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.costs, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cost matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "costs", arr)


@dataclass(frozen=True)
class Assignment:
    """One-to-one assignment: min(rows, cols) pairs plus leftover prediction rows."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    unmatched_predictions: tuple[int, ...]


def _augmenting_paths(cost: list[list[float]], num_cols: int) -> list[int]:
    """Column of each row of a wide matrix, by one shortest augmenting path per row (Crouse 2016).

    Every comparison and every sum is made in the order scipy makes them, so
    ties and rounding resolve the same way.
    """
    u = [0.0] * len(cost)
    v = [0.0] * num_cols
    path = [-1] * num_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * num_cols
    for cur in range(len(cost)):
        min_val = 0.0
        remaining = list(range(num_cols - 1, -1, -1))  # reversed: a constant matrix gives the identity
        shortest = [math.inf] * num_cols
        seen_rows, seen_cols = [], []
        i, sink = cur, -1
        while sink == -1:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # among equal costs prefer a free column: it ends the path
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == math.inf:  # scipy's infeasibility test; finite costs reach it only by overflow
                raise ValueError("the assignment's reduced costs overflow while solving")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows:
            if i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _solve(arr: np.ndarray) -> list[tuple[int, int]]:
    """The (row, column) pairs of a minimum-cost assignment, sorted by row: the pairs scipy returns."""
    tall = arr.shape[0] > arr.shape[1]
    cost = arr.T if tall else arr
    col4row = cost.argmin(axis=1).tolist()  # the first minimum of each row
    # In distinct columns these minima are optimal, and each row's augmenting path stops at its
    # own at once: the tie rule picks the lowest free column among equal costs.
    if len(set(col4row)) < len(col4row):
        col4row = _augmenting_paths(cost.tolist(), cost.shape[1])
    if tall:
        return sorted(zip(col4row, range(len(col4row))))
    return list(enumerate(col4row))


def hungarian(costs: Union[CostMatrix, np.ndarray, Sequence[Sequence[float]]]) -> Assignment:
    """Minimum-cost one-to-one assignment over a (possibly rectangular) cost matrix."""
    if not isinstance(costs, CostMatrix):
        costs = CostMatrix(np.asarray(costs))
    arr = costs.costs
    pairs = tuple(_solve(arr))
    rows, cols = zip(*pairs)
    with np.errstate(over="ignore"):
        total = float(arr[rows, cols].sum())
    if not math.isfinite(total):
        raise ValueError("the assignment's total cost overflows: its costs are finite but their sum is not")
    matched_rows = set(rows)
    unmatched = tuple(r for r in range(arr.shape[0]) if r not in matched_rows)
    return Assignment(pairs, total, unmatched)


def matching_costs(preds: Sequence[InstancePrediction], gts: Sequence[InstanceTrack]) -> np.ndarray:
    """(P, G) matching costs, from one broadcast over (frames, G, P), transposed.

    Predictions lie on the innermost axis, so the elementwise loops run P
    long over contiguous memory. They are read from the stacked arrays of
    Hypotheses, which other rows are stacked into once. Every prediction
    and track covers the first one's frames: otherwise ValueError names a
    prediction that differs from the first (Hypotheses), or else a track
    that differs from the predictions (check_tube_lengths).
    """
    num_frames = len(preds[0].face_scores) if preds else len(gts[0].face_presence) if gts else 0
    preds = Hypotheses(preds, num_frames, "predictions", "")
    check_tube_lengths(num_frames, (len(gt.face_presence) for gt in gts))
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    face = preds.face_array.T.copy()[:, None]  # (T, 1, P)
    # (T, 1, P, 4), P-contiguous: each corner [..., k] strides 8 bytes along P
    boxes = preds.box_array.transpose(1, 2, 0).copy().swapaxes(1, 2)[:, None]
    presence, gt_boxes = (np.stack([gt.targets[k] for gt in gts], axis=1) for k in (0, 1))
    cls, box = face_terms(face, boxes, presence[:, :, None], gt_boxes[:, :, None])  # (T, G, 1) and (T, G, 1, 4)
    box += DEFAULT_W_CLS * cls
    return frame_sum(box).T


def matching_cost(pred: InstancePrediction, gt: InstanceTrack) -> float:
    """Pairwise matching cost; box terms count only on frames with a visible face."""
    return float(matching_costs([pred], [gt])[0, 0])


def match_instances(preds: Sequence[InstancePrediction], gts: Sequence[InstanceTrack]) -> Assignment:
    """Build the full cost matrix and solve it; with an empty side every prediction is unmatched."""
    costs = matching_costs(preds, gts)
    if costs.size == 0:
        return Assignment((), 0.0, tuple(range(len(preds))))
    return hungarian(CostMatrix(costs))
