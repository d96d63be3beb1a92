"""Optimal one-to-one matching between prediction and ground-truth sets.

The matching cost of a pair sums, over frames, a weighted focal term on the
face score against the presence flag plus, on visible frames only, weighted
L1 and GIoU box terms (losses.face_terms); every pair of a prediction set
and a ground-truth set is costed in one broadcast over frames. The focal
term evaluates only the branch each presence flag selects and builds no
derivative; the analytic gradients are in losses.focal_loss and
losses.giou_loss, for the self-checks. The solver
is the exact Jonker-Volgenant algorithm from scipy, which is imported on the
first `hungarian` (or `match_instances`) call, so `import blinkdet` and the
commands that never solve an assignment load no scipy module; rectangular
matrices yield min(rows, cols) pairs and the leftover prediction rows are
reported as unmatched. `match_instances` with no predictions or no ground
truths (a clip in which nobody is visible) solves nothing and reports every
prediction as unmatched; `hungarian` itself rejects an empty matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .anno_model import InstancePrediction, InstanceTrack
from .geometry import frame_sum
from .losses import DEFAULT_W_CLS, check_frame_counts, face_terms


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


def hungarian(costs: Union[CostMatrix, np.ndarray, Sequence[Sequence[float]]]) -> Assignment:
    """Minimum-cost one-to-one assignment over a (possibly rectangular) cost matrix."""
    from scipy.optimize import linear_sum_assignment  # imported here: it costs about 0.65 s

    if not isinstance(costs, CostMatrix):
        costs = CostMatrix(np.asarray(costs))
    arr = costs.costs
    rows, cols = linear_sum_assignment(arr)
    pairs = tuple(sorted((int(r), int(c)) for r, c in zip(rows, cols)))
    total = float(arr[rows, cols].sum())
    matched_rows = {r for r, _ in pairs}
    unmatched = tuple(r for r in range(arr.shape[0]) if r not in matched_rows)
    return Assignment(pairs, total, unmatched)


def matching_costs(preds: Sequence[InstancePrediction], gts: Sequence[InstanceTrack]) -> np.ndarray:
    """(P, G) matching costs, from one broadcast over (frames, P, G)."""
    check_frame_counts(preds, gts)
    if not preds or not gts:
        return np.zeros((len(preds), len(gts)))
    face = np.array([p.face_scores for p in preds], dtype=float).T[:, :, None]  # (T, P, 1)
    boxes = np.stack([p.boxes.array for p in preds], axis=1)[:, :, None]  # (T, P, 1, 4)
    presence = np.array([g.face_presence for g in gts], dtype=bool).T[:, None, :]  # (T, 1, G)
    gt_boxes = np.stack([g.present_boxes() for g in gts], axis=1)[:, None]  # (T, 1, G, 4)
    cls, box = face_terms(face, boxes, presence, gt_boxes)
    return frame_sum(DEFAULT_W_CLS * cls + box)


def matching_cost(pred: InstancePrediction, gt: InstanceTrack) -> float:
    """Pairwise matching cost; box terms count only on frames with a visible face."""
    return float(matching_costs([pred], [gt])[0, 0])


def match_instances(preds: Sequence[InstancePrediction], gts: Sequence[InstanceTrack]) -> Assignment:
    """Build the full cost matrix and solve it; with an empty side every prediction is unmatched."""
    costs = matching_costs(preds, gts)
    if costs.size == 0:
        return Assignment((), 0.0, tuple(range(len(preds))))
    return hungarian(CostMatrix(costs))
