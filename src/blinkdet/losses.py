"""Training losses, and the analytic gradients that self-check them.

Matched prediction/ground-truth pairs are scored with a focal term on the
per-frame face scores, an L1 + GIoU term on boxes of visible frames, and a
focal term on the frame-level blink scores against labels derived from the
ground-truth blink intervals. Unmatched predictions are pushed toward
face score 0. Losses are reported as unnormalized per-instance sums.

The matching cost (through `face_terms`) and the training losses take their
focal terms from `focal_terms`, one selection between the two label
branches with no derivative; `unmatched_loss` evaluates the negative branch
alone, for every row of a set of hypotheses in one broadcast over (H, T)
on the first call for any of its rows (`InstancePrediction.per_set`);
later calls read their row's value. Concurrent first calls may each
compute the values; they store equal values. `matching_costs` and
`instance_losses` read a ground-truth track's presence, corners and blink
labels from `InstanceTrack.targets`, built once per track object. The
analytic gradients live in `focal_loss` (whose loss is `focal_terms`) and
`giou_loss`, for `run_gradient_checks` and the gradient tests. `giou_loss` takes intersection, union and GIoU from
`geometry.box_overlap` and adds only their derivative, as array expressions
over corner boxes (..., 4), so `run_gradient_checks` checks all its samples
in one batch. Box areas are floored at 0, as in `box_overlap`: a predicted
box with x2 < x1 or y2 < y1 has area 0, and its loss is 1 - `box_giou`.

Scores are clamped to [EPS, 1 - EPS] before any logarithm; the returned
derivatives are of the clamped function (flat outside the clamp window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anno_model import InstancePrediction, InstanceTrack, check_tube_lengths
from .geometry import box_overlap, frame_sum

EPS = 1e-7

DEFAULT_FOCAL_ALPHA = 0.25
DEFAULT_FOCAL_GAMMA = 2.0
DEFAULT_W_CLS = 2.0  # matching cost only
DEFAULT_W_L1 = 5.0
DEFAULT_W_GIOU = 2.0
DEFAULT_LAMBDA_BLINK = 5.0
GRADCHECK_STEP = 1e-5  # central-difference step of run_gradient_checks


@dataclass(frozen=True)
class LossBreakdown:
    """Per-instance loss terms; total = face_cls + face_box + DEFAULT_LAMBDA_BLINK * blink."""

    face_cls: float
    face_box: float
    blink: float
    total: float


def _focal_positive(q):
    """-alpha * (1-q)^gamma * log(q) of a clamped score q."""
    return -DEFAULT_FOCAL_ALPHA * (1.0 - q) ** DEFAULT_FOCAL_GAMMA * np.log(q)


def _focal_negative(q):
    """-(1-alpha) * q^gamma * log(1-q) of a clamped score q."""
    return -(1.0 - DEFAULT_FOCAL_ALPHA) * q**DEFAULT_FOCAL_GAMMA * np.log(1.0 - q)


def _clamped(p) -> np.ndarray:
    """p clamped to [EPS, 1 - EPS] before any logarithm (np.clip, minus its dispatch)."""
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)


def focal_terms(p, y):
    """Binary focal loss of the score p against the label y, with no derivative.

    With alpha = DEFAULT_FOCAL_ALPHA and gamma = DEFAULT_FOCAL_GAMMA,
    y=1: -alpha * (1-p)^gamma * log(p); y=0: -(1-alpha) * p^gamma * log(1-p).
    p and y broadcast elementwise; scalars in give scalars out.
    """
    q = _clamped(np.asarray(p, dtype=float))
    return np.where(np.asarray(y, dtype=bool), _focal_positive(q), _focal_negative(q))[()]


def focal_loss(p, y):
    """Binary focal loss (focal_terms) and its derivative with respect to the score p."""
    alpha, gamma = DEFAULT_FOCAL_ALPHA, DEFAULT_FOCAL_GAMMA
    p = np.asarray(p, dtype=float)
    q = _clamped(p)
    log_q, log_1q = np.log(q), np.log(1.0 - q)
    pos_grad = alpha * gamma * (1.0 - q) ** (gamma - 1.0) * log_q - alpha * (1.0 - q) ** gamma / q
    neg_grad = -(1.0 - alpha) * gamma * q ** (gamma - 1.0) * log_1q + (1.0 - alpha) * q**gamma / (1.0 - q)
    positive = np.asarray(y, dtype=bool)
    clamped = (p < EPS) | (p > 1.0 - EPS)  # the clamped region is flat
    grad = np.where(clamped, 0.0, np.where(positive, pos_grad, neg_grad))
    return focal_terms(p, y), grad[()]


def _floored_area_grad(extent, lo_side, hi_side) -> np.ndarray:
    """Gradient of max(w, 0) * max(h, 0) w.r.t. the predicted corners (x1, y1, x2, y2).

    extent = (w, h) = hi - lo; lo_side and hi_side say where the predicted
    box's (x1, y1) sets lo and its (x2, y2) sets hi.
    """
    d_extent = (extent > 0.0) * np.maximum(extent, 0.0)[..., ::-1]
    return np.concatenate([-(lo_side * d_extent), hi_side * d_extent], axis=-1)


def _giou_with_grad(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GIoU of corner boxes (..., 4) and its gradient w.r.t. pred's corners.

    The values come from box_overlap; gt has positive area, so the union
    and the enclosing box do too. Ties in the max/min corner selections
    take the subgradient on the prediction side; they occur on a
    measure-zero set.
    """
    inter, union, giou = box_overlap(pred, gt)
    lo, hi, gt_lo, gt_hi = pred[..., :2], pred[..., 2:], gt[..., :2], gt[..., 2:]
    d_inter = _floored_area_grad(np.minimum(hi, gt_hi) - np.maximum(lo, gt_lo), lo >= gt_lo, hi <= gt_hi)
    d_union = _floored_area_grad(hi - lo, True, True) - d_inter
    d_enclose = _floored_area_grad(np.maximum(hi, gt_hi) - np.minimum(lo, gt_lo), lo <= gt_lo, hi >= gt_hi)
    # giou = I/U - 1 + U/E; with r = U/E = 1 + giou - I/U, d giou = (dI - (I/U) dU + r (dU - r dE)) / U
    iou = inter / union
    r = 1.0 + giou - iou
    d_giou = d_inter + (r - iou)[..., None] * d_union - (r * r)[..., None] * d_enclose
    return giou, d_giou / union[..., None]


def giou_loss(pred, gt) -> tuple[float, np.ndarray]:
    """GIoU loss 1 - GIoU in [0, 2] and its gradient w.r.t. pred's corners.

    pred and gt are FrameBoxes or corner boxes (..., 4) that broadcast
    together; one pair of boxes gives a float and a gradient of shape (4,).
    """
    pred, gt = np.asarray(pred, dtype=float), np.asarray(gt, dtype=float)
    degenerate = ~np.all(gt[..., 2:] > gt[..., :2], axis=-1)  # NaN corners too
    if degenerate.any():
        raise ValueError(f"degenerate ground-truth box {tuple(gt[degenerate][0].tolist())}")
    giou, d_giou = _giou_with_grad(pred, gt)
    return 1.0 - giou, -d_giou


def face_terms(
    face_scores: np.ndarray,
    boxes: np.ndarray,
    presence: np.ndarray,
    gt_boxes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame face focal term and box term, shared by the matching cost and the loss.

    Arguments broadcast elementwise (boxes with a trailing axis of 4). The
    box term is w_l1 * L1 + w_giou * (1 - GIoU), L1 being the mean absolute
    difference of the four corners; it is 0 where the face is absent.
    """
    d = np.subtract(boxes, gt_boxes)
    np.abs(d, out=d)
    l1 = d[..., 0] + d[..., 1]
    l1 += d[..., 2]
    l1 += d[..., 3]
    l1 /= 4.0
    giou = box_overlap(boxes, gt_boxes)[2]
    np.subtract(1.0, giou, out=giou)
    giou *= DEFAULT_W_GIOU
    l1 *= DEFAULT_W_L1
    l1 += giou
    return focal_terms(face_scores, presence), np.where(presence, l1, 0.0)


def instance_losses(pred: InstancePrediction, gt: InstanceTrack) -> LossBreakdown:
    """Losses of one matched prediction/ground-truth pair over the same frames (check_tube_lengths), summed."""
    check_tube_lengths(len(pred.face_scores), [len(gt.face_presence)])
    presence, gt_boxes, labels = gt.targets
    cls, box = face_terms(pred.face_array, pred.boxes.array, presence, gt_boxes)
    blink_terms = focal_terms(pred.blink_array, labels)
    face_cls, face_box, blink = (float(frame_sum(x)) for x in (cls, box, blink_terms))
    return LossBreakdown(face_cls, face_box, blink, face_cls + face_box + DEFAULT_LAMBDA_BLINK * blink)


def _unmatched_losses(face: np.ndarray) -> list[float]:
    """unmatched_loss of each row of the face scores (H, T): frame_sum of the transposed stack adds each row
    frame after frame, as over the row alone, so each value is bit-identical to the row's own sum."""
    return frame_sum(_focal_negative(_clamped(face)).T).tolist()


def unmatched_loss(pred: InstancePrediction) -> float:
    """Loss of a prediction matched to nothing: push all face scores to 0.

    The first call on any row of pred's set of hypotheses computes the loss
    of every row in one broadcast (InstancePrediction.per_set); later calls
    read their row's value.
    """
    return pred.per_set(_unmatched_losses)


def run_gradient_checks(samples: int = 1000, seed: int = 7) -> dict:
    """Central-difference self-check of the analytic gradients, with step h = GRADCHECK_STEP.

    Samples stay away from the clamp boundaries and from degenerate boxes.
    A GIoU pair is also redrawn while a predicted coordinate lies within
    10 h of a ground-truth coordinate on the same axis: there the central
    difference straddles the min/max kink of the intersection or enclosing
    box and measures no derivative. All samples are drawn first, one by one,
    then checked in one batch. Returns the worst relative errors and any
    failing cases (rel err >= 1e-4).
    """
    h = GRADCHECK_STEP
    rng = np.random.default_rng(seed)
    focal = [(rng.uniform(0.01, 0.99), rng.integers(0, 2)) for _ in range(samples)]
    pairs = [_random_giou_pair(rng, 10 * h) for _ in range(samples)]
    p, y = np.reshape(focal, (samples, 2)).T
    pred, gt = np.reshape(pairs, (samples, 2, 4)).transpose(1, 0, 2)

    grad = focal_loss(p, y)[1]
    num = (focal_loss(p + h, y)[0] - focal_loss(p - h, y)[0]) / (2 * h)
    rel_focal = np.abs(grad - num) / np.maximum(np.abs(num), 1e-8)

    grad = giou_loss(pred, gt)[1]
    plus, minus = (giou_loss(pred[:, None] + sign * h * np.eye(4), gt[:, None])[0] for sign in (1.0, -1.0))
    num = (plus - minus) / (2 * h)  # row i, column k: coordinate k of sample i moved
    rel_giou = np.abs(grad - num) / np.maximum(np.abs(num), 1e-6)

    failures = [f"focal p={p[i]:.6f} y={y[i]:.0f}: rel err {rel_focal[i]:.3e}"
                for i in np.flatnonzero(rel_focal >= 1e-4)]
    failures += [f"giou box={tuple(pred[i].tolist())} gt={tuple(gt[i].tolist())} coord {k}: "
                 f"rel err {rel_giou[i, k]:.3e}" for i, k in np.argwhere(rel_giou >= 1e-4)]
    return {"max_rel_focal": rel_focal.max(initial=0.0), "max_rel_giou": rel_giou.max(initial=0.0),
            "failures": failures}


def _random_giou_pair(rng: np.random.Generator, margin: float) -> np.ndarray:
    """Draw (predicted, ground truth) corners until no two coordinates of one axis are within margin."""
    while True:
        pair = np.array([_random_box(rng), _random_box(rng)])
        # corners as (corner, axis) rows: each predicted corner against each ground-truth one, per axis
        pred, gt = pair.reshape(2, 2, 2)
        if np.abs(pred[:, None, :] - gt[None, :, :]).min() > margin:
            return pair


def _random_box(rng: np.random.Generator) -> tuple[float, float, float, float]:
    x1, y1 = rng.uniform(0.0, 0.6, 2)
    w, hgt = rng.uniform(0.1, 0.4, 2)
    return (x1, y1, x1 + w, y1 + hgt)
