"""Training losses, and the analytic gradients that self-check them.

Matched prediction/ground-truth pairs are scored with a focal term on the
per-frame face scores, an L1 + GIoU term on boxes of visible frames, and a
focal term on the frame-level blink scores against labels derived from the
ground-truth blink intervals. Unmatched predictions are pushed toward
face score 0. Losses are reported as unnormalized per-instance sums.

The matching cost (through `face_terms`) and the training losses take their
focal terms from `focal_terms`, which evaluates only the branch the labels
select and computes no derivative; `unmatched_loss` calls the negative
branch directly. The analytic gradients live in
`focal_loss` (whose loss is `focal_terms`) and `giou_loss`, for
`run_gradient_checks` and the gradient tests.

Scores are clamped to [EPS, 1 - EPS] before any logarithm; the returned
derivatives are of the clamped function (flat outside the clamp window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anno_model import FrameBox, InstancePrediction, InstanceTrack, blink_frame_labels, frame_targets
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
    p and y broadcast elementwise; scalars in give scalars out. Only the
    branch the labels select is evaluated: the negative one when no label
    is set, the positive one when all are, both otherwise. Where the labels
    alone widen the shape, the result is a read-only broadcast view.
    """
    q = _clamped(np.asarray(p, dtype=float))
    positive = np.asarray(y, dtype=bool)
    set_labels = np.count_nonzero(positive)
    if 0 < set_labels < positive.size:
        return np.where(positive, _focal_positive(q), _focal_negative(q))[()]
    loss = _focal_positive(q) if set_labels else _focal_negative(q)
    if positive.shape not in ((), loss.shape):  # labels widen the result, as np.where would
        loss = np.broadcast_to(loss, np.broadcast(q, positive).shape)
    return loss[()]


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


def _giou_with_grad(pred: FrameBox, gt: FrameBox) -> tuple[float, np.ndarray]:
    """GIoU value and its gradient w.r.t. pred's (x1, y1, x2, y2).

    Ties in the max/min corner selections take the subgradient on the
    prediction side; they occur on a measure-zero set.
    """
    px1, py1, px2, py2 = pred.as_tuple()
    gx1, gy1, gx2, gy2 = gt.as_tuple()

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


def giou_loss(pred: FrameBox, gt: FrameBox) -> tuple[float, np.ndarray]:
    """GIoU loss 1 - GIoU in [0, 2] and its gradient w.r.t. pred's corners."""
    if gt.area <= 0.0:
        raise ValueError(f"degenerate ground-truth box {gt.as_tuple()}")
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


def check_frame_counts(preds, gts) -> None:
    """Raise ValueError unless all predictions and ground truths span the same frames."""
    counts = {len(p.face_scores) for p in preds} | {len(g.face_presence) for g in gts}
    if len(counts) > 1:
        raise ValueError(f"length mismatch: predictions and ground truths span {sorted(counts)} frames")


def instance_losses(pred: InstancePrediction, gt: InstanceTrack) -> LossBreakdown:
    """Losses of one matched prediction/ground-truth pair, summed over frames."""
    check_frame_counts([pred], [gt])
    presence, gt_boxes = frame_targets([gt])
    cls, box = face_terms(pred.face_array, pred.boxes.array, presence[:, 0], gt_boxes[:, 0])
    labels = blink_frame_labels(gt, len(presence))
    blink_terms = focal_terms(pred.blink_array, np.array(labels, dtype=bool))
    face_cls, face_box, blink = (float(frame_sum(x)) for x in (cls, box, blink_terms))
    return LossBreakdown(face_cls, face_box, blink, face_cls + face_box + DEFAULT_LAMBDA_BLINK * blink)


def unmatched_loss(pred: InstancePrediction) -> float:
    """Loss of a prediction matched to nothing: push all face scores to 0."""
    return float(frame_sum(_focal_negative(_clamped(pred.face_array))))


def run_gradient_checks(samples: int = 1000, seed: int = 7) -> dict:
    """Central-difference self-check of the analytic gradients, with step h = GRADCHECK_STEP.

    Samples stay away from the clamp boundaries and from degenerate boxes.
    A GIoU pair is also redrawn while a predicted coordinate lies within
    10 h of a ground-truth coordinate on the same axis: there the central
    difference straddles the min/max kink of the intersection or enclosing
    box and measures no derivative.
    Returns the worst relative errors and any failing cases (rel err >= 1e-4).
    """
    h = GRADCHECK_STEP
    rng = np.random.default_rng(seed)
    failures: list[str] = []

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

    max_giou = 0.0
    for _ in range(samples):
        pb, gb = _random_giou_pair(rng, 10 * h)
        _, grad = giou_loss(pb, gb)
        coords = np.array(pb.as_tuple())
        for k in range(4):
            plus = coords.copy()
            minus = coords.copy()
            plus[k] += h
            minus[k] -= h
            num = (giou_loss(FrameBox(*plus), gb)[0] - giou_loss(FrameBox(*minus), gb)[0]) / (2 * h)
            rel = abs(grad[k] - num) / max(abs(num), 1e-6)
            max_giou = max(max_giou, rel)
            if rel >= 1e-4:
                failures.append(f"giou box={pb.as_tuple()} gt={gb.as_tuple()} coord {k}: rel err {rel:.3e}")

    return {"max_rel_focal": max_focal, "max_rel_giou": max_giou, "failures": failures}


def _random_giou_pair(rng: np.random.Generator, margin: float) -> tuple[FrameBox, FrameBox]:
    """Draw (predicted, ground truth) until no two coordinates of one axis are within margin."""
    while True:
        pb, gb = _random_box(rng), _random_box(rng)
        # corners as (corner, axis) rows: each predicted corner against each ground-truth one, per axis
        pred, gt = np.reshape(pb.as_tuple(), (2, 2)), np.reshape(gb.as_tuple(), (2, 2))
        if np.abs(pred[:, None, :] - gt[None, :, :]).min() > margin:
            return pb, gb


def _random_box(rng: np.random.Generator) -> FrameBox:
    x1, y1 = rng.uniform(0.0, 0.6, 2)
    w, hgt = rng.uniform(0.1, 0.4, 2)
    return FrameBox(float(x1), float(y1), float(x1 + w), float(y1 + hgt))
