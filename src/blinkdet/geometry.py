"""Spatial and temporal overlap measures: box IoU/GIoU, interval IoU, tube IoU.

`box_overlap` is the one box-overlap kernel. It broadcasts over corner boxes
of shape (..., 4), so a caller compares whole tubes or hypothesis sets in
one call; box sequences keep frames on axis 0. Degenerate (zero-area) boxes
never produce NaN: IoU falls back to 0 and GIoU keeps only its
enclosing-box penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anno_model import BlinkInterval, Boxes, FrameBox, frame_sum, present_corners

NO_BOX = (0.0, 0.0, 0.0, 0.0)  # an absent frame: meets nothing, has no area


@dataclass(frozen=True)
class TubePair:
    """Two per-frame box sequences to compare across a whole video.

    None (a NaN row) marks frames where that side has no box (person absent).
    """

    pred: Boxes
    gt: Boxes

    def __post_init__(self):
        object.__setattr__(self, "pred", Boxes(self.pred))
        object.__setattr__(self, "gt", Boxes(self.gt))
        if len(self.pred) != len(self.gt):
            raise ValueError(
                f"tube lengths differ: pred {len(self.pred)} vs gt {len(self.gt)}"
            )


def ratio(num, den) -> np.ndarray:
    """num / den where den > 0, else 0."""
    out = np.zeros(np.broadcast(num, den).shape)
    return np.divide(num, den, out=out, where=np.greater(den, 0.0))


def _floored_area(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """max(w, 0) * max(h, 0), computed in the buffers of w and h; the result is w's buffer."""
    np.maximum(w, 0.0, out=w)
    np.maximum(h, 0.0, out=h)
    w *= h
    return w


def box_overlap(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection, union and GIoU of corner boxes (..., 4), broadcast together.

    The work arrays are updated in place; each value comes from the same
    operations, in the same order, as the textbook formulas.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # one box as a (1, 4) row, so that every work array below is an array
    single = a.ndim == b.ndim == 1
    a, b = (x[None] if x.ndim == 1 else x for x in (a, b))
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]

    lo = np.maximum(ax1, bx1)  # work buffer for the corner each extent subtracts
    iw = np.minimum(ax2, bx2)
    iw -= lo
    ih = np.minimum(ay2, by2)
    ih -= np.maximum(ay1, by1, out=lo)
    inter = np.multiply(iw, ih, out=np.zeros(iw.shape), where=(iw > 0.0) & (ih > 0.0))
    union = _floored_area(ax2 - ax1, ay2 - ay1) + _floored_area(bx2 - bx1, by2 - by1)
    union -= inter
    ew = np.maximum(ax2, bx2, out=iw)  # the enclosing box, in the buffers of iw and ih
    ew -= np.minimum(ax1, bx1, out=lo)
    eh = np.maximum(ay2, by2, out=ih)
    eh -= np.minimum(ay1, by1, out=lo)
    enclose = _floored_area(ew, eh)
    giou = ratio(inter, union)
    giou -= ratio(np.subtract(enclose, union, out=lo), enclose)
    if single:
        return inter.reshape(()), union.reshape(()), giou.reshape(())
    return inter, union, giou


def box_iou(a: FrameBox, b: FrameBox) -> float:
    """Intersection over union of two boxes; 0 when the union has no area."""
    inter, union, _ = box_overlap(a.as_tuple(), b.as_tuple())
    return float(ratio(inter, union))


def box_giou(a: FrameBox, b: FrameBox) -> float:
    """Generalized IoU in [-1, 1]: IoU minus the empty share of the enclosing box."""
    return float(box_overlap(a.as_tuple(), b.as_tuple())[2])


def interval_tiou(a: BlinkInterval, b: BlinkInterval) -> float:
    """Temporal IoU of two inclusive frame intervals, counted in whole frames."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = a.num_frames + b.num_frames - inter
    return inter / union


def tube_ious(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Volumetric IoU of tubes (T, ..., 4): summed per-frame intersection over summed union.

    A frame where only one side has a box (the other NO_BOX) adds that box's
    area to the union. Returns 0 where the union sum is 0.
    """
    inter, union, _ = box_overlap(pred, gt)
    return ratio(frame_sum(inter), frame_sum(union))


def tube_3d_iou(pair: TubePair) -> float:
    return float(tube_ious(present_corners(pair.pred.array), present_corners(pair.gt.array)))
