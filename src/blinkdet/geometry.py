"""Spatial and temporal overlap measures: box IoU/GIoU, interval IoU, tube IoU.

`box_overlap` is the one box-overlap kernel. It broadcasts over corner boxes
of shape (..., 4), so a caller compares whole tubes or hypothesis sets in
one call; box sequences keep frames on axis 0. Degenerate (zero-area) boxes
never produce NaN: IoU falls back to 0 and GIoU keeps only its
enclosing-box penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .anno_model import BlinkInterval, Boxes, FrameBox

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


def boxes_array(boxes: Boxes | Iterable[Optional[FrameBox]]) -> np.ndarray:
    """(T, 4) corners of a box sequence; a frame with no box becomes NO_BOX."""
    boxes = Boxes(boxes)
    return np.where(boxes.given[:, None], boxes.array, 0.0)


def ratio(num, den) -> np.ndarray:
    """num / den where den > 0, else 0."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0.0)


def frame_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 frame after frame, bit-identical to a scalar loop (np.sum pairs terms)."""
    return np.add.accumulate(values, axis=0)[-1] if len(values) else np.zeros(values.shape[1:])


def box_overlap(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection, union and GIoU of corner boxes (..., 4), broadcast together."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ax1, ay1, ax2, ay2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bx2, by2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]

    def area(x1, y1, x2, y2):
        return np.maximum(x2 - x1, 0.0) * np.maximum(y2 - y1, 0.0)

    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = area(ax1, ay1, ax2, ay2) + area(bx1, by1, bx2, by2) - inter
    enclose = area(np.minimum(ax1, bx1), np.minimum(ay1, by1), np.maximum(ax2, bx2), np.maximum(ay2, by2))
    return inter, union, ratio(inter, union) - ratio(enclose - union, enclose)


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
    return float(tube_ious(boxes_array(pair.pred), boxes_array(pair.gt)))
