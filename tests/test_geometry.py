import numpy as np
import pytest

from blinkdet.anno_model import BlinkInterval, FrameBox
from blinkdet.geometry import (
    TubePair,
    box_giou,
    box_iou,
    box_overlap,
    boxes_array,
    interval_tiou,
    tube_3d_iou,
    tube_ious,
)

from oracles import direct_tube_iou, enum_tiou, rasterized_iou


def random_box(rng, unit=None):
    x1, y1 = rng.uniform(0.0, 0.6, 2)
    w, h = rng.uniform(0.05, 0.4, 2)
    if unit is not None:
        x1, y1, w, h = (round(v / unit) * unit for v in (x1, y1, w, h))
        w = max(w, unit)
        h = max(h, unit)
    return FrameBox(float(x1), float(y1), float(x1 + w), float(y1 + h))


class TestBoxIou:
    def test_identity(self):
        box = FrameBox(0.2, 0.3, 0.6, 0.9)
        assert box_iou(box, box) == 1.0

    def test_disjoint(self):
        assert box_iou(FrameBox(0, 0, 1, 1), FrameBox(2, 2, 3, 3)) == 0.0

    def test_unit_squares_overlap(self):
        # (0,0,2,2) vs (1,1,3,3): inter 1, union 7; grid-count oracle at unit 1
        a, b = FrameBox(0, 0, 2, 2), FrameBox(1, 1, 3, 3)
        expected = rasterized_iou(a.as_tuple(), b.as_tuple(), unit=1.0)
        assert expected == pytest.approx(1 / 7)
        assert box_iou(a, b) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_no_nan(self):
        degenerate = FrameBox(0.5, 0.5, 0.5, 0.5)
        assert box_iou(degenerate, degenerate) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert box_iou(a, b) == box_iou(b, a)

    def test_matches_rasterization_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_box(rng, unit=1 / 64), random_box(rng, unit=1 / 64)
            assert box_iou(a, b) == pytest.approx(
                rasterized_iou(a.as_tuple(), b.as_tuple(), 1 / 64), abs=1e-9
            )


class TestBoxGiou:
    def test_identity(self):
        box = FrameBox(0.2, 0.3, 0.6, 0.9)
        assert box_giou(box, box) == 1.0

    def test_side_by_side(self):
        # IoU 0, union 2, enclosing 3 -> giou = -(3 - 2) / 3
        assert box_giou(FrameBox(0, 0, 1, 1), FrameBox(2, 0, 3, 1)) == pytest.approx(-1 / 3)

    def test_far_separation_limit(self):
        a = FrameBox(0.0, 0.0, 1.0, 1.0)
        b = FrameBox(1000.0, 0.0, 1001.0, 1.0)
        assert box_giou(a, b) < -0.99

    def test_giou_never_exceeds_iou(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert box_giou(a, b) <= box_iou(a, b) + 1e-12
            assert -1.0 <= box_giou(a, b) <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert box_giou(a, b) == pytest.approx(box_giou(b, a), abs=1e-12)


class TestIntervalTiou:
    def test_identity(self):
        assert interval_tiou(BlinkInterval(3, 8), BlinkInterval(3, 8)) == 1.0

    def test_partial_overlap(self):
        # [1,4] vs [3,6]: intersection {3,4}, union {1..6}
        assert interval_tiou(BlinkInterval(1, 4), BlinkInterval(3, 6)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert interval_tiou(BlinkInterval(0, 1), BlinkInterval(3, 4)) == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            s1, s2 = rng.integers(0, 40, 2)
            e1 = s1 + rng.integers(0, 15)
            e2 = s2 + rng.integers(0, 15)
            a, b = BlinkInterval(int(s1), int(e1)), BlinkInterval(int(s2), int(e2))
            assert interval_tiou(a, b) == pytest.approx(enum_tiou(s1, e1, s2, e2), abs=1e-12)
            assert interval_tiou(a, b) == interval_tiou(b, a)


class TestTubeIou:
    def test_identity(self):
        rng = np.random.default_rng(5)
        boxes = tuple(random_box(rng) for _ in range(10))
        assert tube_3d_iou(TubePair(boxes, boxes)) == 1.0

    def test_half_coverage(self):
        # gt on frames 0..9 constant, pred identical on 0..4 then absent
        box = FrameBox(0.1, 0.1, 0.5, 0.5)
        gt = (box,) * 10
        pred = (box,) * 5 + (None,) * 5
        assert tube_3d_iou(TubePair(pred, gt)) == pytest.approx(0.5)

    def test_disjoint_everywhere(self):
        pred = (FrameBox(0.0, 0.0, 0.2, 0.2),) * 6
        gt = (FrameBox(0.5, 0.5, 0.9, 0.9),) * 6
        assert tube_3d_iou(TubePair(pred, gt)) == 0.0

    def test_single_frame_equals_box_iou(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert tube_3d_iou(TubePair((a,), (b,))) == box_iou(a, b)

    def test_empty_union_is_zero(self):
        assert tube_3d_iou(TubePair((None, None), (None, None))) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TubePair((None,), (None, None))

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(7)
        box = FrameBox(0.1, 0.2, 0.5, 0.6)
        pairs = [
            ((box, None, box, None), (None, box, box, None)),  # absent frames on either side
            ((None, box), (None, None)),
            ((None, None, None), (None, None, None)),  # all absent: the union is 0
        ]
        for _ in range(1000):
            length = int(rng.integers(1, 20))
            pred = tuple(random_box(rng) if rng.random() > 0.25 else None for _ in range(length))
            gt = tuple(random_box(rng) if rng.random() > 0.25 else None for _ in range(length))
            pairs.append((pred, gt))
        for pred, gt in pairs:
            pair = TubePair(pred, gt)
            expected = direct_tube_iou(
                [None if p is None else p.as_tuple() for p in pred],
                [None if g is None else g.as_tuple() for g in gt],
            )
            assert tube_3d_iou(pair) == pytest.approx(expected, abs=1e-6)
            assert tube_3d_iou(TubePair(gt, pred)) == pytest.approx(expected, abs=1e-6)

        # one broadcast over (frames, predictions, ground truths) gives every pair
        preds = [tuple(random_box(rng) if rng.random() > 0.3 else None for _ in range(12)) for _ in range(5)]
        gts = [tuple(random_box(rng) if rng.random() > 0.3 else None for _ in range(12)) for _ in range(4)]
        gts.append((None,) * 12)
        matrix = tube_ious(
            np.stack([boxes_array(p) for p in preds], axis=1)[:, :, None],
            np.stack([boxes_array(g) for g in gts], axis=1)[:, None],
        )
        assert matrix.shape == (5, 5)
        for i, pred in enumerate(preds):
            for j, gt in enumerate(gts):
                expected = direct_tube_iou(
                    [None if p is None else p.as_tuple() for p in pred],
                    [None if g is None else g.as_tuple() for g in gt],
                )
                assert matrix[i, j] == pytest.approx(expected, abs=1e-12)


def _scalar_box_overlap(a, b):
    """Intersection, union and GIoU of two boxes in plain Python floats, one operation at a time."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b

    def area(x1, y1, x2, y2):
        return max(x2 - x1, 0.0) * max(y2 - y1, 0.0)

    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0.0 and ih > 0.0 else 0.0
    union = area(ax1, ay1, ax2, ay2) + area(bx1, by1, bx2, by2) - inter
    enclose = area(min(ax1, bx1), min(ay1, by1), max(ax2, bx2), max(ay2, by2))
    iou = inter / union if union > 0.0 else 0.0
    empty_share = (enclose - union) / enclose if enclose > 0.0 else 0.0
    return inter, union, iou - empty_share


class TestBoxOverlapOracle:
    """box_overlap against the scalar formula, compared bit for bit (float.hex)."""

    # corners on a grid, so that boxes touch, share edges, nest, and collapse to lines and points
    _GRID = (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0)

    def _boxes(self, rng, shape):
        x = rng.choice(self._GRID, shape + (2,))
        y = rng.choice(self._GRID, shape + (2,))
        boxes = np.stack([x.min(-1), y.min(-1), x.max(-1), y.max(-1)], axis=-1)
        boxes[rng.random(shape) < 0.1] = 0.0  # NO_BOX, as an absent frame
        return boxes

    def _check(self, a, b):
        inter, union, giou = np.broadcast_arrays(*box_overlap(a, b))
        a, b = np.broadcast_arrays(a, b)
        for index in np.ndindex(a.shape[:-1]):
            got = [float(x[index]).hex() for x in (inter, union, giou)]
            want = [x.hex() for x in _scalar_box_overlap(a[index].tolist(), b[index].tolist())]
            assert got == want, (index, a[index], b[index])

    def test_cost_broadcast_and_predictions_innermost(self):
        rng = np.random.default_rng(17)
        t, p, g = 4, 9, 5
        preds, gts = self._boxes(rng, (t, p)), self._boxes(rng, (t, g))
        self._check(preds[:, None], gts[:, :, None])  # (T, 1, P, 4) x (T, G, 1, 4)
        self._check(preds[:, :, None], gts[:, None])  # (T, P, 1, 4) x (T, 1, G, 4)
        # P-contiguous corners: each [..., k] strides 8 bytes along P
        swapped = np.ascontiguousarray(preds.transpose(0, 2, 1)).swapaxes(1, 2)
        assert swapped.strides[1] == 8
        self._check(swapped[:, None], gts[:, :, None])
        self._check(preds[0, 0], gts[0])  # one box against a row of boxes

    def test_single_boxes(self):
        rng = np.random.default_rng(18)
        cases = [
            ((0.0, 0.0, 0.5, 0.5), (0.5, 0.0, 1.0, 0.5)),  # touching along an edge
            ((0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 1.0, 1.0)),  # touching at a corner
            ((0.0, 0.0, 0.1, 0.1), (0.7, 0.7, 1.0, 1.0)),  # disjoint
            ((0.25, 0.25, 0.25, 0.5), (0.0, 0.0, 1.0, 1.0)),  # a line inside a box
            ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),  # two absent frames
            ((0.1, 0.1, 0.7, 0.5), (0.1, 0.1, 0.7, 0.5)),  # identical
        ]
        cases += [tuple(self._boxes(rng, (2,)).tolist()) for _ in range(40)]
        for a, b in cases:
            inter, union, giou = _scalar_box_overlap(a, b)
            got = [float(x).hex() for x in box_overlap(np.array(a), np.array(b))]
            assert got == [inter.hex(), union.hex(), giou.hex()], (a, b)
            assert box_iou(FrameBox(*a), FrameBox(*b)).hex() == (inter / union if union > 0.0 else 0.0).hex()
            assert box_giou(FrameBox(*a), FrameBox(*b)).hex() == giou.hex()
