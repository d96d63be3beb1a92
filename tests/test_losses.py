import math

import numpy as np
import pytest

from blinkdet.anno_model import BlinkInterval, FrameBox, InstancePrediction, InstanceTrack
from blinkdet.geometry import box_giou, frame_sum
from blinkdet.losses import (
    DEFAULT_LAMBDA_BLINK,
    EPS,
    LossBreakdown,
    _clamped,
    _focal_negative,
    focal_loss,
    giou_loss,
    instance_losses,
    run_gradient_checks,
    unmatched_loss,
)
from blinkdet.cli_io import perfect_prediction

from oracles import central_diff, loop_gradient_checks


def random_box(rng):
    x1, y1 = rng.uniform(0.0, 0.6, 2)
    w, h = rng.uniform(0.1, 0.4, 2)
    return FrameBox(float(x1), float(y1), float(x1 + w), float(y1 + h))


class TestFocalLoss:
    def test_perfect_positive_vanishes(self):
        loss, _ = focal_loss(1.0, 1)
        assert loss < 1e-9

    def test_half_score_positive(self):
        loss, _ = focal_loss(0.5, 1)
        assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)

    def test_gradient_against_central_difference(self):
        _, grad = focal_loss(0.7, 0)
        num = central_diff(lambda p: focal_loss(p, 0)[0], 0.7)
        assert abs(grad - num) / abs(num) < 1e-4

    def test_gradient_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(0.01, 0.99))
            y = int(rng.integers(0, 2))
            _, grad = focal_loss(p, y)
            num = central_diff(lambda q: focal_loss(q, y)[0], p)
            assert abs(grad - num) / max(abs(num), 1e-8) < 1e-4

    def test_clamp_region_is_flat(self):
        loss0, grad0 = focal_loss(0.0, 1)
        assert math.isfinite(loss0)
        assert grad0 == 0.0
        loss1, grad1 = focal_loss(1.0, 0)
        assert math.isfinite(loss1)
        assert grad1 == 0.0


class TestGiouLoss:
    def test_identical_boxes(self):
        box = FrameBox(0.1, 0.2, 0.5, 0.8)
        loss, _ = giou_loss(box, box)
        assert loss == 0.0

    def test_far_separation_approaches_two(self):
        loss, _ = giou_loss(FrameBox(0, 0, 1, 1), FrameBox(1000, 0, 1001, 1))
        assert loss > 1.99

    def test_value_consistent_with_geometry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            loss, _ = giou_loss(a, b)
            assert loss == pytest.approx(1.0 - box_giou(a, b), abs=1e-12)

    def test_gradient_against_central_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred, gt = random_box(rng), random_box(rng)
            _, grad = giou_loss(pred, gt)
            coords = list(pred.as_tuple())
            for k in range(4):
                def f(v, k=k):
                    c = list(coords)
                    c[k] = v
                    return giou_loss(FrameBox(*c), gt)[0]

                num = central_diff(f, coords[k])
                assert abs(grad[k] - num) / max(abs(num), 1e-6) < 1e-4

    def test_inverted_prediction_has_floored_area(self):
        # x2 < x1: the predicted box has area 0, as in box_overlap, so the loss is 1 - box_giou
        pred, gt = FrameBox(0.6, 0.2, 0.3, 0.7), FrameBox(0.2, 0.1, 0.5, 0.6)
        loss, grad = giou_loss(pred, gt)
        assert loss.hex() == (1.0 - box_giou(pred, gt)).hex()
        assert np.all(np.isfinite(grad))

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError):
            giou_loss(FrameBox(0, 0, 1, 1), FrameBox(0.5, 0.5, 0.5, 0.5))


def _track_with_blinks(rng, num_frames=8):
    box = random_box(rng)
    presence = [1 if rng.random() > 0.25 else 0 for _ in range(num_frames)]
    boxes = [random_box(rng) if f else None for f in presence]
    blinks = [BlinkInterval(1, 2), BlinkInterval(5, 6)]
    return InstanceTrack(tuple(presence), tuple(boxes), tuple(blinks))


class TestInstanceLosses:
    def test_perfect_prediction_vanishes(self):
        rng = np.random.default_rng(3)
        gt = _track_with_blinks(rng)
        breakdown = instance_losses(perfect_prediction(gt), gt)
        assert breakdown.total < 1e-9

    def test_matches_independent_summation(self):
        rng = np.random.default_rng(5)
        gt = _track_with_blinks(rng)
        num_frames = len(gt.face_presence)
        pred = InstancePrediction(
            tuple(float(rng.uniform(0.05, 0.95)) for _ in range(num_frames)),
            tuple(random_box(rng) for _ in range(num_frames)),
            tuple(float(rng.uniform(0.05, 0.95)) for _ in range(num_frames)),
            (),
        )
        breakdown = instance_losses(pred, gt)

        # independent scalar re-summation from the raw formulas
        def focal_ref(p, y):
            q = min(max(p, 1e-7), 1 - 1e-7)
            return -0.25 * (1 - q) ** 2 * math.log(q) if y else -0.75 * q**2 * math.log(1 - q)

        labels = [1 if any(b.start <= t <= b.end for b in gt.blinks) else 0 for t in range(num_frames)]
        face_cls = sum(focal_ref(pred.face_scores[t], gt.face_presence[t]) for t in range(num_frames))
        blink = sum(focal_ref(pred.blink_scores[t], labels[t]) for t in range(num_frames))
        face_box = 0.0
        for t in range(num_frames):
            if not gt.face_presence[t]:
                continue
            p, g = pred.boxes[t], gt.boxes[t]
            l1 = sum(abs(a - b) for a, b in zip(p.as_tuple(), g.as_tuple())) / 4
            face_box += 5.0 * l1 + 2.0 * (1.0 - box_giou(p, g))
        expected = face_cls + face_box + 5.0 * blink

        assert breakdown.total == pytest.approx(expected, abs=1e-9)
        assert breakdown.face_cls == pytest.approx(face_cls, abs=1e-9)
        assert breakdown.blink == pytest.approx(blink, abs=1e-9)

    def test_total_identity(self):
        rng = np.random.default_rng(6)
        gt = _track_with_blinks(rng)
        pred = perfect_prediction(gt)
        b = instance_losses(pred, gt)
        assert isinstance(b, LossBreakdown)
        assert b.total == pytest.approx(b.face_cls + b.face_box + DEFAULT_LAMBDA_BLINK * b.blink, abs=1e-12)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        gt = _track_with_blinks(rng)
        pred = InstancePrediction((0.5,), (random_box(rng),), (0.5,), ())
        with pytest.raises(ValueError):
            instance_losses(pred, gt)


class TestUnmatchedLoss:
    def _pred(self, scores):
        box = FrameBox(0, 0, 0.1, 0.1)
        return InstancePrediction(tuple(scores), (box,) * len(scores), (0.0,) * len(scores), ())

    def test_zero_scores_vanish(self):
        assert unmatched_loss(self._pred([0.0] * 5)) < 1e-9

    def test_constant_half_scores(self):
        expected = 10 * 0.75 * 0.25 * math.log(2.0)  # 10 * focal(0.5, 0)
        assert unmatched_loss(self._pred([0.5] * 10)) == pytest.approx(expected, abs=1e-12)

    def test_zero_frames_give_zero(self):
        loss = unmatched_loss(self._pred([]))
        assert type(loss) is float and loss == 0.0

    @pytest.mark.parametrize("scores", [[], [0.0], [1.0], [EPS], [1.0 - EPS], [0.0, 1.0, EPS, 1.0 - EPS, 0.3]])
    def test_edge_scores_equal_the_negative_focal_branch(self, scores):
        expected = float(frame_sum(_focal_negative(_clamped(np.array(scores, dtype=float)))))
        assert unmatched_loss(self._pred(scores)).hex() == expected.hex()

    def test_monotonic_in_each_score(self):
        rng = np.random.default_rng(8)
        scores = [float(rng.uniform(0.1, 0.8)) for _ in range(6)]
        base = unmatched_loss(self._pred(scores))
        for t in range(6):
            raised = list(scores)
            raised[t] += 0.1
            assert unmatched_loss(self._pred(raised)) > base


class TestGradientSuite:
    @pytest.mark.parametrize("samples, seed", [(200, 123), (1000, 7)])
    def test_batch_equals_the_per_sample_loop(self, samples, seed):
        batch, loop = run_gradient_checks(samples, seed), loop_gradient_checks(samples, seed, focal_loss)
        assert batch["failures"] == loop["failures"]
        assert batch["max_rel_focal"] == loop["max_rel_focal"]
        # the GIoU gradients differ by rounding alone, which moves the worst relative error in its 7th digit
        assert batch["max_rel_giou"] == pytest.approx(loop["max_rel_giou"], rel=1e-5)

    def test_self_check_passes(self):
        result = run_gradient_checks(samples=200, seed=123)
        assert result["failures"] == []
        assert result["max_rel_focal"] < 1e-4
        assert result["max_rel_giou"] < 1e-4
