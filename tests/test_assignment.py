import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blinkdet.anno_model import BlinkInterval, FrameBox, InstancePrediction, InstanceTrack
from blinkdet.assignment import (
    Assignment,
    CostMatrix,
    _augmenting_paths,
    hungarian,
    match_instances,
    matching_cost,
    matching_costs,
)
from blinkdet.cli_io import perfect_prediction
from blinkdet.losses import instance_losses, unmatched_loss

from oracles import brute_force_assignment


class TestHungarian:
    def test_diagonal_zeros(self):
        matrix = np.full((4, 4), 5.0)
        np.fill_diagonal(matrix, 0.0)
        result = hungarian(matrix)
        assert result.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert result.total_cost == 0.0
        assert result.unmatched_predictions == ()

    def test_two_by_two_antidiagonal(self):
        result = hungarian([[1.0, 2.0], [2.0, 4.0]])
        assert result.pairs == ((0, 1), (1, 0))
        assert result.total_cost == 4.0

    def test_random_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 10, (3, 5))
        result = hungarian(matrix)
        pairs, cost = brute_force_assignment(matrix)
        assert result.total_cost == cost
        assert list(result.pairs) == pairs

    def test_all_shapes_up_to_five(self):
        rng = np.random.default_rng(1)
        for rows in range(1, 6):
            for cols in range(1, 6):
                matrix = rng.uniform(-5, 5, (rows, cols))
                result = hungarian(matrix)
                _, cost = brute_force_assignment(matrix)
                assert result.total_cost == cost
                assert len(result.pairs) == min(rows, cols)
                assert len(result.unmatched_predictions) == max(0, rows - cols)

    def test_one_to_one(self):
        rng = np.random.default_rng(2)
        result = hungarian(rng.uniform(0, 1, (6, 4)))
        assert len({r for r, _ in result.pairs}) == len(result.pairs)
        assert len({c for _, c in result.pairs}) == len(result.pairs)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, (5, 5))
        base = hungarian(matrix)
        shifted = matrix.copy()
        shifted[2] += 7.5
        result = hungarian(shifted)
        assert result.pairs == base.pairs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[1.0, math.inf], [0.0, 1.0]]))

    def test_cost_matrix_is_frozen(self):
        cm = CostMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            cm.costs[0, 0] = 5.0

    @pytest.mark.parametrize("matrix", [[[1.7e308, -1.7e308], [-1.7e308, 1.7e308]], [[1.7e308, 1.7e308]] * 2])
    def test_overflowing_total_rejected(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ValueError, not a numpy RuntimeWarning
            with pytest.raises(ValueError, match="total cost overflows"):
                hungarian(matrix)

    def test_row_minima_shortcut_is_what_the_augmenting_paths_find(self):
        # the shortcut taken when every track's first best hypothesis is its own, ties included
        rng = np.random.default_rng(12)
        shortcuts = 0
        for tracks in range(1, 9):
            for matrix in (rng.uniform(0.0, 10.0, (50, tracks)), rng.integers(0, 4, (50, tracks)) * 1.0):
                paths = _augmenting_paths(matrix.T.tolist(), 50)
                assert hungarian(matrix).pairs == tuple(sorted(zip(paths, range(tracks))))
                shortcuts += len(set(matrix.argmin(axis=0).tolist())) == tracks
        assert 8 < shortcuts < 16


_TIE_HEAVY = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                    elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]))


@settings(max_examples=150)
@given(_TIE_HEAVY)
def test_tie_heavy_integer_matrices_match_brute_force(matrix):
    result = hungarian(matrix)
    _, cost = brute_force_assignment(matrix)
    assert result.total_cost == cost
    rows, cols = zip(*result.pairs)
    assert len(set(rows)) == len(set(cols)) == len(rows) == min(matrix.shape)
    assert rows == tuple(sorted(rows))
    assert set(result.unmatched_predictions) == set(range(matrix.shape[0])) - set(rows)


@pytest.fixture(scope="module")
def scipy_solver():
    """scipy's linear_sum_assignment, the reference the in-module solver is ported from."""
    return pytest.importorskip("scipy.optimize").linear_sum_assignment


def _scipy_pairs(solver, matrix):
    rows, cols = solver(matrix)
    return tuple(zip(rows.tolist(), cols.tolist()))


class TestSameAsScipy:
    def test_every_shape_up_to_nine(self, scipy_solver):
        rng = np.random.default_rng(13)
        for rows in range(1, 10):
            for cols in range(1, 10):
                for _ in range(3):
                    for matrix in (rng.uniform(-10.0, 10.0, (rows, cols)), rng.integers(0, 4, (rows, cols)) * 1.0):
                        assert hungarian(matrix).pairs == _scipy_pairs(scipy_solver, matrix), matrix

    @settings(max_examples=300)
    @given(st.one_of(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])),
                     arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                            elements=st.floats(-1e6, 1e6, allow_nan=False))))
    def test_generated_matrices(self, scipy_solver, matrix):
        assert hungarian(matrix).pairs == _scipy_pairs(scipy_solver, matrix)

    @pytest.mark.parametrize("shared_best", [False, True])
    def test_fifty_hypotheses(self, scipy_solver, shared_best):
        # shared_best: one hypothesis is every track's best, so the row-minima shortcut does not apply
        rng = np.random.default_rng(14)
        for tracks in range(1, 9):
            matrix = rng.uniform(0.0, 100.0, (50, tracks))
            if shared_best:
                matrix[7] = -1.0
            assert hungarian(matrix).pairs == _scipy_pairs(scipy_solver, matrix)


def _track(presence, boxes, blinks=()):
    return InstanceTrack(tuple(presence), tuple(boxes), tuple(blinks))


class TestMatchingCost:
    def test_perfect_prediction_is_zero(self):
        box = FrameBox(0.2, 0.2, 0.6, 0.6)
        gt = _track([1, 1, 1], [box, box, box], [BlinkInterval(0, 1)])
        pred = perfect_prediction(gt)
        assert matching_cost(pred, gt) < 1e-9
        # any deviation on a visible frame makes the cost strictly positive
        nudged = InstancePrediction((1.0, 0.6, 1.0), pred.boxes, pred.blink_scores, ())
        assert matching_cost(nudged, gt) > 1e-3

    def test_box_ignored_where_face_absent(self):
        box = FrameBox(0.2, 0.2, 0.6, 0.6)
        gt = _track([1, 0], [box, None])
        base = InstancePrediction((1.0, 0.0), (box, FrameBox(0, 0, 0, 0)), (0.0, 0.0), ())
        moved = InstancePrediction((1.0, 0.0), (box, FrameBox(0.3, 0.3, 0.9, 0.9)), (0.0, 0.0), ())
        assert matching_cost(base, gt) == matching_cost(moved, gt)

    def test_two_frame_numeric_case(self):
        # independent scalar evaluation of the cost formula
        pred_box = FrameBox(0.1, 0.1, 0.5, 0.5)
        gt_box = FrameBox(0.2, 0.1, 0.6, 0.5)
        gt = _track([1, 0], [gt_box, None])
        pred = InstancePrediction((0.8, 0.3), (pred_box, pred_box), (0.0, 0.0), ())

        focal_pos = -0.25 * (1 - 0.8) ** 2 * math.log(0.8)
        focal_neg = -0.75 * 0.3**2 * math.log(1 - 0.3)
        l1 = (0.1 + 0.0 + abs(0.5 - 0.6) + 0.0) / 4
        inter = (0.5 - 0.2) * (0.5 - 0.1)
        union = 2 * (0.4 * 0.4) - inter
        iou = inter / union
        enclose = (0.6 - 0.1) * (0.5 - 0.1)
        giou = iou - (enclose - union) / enclose
        expected = 2.0 * (focal_pos + focal_neg) + 5.0 * l1 + 2.0 * (1.0 - giou)

        assert matching_cost(pred, gt) == pytest.approx(expected, abs=1e-12)
        # the same entries from the (P, G) broadcast; the perfect row is ~0
        matrix = matching_costs([pred, perfect_prediction(gt)], [gt, gt])
        assert matrix.shape == (2, 2)
        assert matrix[0] == pytest.approx([expected, expected], abs=1e-12)
        assert matrix[1] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_length_mismatch_rejected(self):
        gt = _track([1], [FrameBox(0, 0, 1, 1)])
        pred = InstancePrediction((1.0, 1.0), (FrameBox(0, 0, 1, 1),) * 2, (0.0, 0.0), ())
        with pytest.raises(ValueError):
            matching_cost(pred, gt)


class TestMatchInstances:
    def _random_tracks(self, rng, count, num_frames=4):
        tracks = []
        for _ in range(count):
            x1, y1 = rng.uniform(0, 0.5, 2)
            box = FrameBox(float(x1), float(y1), float(x1 + 0.3), float(y1 + 0.3))
            tracks.append(_track([1] * num_frames, [box] * num_frames))
        return tracks

    def test_identity_assignment(self):
        rng = np.random.default_rng(4)
        gts = self._random_tracks(rng, 3)
        preds = [perfect_prediction(t) for t in gts]
        result = match_instances(preds, gts)
        assert result.pairs == ((0, 0), (1, 1), (2, 2))
        assert result.total_cost < 1e-6

    def test_more_predictions_than_gt(self):
        rng = np.random.default_rng(5)
        gts = self._random_tracks(rng, 1)
        preds = [perfect_prediction(t) for t in self._random_tracks(rng, 2)]
        result = match_instances(preds, gts)
        assert len(result.pairs) == 1
        assert len(result.unmatched_predictions) == 1

    def test_matches_permutation_enumeration(self):
        rng = np.random.default_rng(6)
        gts = self._random_tracks(rng, 3)
        preds = [perfect_prediction(t) for t in self._random_tracks(rng, 3)]
        result = match_instances(preds, gts)
        matrix = np.array([[matching_cost(p, g) for g in gts] for p in preds])
        _, cost = brute_force_assignment(matrix)
        assert result.total_cost == pytest.approx(cost, abs=1e-12)

    def test_returns_assignment_type(self):
        rng = np.random.default_rng(7)
        gts = self._random_tracks(rng, 2)
        preds = [perfect_prediction(t) for t in gts]
        assert isinstance(match_instances(preds, gts), Assignment)

    def test_clip_with_no_tracks_leaves_every_prediction_unmatched(self):
        rng = np.random.default_rng(8)
        preds = [perfect_prediction(t) for t in self._random_tracks(rng, 3)]
        assert match_instances(preds, []) == Assignment((), 0.0, (0, 1, 2))

    def test_no_predictions_match_nothing(self):
        rng = np.random.default_rng(9)
        assert match_instances([], self._random_tracks(rng, 2)) == Assignment((), 0.0, ())

    def test_empty_side_still_checks_frame_counts(self):
        rng = np.random.default_rng(10)
        preds = [perfect_prediction(t) for t in self._random_tracks(rng, 1, 4) + self._random_tracks(rng, 1, 5)]
        with pytest.raises(ValueError):
            match_instances(preds, [])

    def test_frame_mismatch_names_the_prediction_and_the_track(self):
        rng = np.random.default_rng(12)
        four, five = self._random_tracks(rng, 1, 4), self._random_tracks(rng, 1, 5)
        pred = perfect_prediction(four[0])
        for call in (matching_costs, match_instances):
            with pytest.raises(ValueError, match=r"^tube lengths differ: pred 4 vs gt 5$"):
                call([pred], five)
            with pytest.raises(ValueError, match=r"^tube lengths differ: pred 4 vs gt 5$"):
                call([pred, pred], four + five)
            # with no predictions the first track's count stands for theirs
            with pytest.raises(ValueError, match=r"^tube lengths differ: pred 4 vs gt 5$"):
                call([], four + five)
        with pytest.raises(ValueError, match=r"^tube lengths differ: pred 4 vs gt 5$"):
            instance_losses(pred, five[0])
        with pytest.raises(ValueError, match=r"^tube lengths differ: pred 5 vs gt 4$"):
            instance_losses(perfect_prediction(five[0]), four[0])

    def test_loss_of_a_clip_with_no_tracks_is_all_unmatched(self):
        rng = np.random.default_rng(11)
        preds = [perfect_prediction(t) for t in self._random_tracks(rng, 4)]
        preds = [InstancePrediction(np.linspace(0.1, 0.9, 4) * (k + 1) / 5, p.boxes, p.blink_scores, ())
                 for k, p in enumerate(preds)]
        tracks = []
        assignment = match_instances(preds, tracks)
        total = sum(instance_losses(preds[r], tracks[c]).total for r, c in assignment.pairs)
        total += sum(unmatched_loss(preds[r]) for r in assignment.unmatched_predictions)
        assert total == sum(unmatched_loss(p) for p in preds) > 0.0
