import numpy as np
import pytest

from blinkdet.anno_model import (
    BlinkInterval,
    FrameBox,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
)
from blinkdet.cli_io import Config, generate_scenario, naive_evaluate, perfect_prediction, shrunk60_prediction
from blinkdet.metrics import (
    IOU_THRESHOLDS,
    average_precision,
    blink_ap,
    evaluate,
    inst_ap,
)


class TestAveragePrecision:
    def test_all_true_positives(self):
        assert average_precision([(0.9, True), (0.8, True)], 2) == 1.0

    def test_tp_fp_tp_pattern(self):
        # ranked [TP, FP, TP] with 2 ground truths: AP = .5 * 1 + .5 * (2/3)
        ap = average_precision([(0.9, True), (0.8, False), (0.7, True)], 2)
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_no_detections(self):
        assert average_precision([], 3) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([(0.9, False)], 0) == 0.0

    def test_negative_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            average_precision([], -1)

    def test_invariant_to_monotone_confidence_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            confs = sorted({float(c) for c in rng.uniform(0, 1, n)}, reverse=True)
            records = [(c, bool(rng.integers(0, 2))) for c in confs]
            num_gt = max(1, sum(flag for _, flag in records))
            transformed = [(2.0 * c**3 + 1.0, flag) for c, flag in records]
            assert average_precision(records, num_gt) == average_precision(transformed, num_gt)


def _const_track(box, num_frames, blinks=()):
    return InstanceTrack((1,) * num_frames, (box,) * num_frames, tuple(blinks))


def _video(video_id, instances, num_frames=10):
    return VideoAnnotation(video_id, num_frames, 24.0, 512, 256, tuple(instances))


class TestInstAp:
    def test_identity_predictions(self):
        box = FrameBox(0.25, 0.25, 0.625, 0.75)
        gt = _video("v", [_const_track(box, 10, [BlinkInterval(2, 5)])])
        preds = [VideoPrediction("v", 10, (perfect_prediction(gt.instances[0]),))]
        mean_ap, ap_at, tps = inst_ap([gt], preds)
        assert mean_ap == 1.0
        assert all(v == 1.0 for v in ap_at.values())
        assert len(tps) == 1
        assert tps[0].gt_index == 0

    def test_threshold_sweep_at_exact_iou(self):
        # per-frame IoU exactly 0.6: TP for tau <= 0.6, FP above, mean 0.3
        box = FrameBox(0.25, 0.25, 0.875, 0.75)  # width 40/64, a multiple of 5/64
        gt = _video("v", [_const_track(box, 10)])
        pred = shrunk60_prediction(gt.instances[0])
        mean_ap, ap_at, _ = inst_ap([gt], [VideoPrediction("v", 10, (pred,))])
        for tau in IOU_THRESHOLDS:
            assert ap_at[tau] == (1.0 if tau <= 0.6 else 0.0), tau
        assert mean_ap == 0.3

    def test_empty_predictions(self):
        gt = _video("v", [_const_track(FrameBox(0.2, 0.2, 0.6, 0.6), 10)])
        mean_ap, ap_at, tps = inst_ap([gt], [VideoPrediction("v", 10, ())])
        assert mean_ap == 0.0
        assert tps == []

    def test_unknown_video_rejected(self):
        gt = _video("v", [_const_track(FrameBox(0.2, 0.2, 0.6, 0.6), 10)])
        with pytest.raises(ValueError):
            inst_ap([gt], [VideoPrediction("other", 10, ())])

    def test_unknown_video_rejected_by_both_evaluators(self):
        # the reference evaluator used to raise KeyError: 'b' once the unknown video had a hypothesis
        box = FrameBox(0.2, 0.2, 0.6, 0.6)
        gt = _video("a", [_const_track(box, 10)])
        pred = VideoPrediction("b", 10, (perfect_prediction(gt.instances[0]),))
        for call in (evaluate, naive_evaluate):
            with pytest.raises(ValueError, match="prediction references unknown video_id 'b'"):
                call([gt], [pred])

    def test_repeated_video_id_rejected(self):
        # two prediction videos with one id used to be scored as the last of them (evaluate's
        # per-video counts) or as a mix of both (the oracle's IoU table)
        box_b, box_c = FrameBox(0.1, 0.1, 0.4, 0.4), FrameBox(0.5, 0.5, 0.9, 0.9)
        gt = _video("a", [_const_track(box_b, 4), _const_track(box_c, 4)], num_frames=4)
        hyp = {(box, face): InstancePrediction((face,) * 4, (box,) * 4, (0.0,) * 4, ())
               for box, face in ((box_b, 0.9), (box_c, 0.8), (box_b, 0.7))}
        preds = [VideoPrediction("a", 4, (hyp[box_b, 0.9],)),
                 VideoPrediction("a", 4, (hyp[box_c, 0.8], hyp[box_b, 0.7]))]
        # the reference evaluator used to return Inst-AP 0.8333 on the first and 0.5 on the second
        for call in (inst_ap, evaluate, naive_evaluate):
            with pytest.raises(ValueError, match="duplicate video_id in predictions"):
                call([gt], preds)
        for call in (inst_ap, naive_evaluate):
            with pytest.raises(ValueError, match="duplicate video_id in ground truth"):
                call([gt, gt], preds[:1])

    def test_tube_length_mismatch_rejected(self):
        box = FrameBox(0.2, 0.2, 0.6, 0.6)
        gt = _video("v", [_const_track(box, 10)])
        short = perfect_prediction(_const_track(box, 8))
        # an 8-frame prediction of a 10-frame video; without hypotheses it used to score 0.0 silently
        for preds in ([VideoPrediction("v", 8, (short,))], [VideoPrediction("v", 8, ())]):
            for call in (inst_ap, evaluate, naive_evaluate):
                with pytest.raises(ValueError, match="video 'v': prediction has 8 frames, ground truth 10"):
                    call([gt], preds)
        # the counts agree, but a ground-truth track is shorter than its video
        short_gt = _video("v", [_const_track(box, 8)])
        with pytest.raises(ValueError, match="tube lengths differ: pred 10 vs gt 8"):
            inst_ap([short_gt], [VideoPrediction("v", 10, (perfect_prediction(gt.instances[0]),))])

    def test_invisible_instances_excluded(self):
        empty = InstanceTrack((0,) * 10, (None,) * 10, ())
        box = FrameBox(0.2, 0.2, 0.6, 0.6)
        gt = _video("v", [_const_track(box, 10), empty])
        preds = [VideoPrediction("v", 10, (perfect_prediction(gt.instances[0]),))]
        mean_ap, _, _ = inst_ap([gt], preds)
        assert mean_ap == 1.0  # the empty instance does not count as a miss

    def test_adding_false_positive_never_raises_ap(self):
        rng = np.random.default_rng(1)
        cfg = Config()
        for seed in range(4):
            scenario = generate_scenario(cfg, seed, num_videos=1)
            gts = list(scenario.videos)
            preds = [
                VideoPrediction(v.video_id, v.num_frames,
                                tuple(perfect_prediction(t) for t in v.instances))
                for v in gts
            ]
            base, _, _ = inst_ap(gts, preds)
            ghost = InstancePrediction(
                (0.4,) * gts[0].num_frames,
                (FrameBox(0.8, 0.8, 0.9, 0.9),) * gts[0].num_frames,
                (0.0,) * gts[0].num_frames,
                (),
            )
            worse = [VideoPrediction(preds[0].video_id, preds[0].num_frames,
                                     preds[0].hypotheses + (ghost,))]
            degraded, _, _ = inst_ap(gts, worse)
            assert degraded <= base + 1e-12

    def test_removing_tp_never_raises_ap(self):
        cfg = Config()
        scenario = generate_scenario(cfg, 9, num_videos=1)
        gts = list(scenario.videos)
        preds = list(scenario.predictions["perfect"])
        base, _, _ = inst_ap(gts, preds)
        if len(preds[0].hypotheses) > 1:
            fewer = [VideoPrediction(preds[0].video_id, preds[0].num_frames, preds[0].hypotheses[1:])]
            reduced, _, _ = inst_ap(gts, fewer)
            assert reduced <= base + 1e-12


class TestBlinkAp:
    def _tp_setup(self, pred_intervals, gt_intervals, num_frames=30):
        box = FrameBox(0.25, 0.25, 0.625, 0.75)
        gt = _video("v", [_const_track(box, num_frames, gt_intervals)], num_frames)
        base = perfect_prediction(gt.instances[0])
        pred = InstancePrediction(base.face_scores, base.boxes, base.blink_scores, tuple(pred_intervals))
        _, _, tps = inst_ap([gt], [VideoPrediction("v", num_frames, (pred,))])
        assert len(tps) == 1
        return tps

    def test_identical_intervals(self):
        intervals = [BlinkInterval(2, 6, 0.9), BlinkInterval(10, 13, 0.8)]
        tps = self._tp_setup(intervals, [BlinkInterval(2, 6), BlinkInterval(10, 13)])
        assert blink_ap(tps, 0.5) == 1.0
        assert blink_ap(tps, 0.75) == 1.0

    def test_shifted_interval_splits_thresholds(self):
        # GT [10,14] vs prediction [11,15]: tIoU 4/6, TP at 0.50, FP at 0.75
        tps = self._tp_setup([BlinkInterval(11, 15, 0.9)], [BlinkInterval(10, 14)])
        assert blink_ap(tps, 0.5) == 1.0
        assert blink_ap(tps, 0.75) == 0.0

    def test_no_tp_instances(self):
        assert blink_ap([], 0.5) == 0.0

    def test_threshold_monotonicity(self):
        cfg = Config()
        for seed in range(6):
            scenario = generate_scenario(cfg, seed)
            for preds in scenario.predictions.values():
                _, _, tps = inst_ap(list(scenario.videos), list(preds))
                assert blink_ap(tps, 0.75) <= blink_ap(tps, 0.5) + 1e-12


class TestEvaluate:
    def test_perfect_predictions(self):
        cfg = Config()
        scenario = generate_scenario(cfg, 21)
        report = evaluate(list(scenario.videos), list(scenario.predictions["perfect"]))
        assert report.inst_ap == 1.0
        assert report.blink_ap_50 == 1.0
        assert report.blink_ap_75 == 1.0
        assert report.diagnostics == []

    def test_matches_naive_oracle(self):
        cfg = Config()
        for seed in range(8):
            scenario = generate_scenario(cfg, seed)
            for name, preds in scenario.predictions.items():
                report = evaluate(list(scenario.videos), list(preds))
                expected = naive_evaluate(list(scenario.videos), list(preds))
                assert abs(report.inst_ap - expected["inst_ap"]) < 1e-9, (seed, name)
                assert abs(report.blink_ap_50 - expected["blink_ap_50"]) < 1e-9, (seed, name)
                assert abs(report.blink_ap_75 - expected["blink_ap_75"]) < 1e-9, (seed, name)
                for tau, value in report.inst_ap_at.items():
                    assert abs(value - expected["inst_ap_at"][f"{tau:.2f}"]) < 1e-9

    def test_empty_predictions_with_diagnostics(self):
        gt = _video("v", [_const_track(FrameBox(0.2, 0.2, 0.6, 0.6), 10)])
        report = evaluate([gt], [VideoPrediction("v", 10, ())])
        assert report.inst_ap == 0.0
        assert report.blink_ap_50 == 0.0
        assert any("no detections" in d for d in report.diagnostics)
        assert any("no true-positive" in d for d in report.diagnostics)

    def test_report_serializes(self):
        cfg = Config()
        scenario = generate_scenario(cfg, 22)
        report = evaluate(list(scenario.videos), list(scenario.predictions["noisy"]))
        data = report.to_dict()
        assert set(data) == {
            "inst_ap", "inst_ap_at", "blink_ap_50", "blink_ap_75",
            "per_video", "diagnostics", "metadata",
        }
        assert "0.50" in data["inst_ap_at"]
        for video in scenario.videos:
            assert video.video_id in data["per_video"]

    def test_single_instance_degenerates_to_threshold_test(self):
        box = FrameBox(0.25, 0.25, 0.875, 0.75)
        gt = _video("v", [_const_track(box, 10)])
        pred = shrunk60_prediction(gt.instances[0])
        report = evaluate([gt], [VideoPrediction("v", 10, (pred,))])
        for tau, value in report.inst_ap_at.items():
            assert value in (0.0, 1.0), tau
