import numpy as np
import pytest

from blinkdet.anno_model import FrameBox, Hypotheses, InstancePrediction
from blinkdet.anno_model import interval_frame_labels
from blinkdet.netcore import ModelOutput, StageOutput
from blinkdet.postprocess import ClipPrediction, finalize, link_clips, merge_blinks


class TestMergeBlinks:
    def test_all_below_threshold(self):
        assert merge_blinks([0.1, 0.2, 0.05], 0.3) == []

    def test_spec_pattern(self):
        intervals = merge_blinks([0.1, 0.5, 0.6, 0.2, 0.4, 0.4, 0.1], 0.3)
        assert [(b.start, b.end) for b in intervals] == [(1, 2), (4, 5)]
        assert intervals[0].confidence == pytest.approx(0.55)
        assert intervals[1].confidence == pytest.approx(0.4)

    def test_all_above_threshold(self):
        intervals = merge_blinks([0.9] * 6, 0.3)
        assert [(b.start, b.end) for b in intervals] == [(0, 5)]

    def test_score_exactly_at_threshold_excluded(self):
        assert merge_blinks([0.3, 0.3, 0.3], 0.3) == []

    def test_run_to_the_last_frame(self):
        intervals = merge_blinks([0.0, 0.8, 0.9], 0.3)
        assert [(b.start, b.end) for b in intervals] == [(1, 2)]
        assert intervals[0].confidence == pytest.approx(0.85)

    def test_empty_scores(self):
        assert merge_blinks([], 0.3) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            merge_blinks([0.5], 0.0)
        with pytest.raises(ValueError):
            merge_blinks([0.5], 1.0)

    def test_idempotent_for_binary_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = [float(v) for v in rng.integers(0, 2, int(rng.integers(3, 30)))]
            first = merge_blinks(scores, 0.3)
            labels = [float(v) for v in interval_frame_labels(first, len(scores))]
            assert labels == scores or not first or all(s in (0.0, 1.0) for s in scores)
            second = merge_blinks(labels, 0.3)
            assert [(b.start, b.end, b.confidence) for b in first] == [
                (b.start, b.end, b.confidence) for b in second
            ]


def _model_output(face, boxes, blink):
    stage = StageOutput(np.asarray(face, float), np.asarray(boxes, float), np.asarray(blink, float))
    return ModelOutput((stage,))


class TestFinalize:
    def _output(self, rng, n=4, t=3):
        face = rng.uniform(0.05, 0.95, (n, t))
        boxes = np.tile(np.array([0.2, 0.2, 0.6, 0.6]), (n, t, 1))
        blink = rng.uniform(0.0, 1.0, (n, t))
        return _model_output(face, boxes, blink)

    def test_keep_all(self):
        rng = np.random.default_rng(1)
        out = self._output(rng)
        clip = finalize(out, 0, keep_top=4, video_id="v")
        assert len(clip.hypotheses) == 4

    def test_keep_top_one_is_argmax(self):
        rng = np.random.default_rng(2)
        out = self._output(rng)
        clip = finalize(out, 0, keep_top=1)
        best = int(np.argmax(out.final.face_scores.mean(axis=1)))
        assert clip.hypotheses[0].face_scores == tuple(out.final.face_scores[best])

    def test_ranking_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        out = self._output(rng, n=8)
        clip = finalize(out, 5, keep_top=8)
        means = out.final.face_scores.mean(axis=1)
        oracle = sorted(range(8), key=lambda i: (-means[i], i))
        got = [clip.hypotheses[k].face_scores for k in range(8)]
        expected = [tuple(out.final.face_scores[i]) for i in oracle]
        assert got == expected
        assert clip.clip_start == 5

    def test_ranks_by_the_left_to_right_mean(self):
        # nine scores: numpy's pairwise row mean and the frame-after-frame mean of
        # InstancePrediction.confidence order these two rows differently
        face = np.array([[0.2, 0.1, 0.1, 0.3, 0.2, 0.1, 0.7, 0.9, 0.9],
                         [0.3, 0.1, 0.9, 0.1, 0.2, 0.1, 0.7, 0.2, 0.9]])
        pairwise = face.mean(axis=1)
        assert pairwise[0] > pairwise[1]
        boxes = np.tile(np.array([0.2, 0.2, 0.6, 0.6]), (2, 9, 1))
        clip = finalize(_model_output(face, boxes, np.zeros((2, 9))), 0, keep_top=2)
        assert [h.face_scores for h in clip.hypotheses] == [tuple(face[1]), tuple(face[0])]
        first, second = (h.confidence for h in clip.hypotheses)
        assert first > second

    def test_blink_intervals_populated(self):
        face = [[0.9, 0.9, 0.9, 0.9]]
        boxes = np.tile(np.array([0.1, 0.1, 0.5, 0.5]), (1, 4, 1))
        blink = [[0.1, 0.8, 0.8, 0.1]]
        clip = finalize(_model_output(face, boxes, blink), 0, keep_top=1)
        assert [(b.start, b.end) for b in clip.hypotheses[0].blink_intervals] == [(1, 2)]

    def test_checks_the_kept_rows_once_as_one_stack(self, monkeypatch):
        out = self._output(np.random.default_rng(6), n=6, t=5)
        expected = finalize(out, 2, keep_top=4)

        def row_check(hyp):
            raise AssertionError("a hypothesis was built and checked on its own")

        monkeypatch.setattr(InstancePrediction, "__post_init__", row_check)
        clip = finalize(out, 2, keep_top=4)
        assert clip == expected and type(clip.hypotheses) is Hypotheses

    def test_keep_top_below_one_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            finalize(self._output(rng), 0, keep_top=0)


def _clip_hypothesis(length, box, face=0.9, blink=0.0):
    return InstancePrediction(
        face_scores=(face,) * length,
        boxes=(box,) * length,
        blink_scores=(blink,) * length,
        blink_intervals=(),
    )


BOX_A = FrameBox(0.2, 0.2, 0.6, 0.6)
BOX_FAR = FrameBox(0.7, 0.7, 0.95, 0.95)


class TestLinkClips:
    def test_identical_overlap_links_into_one(self):
        clips = [
            ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A),)),
            ClipPrediction("v", 2, 4, (_clip_hypothesis(4, BOX_A),)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 1
        assert video.num_frames == 6
        assert video.hypotheses[0].face_scores == (0.9,) * 6

    def test_zero_overlap_iou_keeps_clip_instances(self):
        clips = [
            ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A),)),
            ClipPrediction("v", 2, 4, (_clip_hypothesis(4, BOX_FAR),)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 2
        first, second = video.hypotheses
        # first instance padded with absent frames after its clip
        assert first.face_scores[4:] == (0.0, 0.0)
        assert second.face_scores[:2] == (0.0, 0.0)
        assert second.boxes[0].area == 0.0

    def test_three_clip_chain_matches_hand_assembly(self):
        # overlap IoUs above threshold chain all three clips into one instance
        box0 = FrameBox(0.20, 0.20, 0.60, 0.60)
        box1 = FrameBox(0.22, 0.20, 0.62, 0.60)
        box2 = FrameBox(0.25, 0.20, 0.65, 0.60)
        clips = [
            ClipPrediction("v", 0, 6, (_clip_hypothesis(6, box0, face=0.8),)),
            ClipPrediction("v", 3, 6, (_clip_hypothesis(6, box1, face=0.6),)),
            ClipPrediction("v", 6, 6, (_clip_hypothesis(6, box2, face=0.4),)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 1
        inst = video.hypotheses[0]

        expected_face = [0.8] * 3 + [0.7] * 3 + [0.5] * 3 + [0.4] * 3
        assert inst.face_scores == tuple(expected_face)

        def avg(a, b):
            return tuple((x + y) / 2.0 for x, y in zip(a.as_tuple(), b.as_tuple()))

        for t in range(0, 3):
            assert inst.boxes[t].as_tuple() == box0.as_tuple()
        for t in range(3, 6):
            assert inst.boxes[t].as_tuple() == avg(box0, box1)
        for t in range(6, 9):
            assert inst.boxes[t].as_tuple() == avg(box1, box2)
        for t in range(9, 12):
            assert inst.boxes[t].as_tuple() == box2.as_tuple()

    def test_blinks_remerged_across_seams(self):
        # a blink spanning the clip boundary comes out as one interval
        hyp0 = InstancePrediction((0.9,) * 4, (BOX_A,) * 4, (0.0, 0.0, 0.9, 0.9), ())
        hyp1 = InstancePrediction((0.9,) * 4, (BOX_A,) * 4, (0.9, 0.9, 0.0, 0.0), ())
        clips = [
            ClipPrediction("v", 0, 4, (hyp0,)),
            ClipPrediction("v", 2, 4, (hyp1,)),
        ]
        video = link_clips(clips, 0.5, blink_threshold=0.3)
        assert len(video.hypotheses) == 1
        assert [(b.start, b.end) for b in video.hypotheses[0].blink_intervals] == [(2, 3)]

    def test_inconsistent_video_id_rejected(self):
        clips = [
            ClipPrediction("a", 0, 4, ()),
            ClipPrediction("b", 2, 4, ()),
        ]
        with pytest.raises(ValueError):
            link_clips(clips)

    def test_non_overlapping_adjacency_rejected(self):
        clips = [
            ClipPrediction("v", 0, 4, ()),
            ClipPrediction("v", 4, 4, ()),
        ]
        with pytest.raises(ValueError):
            link_clips(clips)

    def test_clip_nested_in_the_clip_before_rejected(self):
        h8, h3, h6 = (_clip_hypothesis(n, BOX_A) for n in (8, 3, 6))
        with pytest.raises(ValueError, match=r"\[0, 8\) then \[2, 5\)"):
            link_clips([ClipPrediction("v", 0, 8, (h8,)), ClipPrediction("v", 2, 3, (h3,))])
        # ending on the same frame as the clip before is still a seam
        video = link_clips([ClipPrediction("v", 0, 8, (h8,)), ClipPrediction("v", 2, 6, (h6,))])
        assert video.num_frames == 8 and len(video.hypotheses) == 1

    @pytest.mark.parametrize("lengths", [(3,), (5, 3)], ids=["short", "second-short"])
    def test_hypothesis_frames_must_match_clip_length(self, lengths):
        # link_clips used to fail inside numpy with a message that named no clip
        hyps = tuple(_clip_hypothesis(n, BOX_A) for n in lengths)
        with pytest.raises(ValueError, match=rf"clip at 2: hypothesis {len(lengths) - 1} has 3 frames, not 5"):
            ClipPrediction("v", 2, 5, hyps)
        # a hypothesis one box short no longer reaches the clip: the prediction type rejects it
        with pytest.raises(ValueError, match=r"face scores, boxes and blink scores cover \[5, 4, 5\] frames"):
            InstancePrediction((0.9,) * 5, (BOX_A,) * 4, (0.0,) * 5, ())

    def test_unsorted_clips_rejected(self):
        clips = [
            ClipPrediction("v", 4, 4, ()),
            ClipPrediction("v", 0, 4, ()),
        ]
        with pytest.raises(ValueError):
            link_clips(clips)

    def test_single_clip_passthrough(self):
        video = link_clips([ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A),))])
        assert video.num_frames == 4
        assert len(video.hypotheses) == 1

    def test_every_frame_from_one_clip_or_average_of_two(self):
        rng = np.random.default_rng(5)
        clips = []
        for k, start in enumerate((0, 3, 6)):
            hyps = tuple(
                _clip_hypothesis(6, BOX_A, face=float(rng.uniform(0.5, 1.0))) for _ in range(2)
            )
            clips.append(ClipPrediction("v", start, 6, hyps))
        video = link_clips(clips, 0.5)
        assert all(len(h.face_scores) == video.num_frames for h in video.hypotheses)

    def test_empty_clip_list_rejected(self):
        with pytest.raises(ValueError):
            link_clips([])

    def test_ties_prefer_lower_hypothesis_index(self):
        # both next-clip hypotheses overlap the single chain equally; the
        # lower-indexed one must win the link
        hyp_tail = _clip_hypothesis(4, BOX_A, face=0.9)
        next_a = _clip_hypothesis(4, BOX_A, face=0.7)
        next_b = _clip_hypothesis(4, BOX_A, face=0.3)
        clips = [
            ClipPrediction("v", 0, 4, (hyp_tail,)),
            ClipPrediction("v", 2, 4, (next_a, next_b)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 2
        linked = video.hypotheses[0]
        assert linked.face_scores[3] == pytest.approx((0.9 + 0.7) / 2)

    def test_ties_between_chains_prefer_the_older_chain(self):
        # chain 0 runs through clips 0-1, chain 1 starts in clip 1; both meet
        # clip 2's one hypothesis at IoU 1, and the older chain takes it
        clips = [
            ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A, face=0.9),)),
            ClipPrediction("v", 2, 4, (_clip_hypothesis(4, BOX_A, face=0.7), _clip_hypothesis(4, BOX_A, face=0.3))),
            ClipPrediction("v", 4, 4, (_clip_hypothesis(4, BOX_A, face=0.5),)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 2
        older, younger = video.hypotheses
        assert older.face_scores[6:] == (0.5, 0.5)
        assert younger.face_scores[:2] == (0.0, 0.0) and younger.face_scores[6:] == (0.0, 0.0)

    def test_chain_unlinked_at_a_seam_is_not_offered_at_the_next(self):
        # clip 2's hypothesis matches chain 0's tail boxes exactly, but chain 0
        # ended when clip 1 did not link it
        clips = [
            ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A),)),
            ClipPrediction("v", 2, 4, (_clip_hypothesis(4, BOX_FAR),)),
            ClipPrediction("v", 4, 4, (_clip_hypothesis(4, BOX_A),)),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 3
        assert video.hypotheses[0].face_scores[4:] == (0.0,) * 4

    def test_clip_without_hypotheses_ends_every_chain(self):
        clips = [
            ClipPrediction("v", 0, 4, (_clip_hypothesis(4, BOX_A), _clip_hypothesis(4, BOX_FAR))),
            ClipPrediction("v", 2, 4, ()),
            ClipPrediction("v", 4, 4, (_clip_hypothesis(4, BOX_A), _clip_hypothesis(4, BOX_FAR))),
        ]
        video = link_clips(clips, 0.5)
        assert len(video.hypotheses) == 4
        assert all(h.face_scores[4:] == (0.0,) * 4 for h in video.hypotheses[:2])
        assert all(h.face_scores[:4] == (0.0,) * 4 for h in video.hypotheses[2:])
