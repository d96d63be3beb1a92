import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blinkdet.anno_model import (
    BlinkInterval,
    Boxes,
    FrameBox,
    Hypotheses,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    blink_frame_labels,
    frame_targets,
    interval_frame_labels,
    validate_annotation,
)
from blinkdet.assignment import matching_costs
from blinkdet.cli_io import Config, generate_scenario, naive_evaluate
from blinkdet.losses import instance_losses
from blinkdet.metrics import evaluate
from blinkdet.postprocess import ClipPrediction, link_clips, merge_blinks

BOX = FrameBox(0.1, 0.1, 0.4, 0.5)


def make_annotation(instances):
    return VideoAnnotation("vid", 6, 24.0, 512, 256, tuple(instances))


def track(presence, blinks=()):
    boxes = tuple(BOX if f else None for f in presence)
    return InstanceTrack(tuple(presence), boxes, tuple(blinks))


class TestValidateAnnotation:
    def test_well_formed_two_instances(self):
        ann = make_annotation(
            [track([1, 1, 1, 0, 0, 0], [BlinkInterval(0, 1)]), track([0, 1, 1, 1, 1, 0])]
        )
        assert validate_annotation(ann) == []

    def test_reversed_blink_interval(self):
        ann = make_annotation([track([1] * 6, [BlinkInterval(5, 3)])])
        violations = validate_annotation(ann)
        assert len(violations) == 1
        assert "start <= end" in violations[0]
        assert "blinks[0]" in violations[0]

    def test_box_presence_mismatch(self):
        bad = InstanceTrack((1, 0, 1, 1, 1, 1), (BOX, BOX, BOX, BOX, BOX, BOX), ())
        violations = validate_annotation(make_annotation([bad]))
        assert len(violations) == 1
        assert "box/presence mismatch" in violations[0]
        assert "boxes[1]" in violations[0]

    def test_missing_box_on_visible_frame(self):
        bad = InstanceTrack((1, 1, 1, 1, 1, 1), (BOX, None, BOX, BOX, BOX, BOX), ())
        violations = validate_annotation(make_annotation([bad]))
        assert any("presence=1, box absent" in v for v in violations)

    def test_overlapping_blinks(self):
        ann = make_annotation([track([1] * 6, [BlinkInterval(0, 2), BlinkInterval(2, 4)])])
        violations = validate_annotation(ann)
        assert any("overlaps or is unsorted" in v for v in violations)

    def test_out_of_range_blink(self):
        ann = make_annotation([track([1] * 6, [BlinkInterval(4, 9)])])
        assert any("outside frame range" in v for v in validate_annotation(ann))

    def test_length_mismatch(self):
        short = InstanceTrack((1, 1), (BOX, BOX), ())
        violations = validate_annotation(make_annotation([short]))
        assert any("face_presence length" in v for v in violations)

    def test_corner_ordering(self):
        bad_box = FrameBox(0.5, 0.1, 0.2, 0.5)
        bad = InstanceTrack((1, 0, 0, 0, 0, 0), (bad_box, None, None, None, None, None), ())
        violations = validate_annotation(make_annotation([bad]))
        assert any("corner ordering" in v for v in violations)

    def test_frame_messages(self):
        nan_box = FrameBox(0.1, float("nan"), 0.4, 0.5)
        for flags in ((1, 0, 1, 1, 0, 1), (1, 0, 1, 1, 2, 1)):
            bad = InstanceTrack(flags, (BOX, BOX, None, nan_box, None, FrameBox(0.5, 0.1, 0.2, 0.5)), ())
            violations = validate_annotation(make_annotation([bad]))
            expected = [
                "instances[0].boxes[1]: box/presence mismatch (presence=0, box given)",
                "instances[0].boxes[2]: box/presence mismatch (presence=1, box absent)",
                "instances[0].boxes[3]: non-finite coordinate",
                "instances[0].boxes[5]: corner ordering violated (need x2>=x1 and y2>=y1)",
            ]
            if 2 in flags:
                expected.insert(3, "instances[0].face_presence[4]: flag must be 0 or 1, got 2")
            assert violations == expected

    def test_generator_output_always_valid(self):
        cfg = Config()
        for seed in range(5):
            scenario = generate_scenario(cfg, seed)
            for video in scenario.videos:
                assert validate_annotation(video) == []


def _walk_validate(ann: VideoAnnotation) -> list[str]:
    """validate_annotation as a walk over every frame: the reference of its per-track vector check."""
    violations: list[str] = []
    t_total = ann.num_frames
    if t_total < 1:
        violations.append(f"num_frames must be >= 1, got {t_total}")
    if not (ann.fps > 0):
        violations.append(f"fps must be > 0, got {ann.fps}")
    if ann.width <= 0 or ann.height <= 0:
        violations.append(f"width/height must be positive, got {ann.width}x{ann.height}")
    for i, tr in enumerate(ann.instances):
        prefix = f"instances[{i}]"
        if len(tr.face_presence) != t_total:
            violations.append(f"{prefix}: face_presence length {len(tr.face_presence)} != num_frames {t_total}")
        if len(tr.boxes) != t_total:
            violations.append(f"{prefix}: boxes length {len(tr.boxes)} != num_frames {t_total}")
        for t, (flag, box) in enumerate(zip(tr.face_presence, tr.boxes.array.tolist())):
            if flag not in (0, 1):
                violations.append(f"{prefix}.face_presence[{t}]: flag must be 0 or 1, got {flag!r}")
                continue
            x1, y1, x2, y2 = box
            finite = math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2) and math.isfinite(y2)
            given = finite or not all(map(math.isnan, box))
            if flag == 1 and not given:
                violations.append(f"{prefix}.boxes[{t}]: box/presence mismatch (presence=1, box absent)")
            if flag == 0 and given:
                violations.append(f"{prefix}.boxes[{t}]: box/presence mismatch (presence=0, box given)")
            if given:
                if not finite:
                    violations.append(f"{prefix}.boxes[{t}]: non-finite coordinate")
                elif x2 < x1 or y2 < y1:
                    violations.append(f"{prefix}.boxes[{t}]: corner ordering violated (need x2>=x1 and y2>=y1)")
        prev = None
        for k, blink in enumerate(tr.blinks):
            bp = f"{prefix}.blinks[{k}]"
            if blink.start > blink.end:
                violations.append(f"{bp}: start <= end violated (start={blink.start}, end={blink.end})")
            if blink.start < 0 or blink.end > t_total - 1:
                violations.append(
                    f"{bp}: interval [{blink.start}, {blink.end}] outside frame range [0, {t_total - 1}]"
                )
            if prev is not None and blink.start <= prev.end:
                violations.append(
                    f"{bp}: overlaps or is unsorted relative to blinks[{k - 1}] "
                    f"(prev end={prev.end}, start={blink.start})"
                )
            prev = blink
    return violations


_NAN, _INF = float("nan"), float("inf")
_JUNK_FLAGS = st.sampled_from([2, -1, None, "1", 0.5, _NAN, True, False, 1.0, 0.0])
_COORDS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e308, -1e308, _NAN, _INF, -_INF])


@st.composite
def _malformed_track(draw, num_frames: int) -> InstanceTrack:
    """A well-formed track of about num_frames frames, then a few frame-level faults."""
    length = num_frames + draw(st.sampled_from([0, 0, 0, -1, 1]))
    flags = draw(st.lists(st.sampled_from([0, 1]), min_size=max(length, 0), max_size=max(length, 0)))
    rows = [[0.125, 0.25, 0.5, 0.75] if flag else [_NAN] * 4 for flag in flags]
    rows += [[0.0, 0.0, 0.5, 0.5]] * draw(st.integers(0, 1))  # boxes one frame longer than the flags
    for _ in range(draw(st.integers(0, 3)) if flags else 0):
        t = draw(st.integers(0, len(flags) - 1))
        fault = draw(st.sampled_from(["flag", "flip", "coord", "swap", "nan_row"]))
        if fault == "flag":
            flags[t] = draw(_JUNK_FLAGS)
        elif fault == "flip":
            flags[t] = 1 - flags[t] if flags[t] in (0, 1) else 1
        elif fault == "coord":
            rows[t][draw(st.integers(0, 3))] = draw(_COORDS)
        elif fault == "swap":
            rows[t] = [rows[t][2], rows[t][1], rows[t][0], rows[t][3]]
        else:
            rows[t] = [_NAN] * 4
    return InstanceTrack(flags, Boxes(np.array(rows, dtype=float).reshape(-1, 4)), ())


@settings(max_examples=400)
@given(st.data())
def test_validate_annotation_equals_the_frame_walk(data):
    num_frames = data.draw(st.integers(0, 6))
    tracks = data.draw(st.lists(_malformed_track(num_frames), max_size=3))
    blinks = data.draw(st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=2))
    if tracks and blinks:
        tracks[0] = InstanceTrack(tracks[0].face_presence, tracks[0].boxes, [BlinkInterval(*b) for b in blinks])
    ann = VideoAnnotation("vid", num_frames, 24.0, 64, 64, tracks)
    assert validate_annotation(ann) == _walk_validate(ann)


class TestBlinkFrameLabels:
    def test_no_events(self):
        assert blink_frame_labels(track([1] * 5 + [0]), 5) == [0, 0, 0, 0, 0]

    def test_single_interval(self):
        t = track([1] * 6, [BlinkInterval(1, 2)])
        assert blink_frame_labels(t, 5) == [0, 1, 1, 0, 0]

    def test_two_intervals_matches_enumeration(self):
        intervals = [BlinkInterval(0, 1), BlinkInterval(3, 3)]
        # frame-membership enumeration oracle
        expected = [1 if any(b.start <= t <= b.end for b in intervals) else 0 for t in range(5)]
        assert expected == [1, 1, 0, 1, 0]
        assert interval_frame_labels(intervals, 5) == expected

    @pytest.mark.parametrize("threshold", [0.1, 0.3, 0.5, 0.9])
    def test_labels_then_merge_round_trip(self, threshold):
        # gap-separated intervals survive the label/merge round trip exactly
        rng = np.random.default_rng(11)
        for _ in range(50):
            num_frames = int(rng.integers(10, 60))
            intervals = []
            t = int(rng.integers(0, 4))
            while True:
                d = int(rng.integers(1, 6))
                if t + d - 1 > num_frames - 1:
                    break
                intervals.append(BlinkInterval(t, t + d - 1))
                t = t + d - 1 + int(rng.integers(2, 7))
            labels = interval_frame_labels(intervals, num_frames)
            merged = merge_blinks([float(v) for v in labels], threshold)
            assert [(b.start, b.end) for b in merged] == [(b.start, b.end) for b in intervals]
            assert all(b.confidence == 1.0 for b in merged)


class TestPredictionTypes:
    def test_confidence_is_mean_face_score(self):
        pred = InstancePrediction(
            face_scores=(0.2, 0.4, 0.9),
            boxes=(BOX, BOX, BOX),
            blink_scores=(0.0, 0.0, 0.0),
            blink_intervals=(),
        )
        assert pred.confidence == pytest.approx((0.2 + 0.4 + 0.9) / 3)

    def test_sequences_coerced_to_tuples(self):
        # scores, flags and intervals become tuples; boxes become one read-only array (Boxes)
        pred = InstancePrediction([0.5], [BOX], [0.1], [])
        assert pred.face_scores == (0.5,) and type(pred.face_scores[0]) is float
        assert pred.blink_scores == (0.1,) and pred.blink_intervals == ()
        assert isinstance(pred.boxes, Boxes)
        assert pred.boxes.array.tolist() == [list(BOX)]
        gt = InstanceTrack([1, 0], [BOX, None], [])
        assert gt.face_presence == (1, 0) and isinstance(gt.boxes, Boxes)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.7])
    def test_scores_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="face and blink scores"):
            InstancePrediction((0.5, bad), (BOX, BOX), (0.1, 0.2), ())
        with pytest.raises(ValueError, match="face and blink scores"):
            InstancePrediction((0.5, 0.5), (BOX, BOX), (0.1, bad), ())
        with pytest.raises(ValueError, match="blink confidence"):
            BlinkInterval(0, 1, bad)

    def test_score_arrays_are_read_only_and_not_fields(self):
        pred = InstancePrediction([0.5, 0.25], [BOX, BOX], [0.125, 1.0], [])
        assert pred.face_array.dtype == pred.blink_array.dtype == np.float64
        assert pred.face_array.tolist() == list(pred.face_scores) == [0.5, 0.25]
        assert pred.blink_array.tolist() == list(pred.blink_scores) == [0.125, 1.0]
        for array in (pred.face_array, pred.blink_array):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        # equality, hash and repr see the fields only
        assert {"face_array", "blink_array"}.isdisjoint(f.name for f in dataclasses.fields(pred))
        twin = InstancePrediction((0.5, 0.25), (BOX, BOX), (0.125, 1.0), ())
        assert twin == pred and hash(twin) == hash(pred)
        assert repr(twin) == repr(pred) and "array" not in repr(pred)
        # dataclasses.replace runs __post_init__ again, which builds new arrays
        other = dataclasses.replace(pred, face_scores=(0.75, 0.0))
        assert other.face_array.tolist() == [0.75, 0.0] and other.blink_array.tolist() == [0.125, 1.0]
        assert pred.face_array.tolist() == [0.5, 0.25]
        assert not np.shares_memory(other.blink_array, pred.blink_array)
        empty = InstancePrediction((), (), (), ())
        assert empty.face_array.shape == empty.blink_array.shape == (0,)

    def test_ragged_frame_counts_rejected(self):
        # evaluate used to fail inside numpy with a message that named no video
        with pytest.raises(ValueError, match=r"face scores, boxes and blink scores cover \[4, 3, 2\] frames"):
            InstancePrediction([0.5] * 4, [BOX] * 3, [0.1] * 2, ())
        four, three = (InstancePrediction([0.5] * n, [BOX] * n, [0.1] * n, ()) for n in (4, 3))
        with pytest.raises(ValueError, match=r"video 'a': hypothesis 1 has 3 frames, not num_frames 4"):
            VideoPrediction("a", 4, (four, three))
        with pytest.raises(ValueError, match=r"video 'a': hypothesis 0 has 4 frames, not num_frames 3"):
            VideoPrediction("a", 3, (four,))

    def test_video_arrays_stack_the_hypotheses(self):
        hyps = (InstancePrediction([0.5, 0.25], [BOX, BOX], [0.125, 1.0], []),
                InstancePrediction([1.0, 0.0], [BOX, FrameBox(0.0, 0.0, 0.0, 0.0)], [0.0, 0.5], [BlinkInterval(1, 1, 0.5)]))
        video = VideoPrediction("a", 2, hyps)
        assert video.face_array.tolist() == [[0.5, 0.25], [1.0, 0.0]]
        assert video.blink_array.tolist() == [[0.125, 1.0], [0.0, 0.5]]
        assert video.box_array.tolist() == [[list(BOX)] * 2, [list(BOX), [0.0] * 4]]
        for array in (video.face_array, video.box_array, video.blink_array):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert video.hypotheses == hyps
        assert {"face_array", "box_array", "blink_array"}.isdisjoint(f.name for f in dataclasses.fields(video))
        assert "array" not in repr(video)
        empty = VideoPrediction("b", 3, ())
        assert empty.face_array.shape == empty.blink_array.shape == (0, 3) and empty.box_array.shape == (0, 3, 4)

    def test_from_arrays_rows_view_the_arrays(self):
        face = np.array([[0.5, 0.25], [1.0, 0.0]])
        boxes = np.array([[list(BOX)] * 2, [list(BOX), [0.0] * 4]])
        blink = np.array([[0.125, 1.0], [0.0, 0.5]])
        intervals = [[], [BlinkInterval(1, 1, 0.5)]]
        video = VideoPrediction.from_arrays("a", 2, face, boxes, blink, intervals)
        # equal to the video built from checked hypotheses, which stacks copies of theirs
        built = VideoPrediction("a", 2, [InstancePrediction(*args) for args in zip(face, boxes, blink, intervals)])
        assert video == built and hash(video) == hash(built) and repr(video) == repr(built)
        assert video.face_array is face and video.box_array is boxes and video.blink_array is blink  # not copied
        assert not face.flags.writeable
        for h, hyp in enumerate(video.hypotheses):
            assert type(hyp.face_scores[0]) is float and isinstance(hyp.boxes, Boxes)
            assert hyp == built.hypotheses[h] and hyp.confidence == built.hypotheses[h].confidence
            for row, array in ((hyp.face_array, face), (hyp.boxes.array, boxes), (hyp.blink_array, blink)):
                assert np.shares_memory(row, array[h]) and not row.flags.writeable
        # a row is rebuilt, and checked, by dataclasses.replace, as any hypothesis is
        with pytest.raises(ValueError, match="face and blink scores"):
            dataclasses.replace(video.hypotheses[0], face_scores=(0.5, 2.0))

    def test_from_arrays_gives_the_messages_of_the_hypotheses(self):
        face, blink = np.full((2, 3), 0.5), np.zeros((2, 3))
        boxes = np.tile(np.array(list(BOX)), (2, 3, 1))
        intervals = [[], []]
        with pytest.raises(ValueError, match=r"^video 'a': hypothesis 0 has 3 frames, not num_frames 4$"):
            VideoPrediction.from_arrays("a", 4, face, boxes, blink, intervals)
        with pytest.raises(ValueError, match=r"face scores, boxes and blink scores cover \[3, 3, 2\] frames"):
            VideoPrediction.from_arrays("a", 3, face, boxes, blink[:, :2], intervals)
        nan_box = boxes.copy()
        nan_box[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="prediction boxes must not hold NaN"):
            VideoPrediction.from_arrays("a", 3, face, nan_box, blink, intervals)
        for bad in (np.nan, -0.5, 1.5):
            high = face.copy()
            high[1, 1] = bad
            with pytest.raises(ValueError, match="face and blink scores must lie in"):
                VideoPrediction.from_arrays("a", 3, high, boxes, blink, intervals)
            with pytest.raises(ValueError, match="face and blink scores must lie in"):
                VideoPrediction.from_arrays("a", 3, face, boxes, high, intervals)
        with pytest.raises(ValueError):  # one list of intervals per hypothesis
            VideoPrediction.from_arrays("a", 3, face, boxes, blink, intervals[:1])

    def test_box_accessors(self):
        box = FrameBox(1.0, 2.0, 4.0, 6.0)
        assert box.width == 3.0
        assert box.height == 4.0
        assert box.area == 12.0
        assert BlinkInterval(3, 5).num_frames == 3


class TestHypotheses:
    ARRAYS = ("face_array", "box_array", "blink_array")

    @staticmethod
    def _rows():
        return [InstancePrediction([0.5, 0.25], [BOX, BOX], [0.125, 1.0], []),
                InstancePrediction([1.0, 0.0], [BOX, FrameBox(0.0, 0.0, 0.0, 0.0)], [0.0, 0.5],
                                   [BlinkInterval(1, 1, 0.5)])]

    def test_stacked_once_and_handed_back(self):
        rows = self._rows()
        hyps = Hypotheses(rows, 2, "clip at 0", "")
        assert all(hyp is row for hyp, row in zip(hyps, rows))  # the rows are kept as they are
        for name, row_array in (("face_array", lambda h: h.face_array), ("box_array", lambda h: h.boxes.array),
                                ("blink_array", lambda h: h.blink_array)):
            array = getattr(hyps, name)
            assert array.tobytes() == np.stack([row_array(row) for row in rows]).tobytes()
            assert array.shape == np.stack([row_array(row) for row in rows]).shape and not array.flags.writeable
        assert Hypotheses(hyps, 2, "video 'a'", "num_frames ") is hyps  # already stacked: not stacked again
        for owner in (ClipPrediction("v", 0, 2, hyps), VideoPrediction("v", 2, hyps)):
            assert owner.hypotheses is hyps
        empty = Hypotheses([], 3, "clip at 0", "")
        assert empty.face_array.shape == empty.blink_array.shape == (0, 3) and empty.box_array.shape == (0, 3, 4)
        with pytest.raises(ValueError, match=r"^video 'a': hypothesis 0 has 2 frames, not num_frames 3$"):
            Hypotheses(hyps, 3, "video 'a'", "num_frames ")

    def test_from_arrays_rows_are_read_only_views(self):
        rows = self._rows()
        stacked = Hypotheses(rows, 2, "clip at 0", "")
        hyps = Hypotheses.from_arrays(stacked.face_array, stacked.box_array, stacked.blink_array,
                                      [row.blink_intervals for row in rows])
        assert hyps == stacked and all(type(hyp) is InstancePrediction for hyp in hyps)
        for h, hyp in enumerate(hyps):
            for view, array in ((hyp.face_array, hyps.face_array), (hyp.boxes.array, hyps.box_array),
                                (hyp.blink_array, hyps.blink_array)):
                assert np.shares_memory(view, array[h]) and not view.flags.writeable

    def test_value_is_the_plain_tuple(self):
        rows = self._rows()
        hyps, plain = Hypotheses(rows, 2, "clip at 0", ""), tuple(rows)
        assert hyps == plain and plain == hyps and hash(hyps) == hash(plain) and repr(hyps) == repr(plain)
        assert type(hyps[:1]) is tuple and type(tuple(hyps)) is tuple  # neither holds the arrays
        assert "array" not in repr(VideoPrediction("v", 2, hyps))

    def test_pickle_and_deepcopy_keep_the_arrays(self):
        rows = self._rows()
        stacked = Hypotheses(rows, 2, "clip at 0", "")
        viewed = Hypotheses.from_arrays(stacked.face_array, stacked.box_array, stacked.blink_array,
                                        [row.blink_intervals for row in rows])
        for hyps in (stacked, viewed):
            for twin in (pickle.loads(pickle.dumps(hyps)), copy.deepcopy(hyps)):
                assert type(twin) is Hypotheses and twin == hyps
                for name in self.ARRAYS:
                    assert getattr(twin, name).tobytes() == getattr(hyps, name).tobytes()
                    assert not getattr(twin, name).flags.writeable
        video = pickle.loads(pickle.dumps(VideoPrediction("v", 2, viewed)))
        assert type(video.hypotheses) is Hypotheses and video.face_array.tolist() == viewed.face_array.tolist()

    def test_link_clips_and_matching_costs_read_only_the_stacks(self):
        rng = np.random.default_rng(5)
        corner = rng.uniform(0.0, 0.5, (3, 6, 2))
        face, blink, boxes = rng.random((3, 6)), rng.random((3, 6)), np.concatenate((corner, corner + 0.3), axis=-1)
        tracks = [track([1, 1, 0, 1, 1, 1]), track([1] * 6)]

        def clips():
            return [ClipPrediction("v", start, 6, Hypotheses.from_arrays(face, boxes, blink, [()] * 3))
                    for start in (0, 3)]

        expected = link_clips(clips()), matching_costs(clips()[0].hypotheses, tracks).tolist()
        bare = clips()
        for clip in bare:  # rows without arrays: reading one would raise AttributeError
            for hyp in clip.hypotheses:
                del hyp.__dict__["face_array"], hyp.__dict__["blink_array"]
                hyp.boxes.array = None
        assert (link_clips(bare), matching_costs(bare[0].hypotheses, tracks).tolist()) == expected


class TestBoxes:
    ROWS = [BOX, None, FrameBox(0.0, 0.25, 0.5, 1.0)]

    def test_index_builds_frame_boxes_and_none(self):
        boxes = Boxes(self.ROWS)
        assert len(boxes) == 3
        assert boxes[0] == BOX and boxes[1] is None and boxes[-1] == self.ROWS[2]
        assert type(boxes[0]) is FrameBox and type(boxes[0].x2) is float
        assert list(boxes) == self.ROWS
        with pytest.raises(IndexError):
            boxes[3]

    def test_nan_row_reads_back_as_none(self):
        array = np.array([[0.1, 0.2, 0.3, 0.4], [np.nan] * 4])
        boxes = Boxes(array)
        assert boxes[1] is None and list(boxes) == [FrameBox(0.1, 0.2, 0.3, 0.4), None]

    def test_slice_is_boxes(self):
        boxes = Boxes(self.ROWS)
        tail = boxes[1:]
        assert isinstance(tail, Boxes)
        assert list(tail) == self.ROWS[1:]
        assert boxes[:0].array.shape == (0, 4)

    def test_array_is_read_only_float64_copy(self):
        source = np.array([[1, 2, 3, 4]])
        boxes = Boxes(source)
        assert boxes.array.dtype == np.float64 and boxes.array.shape == (1, 4)
        with pytest.raises(ValueError):
            boxes.array[0, 0] = 9.0
        source[0, 0] = 9
        assert boxes[0] == FrameBox(1.0, 2.0, 3.0, 4.0)
        assert Boxes().array.shape == (0, 4)

    def test_equality_compares_arrays(self):
        assert Boxes(self.ROWS) == Boxes(list(self.ROWS))
        assert Boxes(self.ROWS) != Boxes(self.ROWS[:2] + [BOX])
        assert Boxes([BOX]) != (BOX,)  # a Boxes equals only a Boxes
        assert BOX == (0.1, 0.1, 0.4, 0.5)  # a FrameBox is a tuple

    def test_hash_agrees_with_equality(self):
        quiet_nan = np.array([[np.nan] * 4, [-0.0, 0.1, 0.4, 0.5]])
        other_nan = np.array([[-np.nan] * 4, [0.0, 0.1, 0.4, 0.5]])  # other NaN bytes, +0.0
        assert quiet_nan.tobytes() != other_nan.tobytes()
        assert Boxes(quiet_nan) == Boxes(other_nan) and hash(Boxes(quiet_nan)) == hash(Boxes(other_nan))
        track = InstanceTrack((0, 1), quiet_nan, (BlinkInterval(1, 1),))
        same = InstanceTrack([0, 1], [None, FrameBox(0.0, 0.1, 0.4, 0.5)], [BlinkInterval(1, 1)])
        assert track == same and hash(track) == hash(same)
        assert len({track, same, InstanceTrack((1, 1), [BOX, BOX], ())}) == 2

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="T, 4"):
            Boxes(np.zeros((2, 3)))

    def test_existing_array_is_reused(self, monkeypatch):
        boxes = Boxes(np.tile([0.1, 0.2, 0.3, 0.4], (5, 1)))

        def no_frame_boxes(*args):
            raise AssertionError("a FrameBox was built")

        monkeypatch.setattr(FrameBox, "__new__", no_frame_boxes)
        pred = InstancePrediction((0.5,) * 5, boxes, (0.0,) * 5, ())
        track = InstanceTrack((1,) * 5, pred.boxes, ())
        assert pred.boxes.array is boxes.array and track.boxes.array is boxes.array

    def test_prediction_rejects_missing_box(self):
        with pytest.raises(ValueError, match="NaN"):
            InstancePrediction((0.5, 0.5), [BOX, None], (0.0, 0.0), ())

    def test_frame_targets_zero_where_absent(self):
        track = InstanceTrack((1, 0, 1), [BOX, None, None], ())
        presence, corners = frame_targets([track])
        assert presence.tolist() == [[True], [False], [True]]
        assert corners.tolist() == [[list(BOX)], [[0.0] * 4], [[0.0] * 4]]
        assert track.num_visible == 2

    def test_flag_two_counts_as_absent_everywhere(self):
        # validate_annotation rejects the flag, but a library caller can build it
        boxes = [BOX, FrameBox(0.5, 0.5, 0.9, 0.9), BOX]
        pred = InstancePrediction((0.9,) * 3, boxes, (0.0,) * 3, ())

        def outcomes(flag):
            tracks = [InstanceTrack((1, flag, 1), boxes, ()), InstanceTrack((flag,) * 3, boxes, ())]
            gts, preds = [VideoAnnotation("vid", 3, 24.0, 512, 256, tracks)], [VideoPrediction("vid", 3, (pred,))]
            return (matching_costs([pred], tracks).tolist(), [instance_losses(pred, t) for t in tracks],
                    evaluate(gts, preds).to_dict(), naive_evaluate(gts, preds))

        assert outcomes(2) == outcomes(0)
