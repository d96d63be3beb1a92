"""Property tests of the exit-code contract of `blinkdet eval` and `blinkdet forward` on mutated files.

For eval, each example applies a few mutations (replace a value, delete or
add an object field or array element, duplicate an element) at random nodes
of the seed-7 ground-truth and prediction documents, writes both, and runs
`main(["eval", ...])`. The run must return 0 or 2 without raising, and a
data error must name a JSON path that exists in the mutated document. For
forward, each example overwrites or truncates bytes of a feature or weights
container of a small detector; the run must return 0 or 2 without raising,
and a data error must name the mutated container.

Six properties need no files: `evaluate` agrees with the reference
evaluator on generated inputs, gives APs in [0, 1] and does not depend on
the order of the videos; `link_clips` on any clip schedule of
`blinkdet forward` covers every frame, keeps scores in [0, 1] and keeps
at least as many hypotheses as its fullest clip; the loss-only
`focal_terms` equals, bit for bit, the loss of `focal_loss` and the focal
loss with both label branches evaluated; `frame_sum` equals, bit for bit,
a scalar loop over the frames on any shape and memory layout;
`frame_targets` equals, bit for bit, a frame-by-frame reference on track
sets with any flag and any box row; and on generated training clips
`matching_costs`, `instance_losses` and `unmatched_loss` equal, bit for
bit, their formulas rebuilt from `focal_loss`, `box_overlap` and that
reference.

The examples are derived from the sources (`derandomize=True`), so a run is
deterministic, and no example database is written (`database=None`).
Hypothesis still caches the literals it reads from the sources under
`.hypothesis/`, which `.gitignore` lists.
"""

import contextlib
import functools
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from blinkdet.anno_model import (
    BlinkInterval,
    FrameBox,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    blink_frame_labels,
    frame_targets,
)
from blinkdet.assignment import matching_costs
from blinkdet.cli_io import Config, generate_scenario, naive_evaluate
from blinkdet.cli_io.cli import EXIT_DATA, EXIT_OK, _clip_starts, main
from blinkdet.cli_io.jsonio import annotations_to_dict, predictions_to_dict
from blinkdet.geometry import box_overlap, frame_sum
from blinkdet.losses import (
    DEFAULT_LAMBDA_BLINK,
    DEFAULT_W_CLS,
    DEFAULT_W_GIOU,
    DEFAULT_W_L1,
    EPS,
    focal_loss,
    focal_terms,
    instance_losses,
    unmatched_loss,
)
from blinkdet.metrics import evaluate
from blinkdet.netcore import SIZE_FIELDS, random_params, save_params, write_container
from blinkdet.postprocess import ClipPrediction, link_clips, merge_blinks

_SCENARIO = generate_scenario(Config(), 7)
_VIDEO = _SCENARIO.videos[0]
_TEXTS = {
    "gt": json.dumps(annotations_to_dict(list(_SCENARIO.videos))),
    "pred": json.dumps(predictions_to_dict(list(_SCENARIO.predictions["noisy"]), _VIDEO.width, _VIDEO.height)),
}

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats(0, 1),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 80), st.floats(-5, 300)), max_size=5),
    st.dictionaries(st.sampled_from(["start", "end", "confidence", "x"]), st.integers(-2, 80), max_size=3),
)
# field names of both schemas plus one unknown name
_KEYS = st.sampled_from(["videos", "video_id", "num_frames", "width", "instances", "presence",
                         "boxes", "blinks", "face_scores", "blink_intervals", "start", "extra"])


def _mutate(data, doc):
    """Apply one mutation at a node a random walk of random depth reaches from the root; returns the new root."""
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 7))):
        if not (isinstance(node, (dict, list)) and node):
            break
        parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add", "duplicate"]))
    if action == "add" and isinstance(node, dict):
        node[data.draw(_KEYS)] = data.draw(_JUNK)
    elif action == "add" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(_JUNK))
    elif action == "delete" and parent is not None:
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(node)))
    elif parent is None:
        return data.draw(_JUNK)
    else:
        parent[key] = data.draw(_JUNK)
    return doc


def _resolves(doc, json_path: str) -> bool:
    """True when `json_path` (`.key` and `[index]` steps after a file name) leads to a node of doc."""
    if not re.fullmatch(r"(?:\.\w+|\[\d+\])*", json_path):
        return False
    node = doc
    for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", json_path):
        if key and isinstance(node, dict) and key in node:
            node = node[key]
        elif index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return True


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_eval_on_mutated_files_exits_0_or_2_naming_a_present_path(data):
    docs = {name: json.loads(text) for name, text in _TEXTS.items()}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(docs)))
        docs[name] = _mutate(data, docs[name])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["eval", "--gt", str(paths["gt"]), "--pred", str(paths["pred"])])
    assert rc in (EXIT_OK, EXIT_DATA)
    if rc == EXIT_DATA:
        message = err.getvalue()
        assert message.startswith("data error: "), message
        located = message[len("data error: "):]
        name = next((n for n, p in paths.items() if located.startswith(str(p))), None)
        assert name is not None, message
        json_path = located[len(str(paths[name])):].partition(": ")[0]
        assert _resolves(docs[name], json_path), message


# A detector small enough that one `blinkdet forward` takes milliseconds.
_SMALL = {"num_queries": 3, "num_iterations": 1, "channels": 8, "num_heads": 2, "roi_grid": 2,
          "clip_length": 4, "clip_stride": 2, "keep_top": 2}


@functools.cache
def _container_bytes() -> dict[str, bytes]:
    """The feature and weights containers of the small detector, as bytes."""
    sizes = {name: _SMALL[name] for name in SIZE_FIELDS}
    feature = np.random.default_rng(3).uniform(-0.5, 0.5, (6, _SMALL["channels"], 3, 4))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"features": Path(tmp) / "f.bin", "weights": Path(tmp) / "w.bin"}
        write_container(paths["features"], {"feature": feature},
                        meta={"kind": "features", "video_id": "v", "width": 64, "height": 32})
        save_params(paths["weights"], random_params(**sizes, seed=5))
        return {name: path.read_bytes() for name, path in paths.items()}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_forward_on_byte_mutated_containers_exits_0_or_2_naming_the_container(data):
    name = data.draw(st.sampled_from(["features", "weights"]))
    blob = bytearray(_container_bytes()[name])
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    floats = (len(blob) - header_end) // 8
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.one_of(
            st.integers(0, header_end - 1),  # the header length and the JSON header
            st.integers(0, floats - 1).map(lambda k: header_end + 8 * k + 7),  # sign and exponent of a value
            st.integers(0, len(blob) - 1),
        ))
        if data.draw(st.integers(0, 9)) == 0:
            del blob[at:]
            break
        # JSON number and list syntax, a quiet NaN's or a huge value's top byte, or any byte
        blob[at] = data.draw(st.one_of(st.sampled_from(b'0123456789-.e[],"\x7f\xff'), st.integers(0, 255)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / f"{n}.bin" for n in ("features", "weights")}
        for n, path in paths.items():
            path.write_bytes(blob if n == name else _container_bytes()[n])
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(_SMALL))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["forward", "--features", str(paths["features"]), "--weights", str(paths["weights"]),
                       "--config", str(config), "--out", str(Path(tmp) / "pred.json")])
    assert rc in (EXIT_OK, EXIT_DATA), err.getvalue()
    if rc == EXIT_DATA:
        assert str(paths[name]) in err.getvalue(), err.getvalue()


# Few distinct score values, so instance and interval confidences tie often, across videos too.
_SCORES = st.sampled_from([0.5, 1.0, 0.25])


@st.composite
def _intervals(draw, num_frames: int, confidence: bool) -> list[BlinkInterval]:
    """Sorted, non-overlapping intervals: single frames, and runs that touch or are one frame apart."""
    intervals, t = [], 0
    while True:
        start = t + draw(st.integers(0, 3))
        end = start + draw(st.integers(0, 2))
        if end > num_frames - 1 or draw(st.integers(0, 4)) == 0:
            return intervals
        intervals.append(BlinkInterval(start, end, draw(_SCORES) if confidence else 1.0))
        t = end + 1


@st.composite
def _boxes(draw, num_frames: int) -> list[FrameBox]:
    """Boxes on a 1/8 grid; a few repeat one box, as a static face or detector would."""
    cell = st.integers(0, 6)

    def box():
        x, y = draw(cell), draw(cell)
        return FrameBox(x / 8, y / 8, (x + draw(st.integers(1, 2))) / 8, (y + draw(st.integers(1, 2))) / 8)

    return [box()] * num_frames if draw(st.booleans()) else [box() for _ in range(num_frames)]


@st.composite
def _evaluation_inputs(draw):
    gts, preds = [], []
    for v in range(draw(st.integers(1, 3))):
        num_frames = draw(st.integers(1, 8))
        tracks = []
        for _ in range(draw(st.integers(0, 3))):  # no instance at all, or tracks never visible
            presence = draw(st.lists(st.sampled_from([1, 0]), min_size=num_frames, max_size=num_frames))
            boxes = [box if flag else None for flag, box in zip(presence, draw(_boxes(num_frames)))]
            tracks.append(InstanceTrack(presence, boxes, draw(_intervals(num_frames, confidence=False))))
        gts.append(VideoAnnotation(f"v{v}", num_frames, 24.0, 64, 64, tracks))
        if draw(st.integers(0, 3)):  # a video may have no prediction entry
            hyps = []
            for _ in range(draw(st.integers(0, 4))):
                face = draw(st.one_of(_SCORES.map(lambda s: [s] * num_frames),
                                      st.lists(_SCORES, min_size=num_frames, max_size=num_frames)))
                blinks = draw(_intervals(num_frames, confidence=True))
                boxes = draw(_boxes(num_frames))
                if tracks and draw(st.integers(0, 2)):  # a copy of a ground-truth track, a true positive if visible
                    track = draw(st.sampled_from(tracks))
                    boxes = [box or FrameBox(0.0, 0.0, 0.0, 0.0) for box in track.boxes]
                    blinks = [BlinkInterval(b.start, b.end, draw(_SCORES)) for b in track.blinks] + blinks[:1]
                hyps.append(InstancePrediction(face, boxes, [0.0] * num_frames, blinks))
            preds.append(VideoPrediction(f"v{v}", num_frames, hyps))
    return gts, draw(st.permutations(preds))  # tie order must not follow the file order


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_evaluation_inputs(), st.data())
def test_evaluate_matches_naive_evaluate(inputs, data):
    gts, preds = inputs
    report, expected = evaluate(gts, preds), naive_evaluate(gts, preds)
    assert abs(report.inst_ap - expected["inst_ap"]) <= 1e-9
    for tau, ap in report.inst_ap_at.items():
        assert abs(ap - expected["inst_ap_at"][f"{tau:.2f}"]) <= 1e-9, tau
    assert abs(report.blink_ap_50 - expected["blink_ap_50"]) <= 1e-9
    assert abs(report.blink_ap_75 - expected["blink_ap_75"]) <= 1e-9
    for ap in (report.inst_ap, *report.inst_ap_at.values(), report.blink_ap_50, report.blink_ap_75):
        assert 0.0 <= ap <= 1.0
    # neither the order of the ground-truth videos nor that of the prediction videos moves the report
    shuffled = evaluate(data.draw(st.permutations(gts)), data.draw(st.permutations(preds)))
    assert shuffled.to_dict() == report.to_dict()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_link_clips_on_any_clip_schedule(data):
    clip_length = data.draw(st.integers(2, 10))
    stride = data.draw(st.integers(1, clip_length - 1))
    num_frames = data.draw(st.integers(1, 40))
    pool = data.draw(st.lists(_boxes(1), min_size=1, max_size=3))  # static faces, so seams can link
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    clips = []
    for start in _clip_starts(num_frames, clip_length, stride):
        length = min(clip_length, num_frames - start)
        hyps = []
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                boxes = np.array(data.draw(st.sampled_from(pool)) * length)
            else:
                corner = rng.uniform(0.0, 0.8, (length, 2))
                boxes = np.hstack([corner, corner + rng.uniform(0.01, 0.2, (length, 2))])
            # about one score in six is exactly 1.0, the top of the range
            face, blink = np.minimum(rng.uniform(0.0, 1.2, (2, length)), 1.0)
            hyps.append(InstancePrediction(face, boxes, blink, merge_blinks(blink)))
        clips.append(ClipPrediction("v", start, length, hyps))
    video = link_clips(clips)
    assert video.num_frames == num_frames
    assert len(video.hypotheses) >= max(len(clip.hypotheses) for clip in clips)
    for hyp in video.hypotheses:
        assert len(hyp.face_scores) == len(hyp.blink_scores) == len(hyp.boxes) == num_frames
        scores = np.array([*hyp.face_scores, *hyp.blink_scores, *(b.confidence for b in hyp.blink_intervals)])
        assert np.all(np.isfinite(scores) & (scores >= 0.0) & (scores <= 1.0))


# Scores at the clamp edges and beyond them, plus any score in [0, 1].
_FOCAL_SCORES = st.one_of(st.sampled_from([0.0, 1.0, EPS, 1.0 - EPS, 0.5]), st.floats(0.0, 1.0))


def _both_branch_focal(p, y):
    """Focal loss with both label branches evaluated everywhere, then selected per label."""
    q = np.clip(np.asarray(p, dtype=float), EPS, 1.0 - EPS)
    pos_loss = -0.25 * (1.0 - q) ** 2.0 * np.log(q)
    neg_loss = -(1.0 - 0.25) * q**2.0 * np.log(1.0 - q)
    return np.where(np.asarray(y, dtype=bool), pos_loss, neg_loss)[()]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_focal_terms_equal_the_loss_of_focal_loss(data):
    size = data.draw(st.integers(1, 6))
    p = data.draw(st.one_of(_FOCAL_SCORES, st.lists(_FOCAL_SCORES, min_size=size, max_size=size).map(np.array)))
    labels = data.draw(st.sampled_from(["zeros", "ones", "mixed"]))
    if labels == "mixed":
        y = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    else:
        y = np.full(size, labels == "ones")
    y = data.draw(st.sampled_from([y, y[:1].reshape(()), y[:, None]]))  # an array, one scalar label, or a column
    loss = focal_terms(p, y)
    for expected in (focal_loss(p, y)[0], _both_branch_focal(p, y)):
        assert type(loss) is type(expected)
        assert np.shape(loss) == np.shape(expected)
        assert np.asarray(loss).tobytes() == np.asarray(expected).tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_frame_sum_equals_a_scalar_loop(data):
    # trailing sizes of 1 and strided views are the layouts where np.add.reduce pairs terms
    frames = data.draw(st.integers(0, 40))
    trailing = data.draw(st.lists(st.sampled_from([1, 1, 2, 3, 8, 50]), max_size=2))
    layout = data.draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (frames, *trailing)
    draw = lambda size: rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)  # wide magnitudes
    if layout == "transposed":
        values = draw(shape[::-1]).T
    elif layout == "strided":
        values = draw((*shape[:-1], 2 * shape[-1]))[..., ::2]
    else:
        values = draw(shape)
    expected = np.zeros(shape[1:])
    for index in np.ndindex(*shape[1:]):
        column = [float(row[index]) for row in values]
        total = column[0] if column else 0.0
        for value in column[1:]:
            total += value
        expected[index] = total
    got = frame_sum(values)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _reference_face_terms(face, boxes, presence, gt_boxes):
    """The face focal term and box term of the matching cost, from the full focal_loss."""
    d = np.abs(boxes - gt_boxes)
    l1 = (d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]) / 4.0
    giou = box_overlap(boxes, gt_boxes)[2]
    box = np.where(presence, DEFAULT_W_L1 * l1 + DEFAULT_W_GIOU * (1.0 - giou), 0.0)
    return focal_loss(face, presence)[0], box


def _reference_frame_targets(tracks):
    """(T, G) presence and (T, G, 4) corners, built frame by frame.

    A nonzero flag is present, and a present row is kept unless all four of
    its coordinates are NaN; every other row is zeros.
    """
    num_frames = len(tracks[0].face_presence)
    presence = np.zeros((num_frames, len(tracks)), dtype=bool)
    corners = np.zeros((num_frames, len(tracks), 4))
    for g, track in enumerate(tracks):
        for t in range(num_frames):
            row = [float(v) for v in track.boxes.array[t]]
            presence[t, g] = track.face_presence[t] != 0
            if presence[t, g] and not all(math.isnan(v) for v in row):
                corners[t, g] = row
    return presence, corners


_NAN_ROW = [math.nan] * 4


@st.composite
def _track_set(draw):
    """1-4 tracks of 0-8 frames: flags 0, 1 and 2, and rows that are boxes, NaN, or partly NaN."""
    num_frames = draw(st.integers(0, 8))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.5, math.nan]), st.floats(-1.0, 2.0))
    row = st.one_of(st.just(_NAN_ROW), st.lists(coordinate, min_size=4, max_size=4))
    frames = {"min_size": num_frames, "max_size": num_frames}
    return [
        InstanceTrack(draw(st.lists(st.sampled_from([0, 1, 2]), **frames)),
                      np.array(draw(st.lists(row, **frames)), dtype=float).reshape(-1, 4), ())
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_track_set())
@example([  # presence 1 on a NaN row, presence 0 on a box, and the flag 2 on a box and on a NaN row
    InstanceTrack((1, 0, 2, 2), np.array([_NAN_ROW, [0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.75, 1.0], _NAN_ROW]), ()),
    InstanceTrack((0, 1, 1, 0), np.array([[0.0, 0.0, 0.5, 0.5], [0.1, 0.1, 0.2, 0.2], _NAN_ROW, _NAN_ROW]), ()),
])
def test_frame_targets_equal_a_frame_by_frame_reference(tracks):
    presence, corners = frame_targets(tracks)
    expected_presence, expected_corners = _reference_frame_targets(tracks)
    assert presence.dtype == bool and presence.tolist() == expected_presence.tolist()
    assert corners.shape == expected_corners.shape
    assert corners.tobytes() == expected_corners.tobytes()


def _reference_matching_costs(preds, gts):
    face = np.array([p.face_scores for p in preds], dtype=float).T[:, :, None]
    boxes = np.stack([p.boxes.array for p in preds], axis=1)[:, :, None]
    presence, gt_boxes = _reference_frame_targets(gts)
    cls, box = _reference_face_terms(face, boxes, presence[:, None, :], gt_boxes[:, None])
    return frame_sum(DEFAULT_W_CLS * cls + box)


def _reference_instance_losses(pred, gt):
    presence, gt_boxes = (x[:, 0] for x in _reference_frame_targets([gt]))
    cls, box = _reference_face_terms(np.array(pred.face_scores), pred.boxes.array, presence, gt_boxes)
    labels = np.array(blink_frame_labels(gt, len(presence)), dtype=bool)
    blink = focal_loss(np.array(pred.blink_scores), labels)[0]
    face_cls, face_box, blink = (float(frame_sum(x)) for x in (cls, box, blink))
    return face_cls, face_box, blink, face_cls + face_box + DEFAULT_LAMBDA_BLINK * blink


@st.composite
def _training_clip(draw):
    """Ground-truth tracks (possibly none, possibly never visible) and scored hypotheses of one clip."""
    num_frames = draw(st.integers(1, 10))
    frames = {"min_size": num_frames, "max_size": num_frames}
    tracks = []
    for _ in range(draw(st.integers(0, 3))):
        presence = draw(st.lists(st.sampled_from([1, 0]), **frames))
        boxes = [box if flag else None for flag, box in zip(presence, draw(_boxes(num_frames)))]
        tracks.append(InstanceTrack(presence, boxes, draw(_intervals(num_frames, confidence=False))))
    hyps = []
    for _ in range(draw(st.integers(1, 4))):
        boxes = draw(_boxes(num_frames))
        if tracks and draw(st.booleans()):  # on a ground-truth track, as a trained query would be
            boxes = [box or FrameBox(0.0, 0.0, 0.0, 0.0) for box in draw(st.sampled_from(tracks)).boxes]
        face, blink = draw(st.lists(_FOCAL_SCORES, **frames)), draw(st.lists(_FOCAL_SCORES, **frames))
        hyps.append(InstancePrediction(face, boxes, blink, ()))
    return hyps, tracks


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_training_clip())
def test_matching_costs_and_losses_equal_the_focal_loss_formulas(clip):
    hyps, tracks = clip
    if tracks:
        assert matching_costs(hyps, tracks).tobytes() == _reference_matching_costs(hyps, tracks).tobytes()
    for hyp in hyps:
        for track in tracks:
            b = instance_losses(hyp, track)
            expected = _reference_instance_losses(hyp, track)
            assert [x.hex() for x in (b.face_cls, b.face_box, b.blink, b.total)] == [x.hex() for x in expected]
        expected = float(frame_sum(focal_loss(np.array(hyp.face_scores), False)[0]))
        assert unmatched_loss(hyp).hex() == expected.hex()
