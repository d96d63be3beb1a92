"""Property tests of the exit-code contract of `blinkdet eval`, `forward`, `merge`, `validate` and `synth` on mutated inputs.

For eval, each example applies a few mutations (replace a value, delete or
add an object field or array element, duplicate an element) at random nodes
of the seed-7 ground-truth and prediction documents, writes both, and runs
`main(["eval", ...])`. The run must return 0 or 2 without raising, and a
data error must name a JSON path that exists in the mutated document. For
forward, each example overwrites or truncates bytes of a feature or weights
container of a small detector; the run must return 0 or 2 without raising,
and a data error must name the mutated container. Two more properties
change one value of a small valid input to `blinkdet forward` (a `--config`
field, a field of the feature container's meta, or one axis of its array)
or to `blinkdet merge` (its scores file, or `--threshold`): the new value
is another JSON type, a number out of range or past the float range, a
missing or unknown key, or a value nested deeper than the JSON readers
recurse. The run must return 0, 1 or 2 without raising, and a data error
must start with the file it names: the mutated file, or the weights file
when a config size no longer matches the weights. `blinkdet validate` runs
on the ground truth mutated as for eval, or with one to three leaves the
invariants read set to values that may break one, and `blinkdet synth
--config` on a config with one value set, replaced, deleted or added (no
detector size above 64, never `--assets`); each run must return 0, 1 or 2
without raising, a data error must name the file and a JSON path in it,
and each violation `validate` prints must name a video of the file.
Another property replaces one leaf that the JSON readers test inline (a
box coordinate, a presence flag or score, an interval's start, end or
confidence, or an interval key) with another JSON literal, and holds the
readers to the reference readers of `tests/oracles.py`: both give the same
values bit for bit, or both raise SchemaError with the same path and
message.

Thirteen properties need no files: `evaluate` agrees with the reference
evaluator on generated inputs, gives APs in [0, 1] and does not depend on
the order of the videos; `link_clips` on any clip schedule of
`blinkdet forward` covers every frame, keeps scores in [0, 1] and keeps
at least as many hypotheses as its fullest clip; the loss-only
`focal_terms` equals, bit for bit, the loss of `focal_loss` and the focal
loss with both label branches evaluated; `frame_sum` equals, bit for bit,
a scalar loop over the frames on any shape and memory layout;
`average_precision` equals, bit for bit, the reference evaluator's AP,
and `merge_blinks` and `interval_frame_labels` equal the frame-by-frame
loops of `tests/oracles.py`, on tied confidences, all-FP records, runs
longer than 8 frames (where a pairwise sum would change the bits), runs
and intervals at or past either end, and scores exactly at the threshold;
`frame_targets` equals, bit for bit, a frame-by-frame reference on track
sets with any flag and any box row; on those tracks the cached
`InstanceTrack.targets` equal, byte for byte, their `frame_targets` column
and blink labels, are read-only, and leave equality, hash, repr and a
pickle round trip as they were; on generated training clips
`matching_costs`, `instance_losses` and `unmatched_loss` equal, bit for
bit, their formulas rebuilt from `focal_loss`, `box_overlap` and that
reference, on fresh tracks and on tracks whose targets are cached, and
`matching_costs` of a video's stacked `Hypotheses` equals, bit for bit,
`matching_costs` of the list of its rows; `finalize` equals, bit for
bit, the per-object `finalize` of `tests/oracles.py` on tied and untied
face scores; and `unmatched_loss` of each row of a set of hypotheses, built
by `Hypotheses.from_arrays`, `VideoPrediction.from_arrays`, `finalize`,
`link_clips` or the stacking constructor, equals, bit for bit, the per-row
loss of `tests/oracles.py`, whatever the order its rows are asked in.

The examples are derived from the sources (`derandomize=True`), so a run is
deterministic, and no example database is written (`database=None`): the
profile that conftest.py loads sets both for every property test.
Hypothesis still caches the literals it reads from the sources under
`.hypothesis/`, which `.gitignore` lists.
"""

import contextlib
import functools
import io
import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from blinkdet.anno_model import (
    BlinkInterval,
    FrameBox,
    Hypotheses,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    blink_frame_labels,
    frame_mean,
    frame_targets,
    interval_frame_labels,
)
from blinkdet.assignment import matching_costs
from blinkdet.cli_io import Config, generate_scenario, naive_evaluate
from blinkdet.cli_io.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _clip_starts, main
from blinkdet.cli_io.jsonio import (
    SchemaError,
    annotations_to_dict,
    parse_annotations,
    parse_predictions,
    predictions_to_dict,
)
from blinkdet.cli_io.oracle import _ap
from blinkdet.geometry import box_overlap, frame_sum
from blinkdet.losses import (
    DEFAULT_LAMBDA_BLINK,
    DEFAULT_W_CLS,
    DEFAULT_W_GIOU,
    DEFAULT_W_L1,
    EPS,
    focal_loss,
    focal_terms,
    giou_loss,
    instance_losses,
    unmatched_loss,
)
from blinkdet.metrics import average_precision, evaluate
from blinkdet.netcore import SIZE_FIELDS, ModelOutput, StageOutput, random_params, save_params, write_container
from blinkdet.postprocess import ClipPrediction, finalize, link_clips, merge_blinks
from oracles import (
    loop_interval_frame_labels,
    loop_merge_blinks,
    per_object_finalize,
    per_row_unmatched_loss,
    reference_parse_annotations,
    reference_parse_predictions,
    scalar_giou_with_grad,
)

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


@settings(max_examples=120)
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


# One value in place of a leaf the readers test inline: JSON literals of another type, numbers at and
# past the bounds of a score, an integer past the float range, and literals json.loads reads as
# non-finite floats.
_LEAF_LITERALS = ["true", "0", "1", "1.0", "-0.0", '"1"', "null", "NaN", "Infinity", "1e400", "1" + "0" * 400,
                  "1.5", "[]", "{}"]
_SENTINEL = "@@leaf@@"


def _leaves(doc: dict, name: str) -> dict[str, list[tuple]]:
    """Paths (key and index steps) of the leaves the readers test inline, by kind: box coordinates,
    presence flags or scores, and the values of intervals."""
    kinds: dict[str, list[tuple]] = {"box": [], "flag or score": [], "interval": []}
    items = "instances" if name == "gt" else "hypotheses"
    for vi, video in enumerate(doc["videos"]):
        for ii, item in enumerate(video[items]):
            base = ("videos", vi, items, ii)
            for t, box in enumerate(item["boxes"]):
                kinds["box"] += [(*base, "boxes", t, c) for c in range(4)] if box is not None else []
            for key in ("presence",) if name == "gt" else ("face_scores", "blink_scores"):
                kinds["flag or score"] += [(*base, key, t) for t in range(len(item[key]))]
            intervals = "blinks" if name == "gt" else "blink_intervals"
            for k, interval in enumerate(item[intervals]):
                kinds["interval"] += [(*base, intervals, k, key) for key in interval]
    return kinds


def _arrays_hex(videos) -> list:
    """Every value the readers give, floats as float.hex: headers, per-item arrays and intervals."""
    out = []
    for video in videos:
        out.append((video.video_id, video.num_frames, getattr(video, "fps", None)))
        for item in getattr(video, "instances", ()):
            out.append((item.face_presence, _hex(item.boxes.array),
                        [(b.start, b.end, b.confidence.hex()) for b in item.blinks]))
        if isinstance(video, VideoPrediction):
            out.append([_hex(array) for array in (video.face_array, video.box_array, video.blink_array)])
        for hyp in getattr(video, "hypotheses", ()):
            out.append((_hex(hyp.face_scores), _hex(hyp.boxes.array), _hex(hyp.blink_scores),
                        [(b.start, b.end, b.confidence.hex()) for b in hyp.blink_intervals]))
    return out


def _outcome(parse, text: str):
    """What one reader makes of a JSON text: its values, or the path and message of its SchemaError."""
    try:
        return "read", _arrays_hex(parse(json.loads(text)))
    except SchemaError as exc:
        return "error", exc.json_path, str(exc)


@settings(max_examples=250)
@given(st.data())
def test_readers_equal_the_reference_readers_on_one_mutated_leaf(data):
    name = data.draw(st.sampled_from(["gt", "pred"]))
    doc = json.loads(_TEXTS[name])
    *where, last = data.draw(st.sampled_from(_leaves(doc, name)[data.draw(st.sampled_from(
        ["box", "flag or score", "interval"]))]))
    node = functools.reduce(lambda n, key: n[key], where, doc)
    if isinstance(last, str) and data.draw(st.booleans()):  # an interval key: dropped, renamed, or one added
        action = data.draw(st.sampled_from(["drop", "rename", "add"]))
        value = node[last] if action == "add" else node.pop(last)
        if action != "drop":
            node[data.draw(st.sampled_from(["start", "end", "confidence", "extra"]))] = value
        text = json.dumps(doc)
    else:
        node[last] = _SENTINEL
        text = json.dumps(doc).replace(json.dumps(_SENTINEL), data.draw(st.sampled_from(_LEAF_LITERALS)))
    parse, reference = ((parse_annotations, reference_parse_annotations) if name == "gt"
                        else (parse_predictions, reference_parse_predictions))
    got, want = _outcome(parse, text), _outcome(reference, text)
    assert got == want


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


@settings(max_examples=150)
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


# One value of a valid input in place of another: another JSON type, a number out of range or past
# the float range (NaN and Infinity are literals json.loads accepts), or a value nested deeper than
# the JSON readers recurse, spliced into the text where the _NESTED string stands.
_NESTED = "nested"
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.sampled_from([10**400, -(10**400), 1e308, -0.0]),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    st.just(_NESTED),
)


def _mutate_value(data, doc: dict) -> dict:
    """doc with one key's value replaced, one key deleted or one unknown key added; or a value in doc's place."""
    action = data.draw(st.sampled_from(["replace", "replace", "delete", "add", "root"]))
    if action == "root":
        return data.draw(_VALUES)
    key = data.draw(st.sampled_from(sorted(doc))) if action != "add" else "extra"
    if action == "delete":
        del doc[key]
    else:
        doc[key] = data.draw(_VALUES)
    return doc


def _json_bytes(doc) -> bytes:
    depth = 5000
    return json.dumps(doc).replace(json.dumps(_NESTED), "[" * depth + "]" * depth).encode("utf-8")


def _run_main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_contract(rc: int, message: str, named: list[Path]) -> None:
    """Exit 0, 1 or 2, never 3; a data error starts with one of the named files, or a JSON path in it."""
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA), message
    if rc == EXIT_DATA:
        assert any(re.match(rf"data error: {re.escape(str(path))}[.\[:]", message) for path in named), message


@settings(max_examples=120)
@given(st.data())
def test_forward_on_mutated_config_or_features_exits_0_1_or_2(data):
    target = data.draw(st.sampled_from(["config", "meta", "shape"]))
    config = dict(_SMALL, blink_threshold=0.3, link_iou_threshold=0.5)
    meta = {"kind": "features", "video_id": "v", "width": 64, "height": 32}
    shape = (6, _SMALL["channels"], 3, 4)
    if target == "config":
        config = _mutate_value(data, config)
    elif target == "meta":
        meta = _mutate_value(data, meta)
    else:  # one axis of the feature array: empty, shorter or longer than a clip, another channel count
        shape = list(shape)
        axis = data.draw(st.integers(0, 4))
        if axis == 4:  # one axis too many or too few
            shape = shape[:3] if data.draw(st.booleans()) else shape + [2]
        else:
            shape[axis] = data.draw(st.sampled_from([0, 1, 2, 5, 9, 16]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("features.bin", "weights.bin", "config.json")}
        paths["weights.bin"].write_bytes(_container_bytes()["weights"])
        paths["config.json"].write_bytes(_json_bytes(config))
        feature = np.random.default_rng(3).uniform(-0.5, 0.5, shape)
        # the meta is spliced into the header by hand, so it may be any JSON text, deep nesting included
        slot = {"slot": _NESTED}
        write_container(paths["features.bin"], {"feature": feature}, slot)
        blob = paths["features.bin"].read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = blob[12:end].replace(json.dumps(slot).encode("utf-8"), _json_bytes(meta))
        paths["features.bin"].write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header + blob[end:])
        rc, message = _run_main(["forward", "--features", str(paths["features.bin"]),
                                 "--weights", str(paths["weights.bin"]), "--config", str(paths["config.json"]),
                                 "--out", str(Path(tmp) / "pred.json")])
    # a config that drops or changes a detector size disagrees with the weights, whose file is named
    named = [paths["config.json"], paths["weights.bin"]] if target == "config" else [paths["features.bin"]]
    _assert_contract(rc, message, named)


@settings(max_examples=80)
@given(st.data())
def test_merge_on_mutated_scores_or_threshold_exits_0_1_or_2(data):
    scores = [0.1, 0.9, 0.8, 0.2, 1.0]
    doc, threshold = {"scores": scores}, "0.5"
    if data.draw(st.booleans()):
        doc = _mutate_value(data, doc)
        if isinstance(doc, dict) and doc.get("scores") is scores and data.draw(st.booleans()):
            scores[data.draw(st.integers(0, len(scores) - 1))] = data.draw(_VALUES)  # one score, not the list
    else:
        threshold = data.draw(st.sampled_from(["0", "1", "-0.5", "1.5", "nan", "inf", "1e400", "0.3", "x", ""]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.json"
        path.write_bytes(_json_bytes(doc))
        rc, message = _run_main(["merge", "--scores", str(path), "--threshold", threshold])
    _assert_contract(rc, message, [path])


# Per kind of ground-truth leaf, values of its own type that may break an invariant: a corner out of
# order or off the frame, a flag other than 0 or 1, an interval out of order, overlapping or off the video.
_BREAKING = {"box": st.floats(-5, 600), "flag or score": st.integers(-1, 2), "interval": st.integers(-2, 80)}
# The detector sizes of a config; a mutated config never sets one above 64, so a run stays small.
_CONFIG_SIZES = (*SIZE_FIELDS, "clip_length", "clip_stride", "keep_top")


@settings(max_examples=120)
@given(st.data())
def test_validate_and_synth_on_mutated_files_exit_0_1_or_2(data):
    command = data.draw(st.sampled_from(["validate", "synth"]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if command == "validate":
            doc = json.loads(_TEXTS["gt"])
            if data.draw(st.booleans()):  # the structural mutations of the eval property
                for _ in range(data.draw(st.integers(1, 3))):
                    doc = _mutate(data, doc)
            else:  # leaves the invariants read (flags, corners, interval end points), set to values that may break one
                for _ in range(data.draw(st.integers(1, 3))):
                    kind = data.draw(st.sampled_from(sorted(_BREAKING)))
                    *where, last = data.draw(st.sampled_from(_leaves(doc, "gt")[kind]))
                    # mostly a value of the leaf's own type (one_of would pick among _VALUES's nine branches)
                    value = data.draw(_BREAKING[kind] if data.draw(st.integers(0, 3)) else _VALUES)
                    functools.reduce(lambda n, key: n[key], where, doc)[last] = value
            path = Path(tmp) / "gt.json"
            argv = ["validate", "--gt", str(path)]
        else:  # one config value set in range, replaced, deleted or added, or a value in the config's place
            doc = Config().to_dict()
            if data.draw(st.booleans()):
                key = data.draw(st.sampled_from(sorted(doc)))
                doc[key] = data.draw(st.integers(1, 64) if key in _CONFIG_SIZES else st.floats(0, 1))
            else:
                doc = _mutate_value(data, doc)
            for key in _CONFIG_SIZES:
                if isinstance(doc, dict) and type(doc.get(key)) is int and doc[key] > 64:
                    doc[key] = data.draw(st.integers(1, 64))
            path = Path(tmp) / "config.json"
            argv = ["synth", "--seed", str(data.draw(st.integers(0, 50))), "--videos", "1", "--config", str(path),
                    "--out", str(Path(tmp) / "out")]
        path.write_bytes(_json_bytes(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    message = err.getvalue()
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA) and "Traceback" not in message, message
    if rc == EXIT_DATA and message.startswith("data error: "):  # the file, then a JSON path that resolves in it
        assert message.startswith(f"data error: {path}"), message
        json_path = message[len(f"data error: {path}"):].partition(": ")[0]
        assert _resolves(doc, json_path), message
    elif rc == EXIT_DATA:  # validate found violations: each line names a video that resolves in the file
        assert command == "validate" and re.fullmatch(r"\d+ violation\(s\) found\n", message), message
        lines = out.getvalue().splitlines()
        assert lines and all(_resolves(doc, ".videos" + line.partition(" ")[0][len("videos"):]) for line in lines)


# Numeric arguments at and past their bounds: zero, negatives, NaN, infinities, a number past the
# float range, a fraction or exponent where an integer is due, and strings that are no number.
_PAST_BOUNDS = st.sampled_from(["0", "-0", "-1", "-2", "1", "nan", "-nan", "inf", "-inf", "1e400", "0.5", "1e3",
                                "", "x", "--"])
# Each command's numeric arguments and their valid values, small sizes only.
_NUMERIC_ARGUMENTS = {
    "synth": {"--seed": st.integers(0, 2**70), "--videos": st.integers(1, 2)},
    "gradcheck": {"--samples": st.integers(1, 20), "--seed": st.integers(0, 2**70)},
    "merge": {"--threshold": st.floats(0.0, 1.0)},
}


@settings(max_examples=60)
@given(st.data())
def test_numeric_arguments_past_their_bounds_exit_0_1_or_2(data):
    command = data.draw(st.sampled_from(sorted(_NUMERIC_ARGUMENTS)))
    flags = _NUMERIC_ARGUMENTS[command]
    argv = [command]
    for flag, valid in flags.items():
        argv += [flag, data.draw(st.one_of(valid.map(str), _PAST_BOUNDS))]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "synth":
            argv += ["--out", tmp]
        elif command == "merge":
            path = Path(tmp) / "scores.json"
            path.write_bytes(_json_bytes([0.1, 0.9, 0.8, 0.2, 1.0]))
            argv += ["--scores", str(path)]
        rc, message = _run_main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE), message
    assert "Traceback" not in message
    if rc == EXIT_USAGE:  # the message names the argument
        assert re.match(rf"usage error: (argument )?({'|'.join(flags)})\b", message), message


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


@settings(max_examples=300)
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


@settings(max_examples=100)
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


@settings(max_examples=200)
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


_UNIT, _SIDE = st.floats(0.0, 1.0), st.floats(0.01, 1.0)


@st.composite
def _giou_pair(draw):
    """(predicted, ground truth) corners: independent, nested either way, touching, disjoint or identical."""
    x1, y1, w, h = draw(_UNIT), draw(_UNIT), draw(_SIDE), draw(_SIDE)
    pred = (x1, y1, x1 + w, y1 + h)
    kind = draw(st.sampled_from(["independent", "nested", "touching", "disjoint", "identical"]))
    if kind == "independent":
        gx, gy = draw(_UNIT), draw(_UNIT)
        gt = (gx, gy, gx + draw(_SIDE), gy + draw(_SIDE))
    elif kind == "nested":
        f = [draw(st.floats(0.0, 0.4)) for _ in range(4)]
        gt = (x1 + f[0] * w, y1 + f[1] * h, pred[2] - f[2] * w, pred[3] - f[3] * h)
    elif kind == "identical":
        gt = pred
    else:  # on one axis the ground truth starts where the prediction ends, or a gap after it
        axis = draw(st.integers(0, 1))
        lo = [draw(_UNIT), draw(_UNIT)]
        lo[axis] = pred[2 + axis] + (0.0 if kind == "touching" else draw(st.floats(0.001, 2.0)))
        gt = (*lo, lo[0] + draw(_SIDE), lo[1] + draw(_SIDE))
    return (gt, pred) if draw(st.booleans()) else (pred, gt)


@settings(max_examples=300)
@given(st.lists(_giou_pair(), min_size=1, max_size=4))
def test_giou_loss_equals_the_scalar_reference(pairs):
    """Values bit for bit, gradients within 1e-12, one pair at a time and stacked."""
    single = [giou_loss(FrameBox(*pred), FrameBox(*gt)) for pred, gt in pairs]
    stacked = giou_loss(np.array([pred for pred, _ in pairs]), np.array([gt for _, gt in pairs]))
    for i, (pred, gt) in enumerate(pairs):
        giou, d_giou = scalar_giou_with_grad(pred, gt)
        for loss, grad in (single[i], (stacked[0][i], stacked[1][i])):
            assert float(loss).hex() == (1.0 - giou).hex()
            assert np.abs(grad + d_giou).max() <= 1e-12


@settings(max_examples=200)
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
    assert frame_mean(values).tobytes() == (expected / max(frames, 1)).tobytes()


@settings(max_examples=300)
@given(st.data())
def test_average_precision_equals_the_reference_ap(data):
    # a few confidences, so that ties are common; up to 40 records, so often more than 8 true positives
    confidence = st.one_of(st.sampled_from([0.1, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))
    kind = data.draw(st.sampled_from(["mixed", "all false positives", "all true positives"]))
    flag = st.booleans() if kind == "mixed" else st.just(kind == "all true positives")
    records = data.draw(st.lists(st.tuples(confidence, flag), max_size=40))
    num_gt = sum(is_tp for _, is_tp in records) + data.draw(st.integers(0, 5))  # misses make num_gt larger
    got = average_precision(records, num_gt)
    assert type(got) is float
    assert got.hex() == _ap(records, num_gt).hex()


@settings(max_examples=300)
@given(st.data())
def test_merge_blinks_equals_the_frame_loop(data):
    threshold = data.draw(st.one_of(st.sampled_from([0.3, 0.75]), st.floats(0.01, 0.99)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scores = []
    for _ in range(data.draw(st.integers(0, 6))):  # adjacent segments above the threshold form one longer run
        length = data.draw(st.integers(1, 20))
        kind = data.draw(st.sampled_from(["above", "below", "at"]))
        if kind == "above":
            scores += rng.uniform(np.nextafter(threshold, 1.0), 1.0, length).tolist()
        elif kind == "below":
            scores += rng.uniform(0.0, threshold, length).tolist()
        else:
            scores += [threshold] * length
    # a list (the CLI), a row of a clip's array (finalize), or a strided column (link_clips)
    form = data.draw(st.sampled_from(["list", "row", "column"]))
    stacked = np.array([scores, scores]).reshape(2, len(scores))
    values = {"list": scores, "row": stacked[1], "column": stacked.T.copy()[:, 1]}[form]
    got = [(b.start, b.end, b.confidence.hex()) for b in merge_blinks(values, threshold)]
    assert got == [(s, e, c.hex()) for s, e, c in loop_merge_blinks(scores, threshold)]
    assert all(type(s) is int and type(e) is int for s, e, _ in got)


@settings(max_examples=300)
@given(st.integers(0, 30), st.data())
def test_interval_frame_labels_equal_the_frame_loop(num_frames, data):
    bound = st.integers(-6, num_frames + 6)  # before frame 0 and past the end, with end < start allowed
    pairs = data.draw(st.lists(st.tuples(bound, bound), max_size=5))
    labels = interval_frame_labels([BlinkInterval(s, e) for s, e in pairs], num_frames)
    assert labels == loop_interval_frame_labels(pairs, num_frames)
    assert all(type(v) is int for v in labels)


def _reference_face_terms(face, boxes, presence, gt_boxes):
    """The face focal term and box term of the matching cost, from the full focal_loss."""
    d = np.abs(boxes - gt_boxes)
    l1 = (d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]) / 4.0
    giou = box_overlap(boxes, gt_boxes)[2]
    box = np.where(presence, DEFAULT_W_L1 * l1 + DEFAULT_W_GIOU * (1.0 - giou), 0.0)
    return focal_loss(face, presence)[0], box


def _reference_frame_targets(tracks):
    """(T, G) presence and (T, G, 4) corners, built frame by frame.

    A flag equal to 1 is present, and a present row is kept unless all four
    of its coordinates are NaN; every other row is zeros.
    """
    num_frames = len(tracks[0].face_presence)
    presence = np.zeros((num_frames, len(tracks)), dtype=bool)
    corners = np.zeros((num_frames, len(tracks), 4))
    for g, track in enumerate(tracks):
        for t in range(num_frames):
            row = [float(v) for v in track.boxes.array[t]]
            presence[t, g] = track.face_presence[t] == 1
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


@settings(max_examples=200)
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


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def _cold(track: InstanceTrack) -> InstanceTrack:
    """An equal track whose targets are not built yet."""
    return InstanceTrack(track.face_presence, track.boxes, track.blinks)


@settings(max_examples=200)
@given(_track_set(), st.data())
def test_track_targets_equal_frame_targets_and_blink_labels(tracks, data):
    for drawn in tracks:
        num_frames = len(drawn.face_presence)
        blinks = data.draw(_intervals(num_frames, confidence=False))
        track = InstanceTrack(drawn.face_presence, drawn.boxes, blinks)
        before = (hash(track), repr(track))
        presence, corners, labels = track.targets
        assert track.targets[0] is presence  # built once, then cached
        expected_presence, expected_corners = (column[:, 0] for column in frame_targets([track]))
        expected_labels = np.array(blink_frame_labels(track, num_frames), dtype=bool)
        for array, expected in [(presence, expected_presence), (corners, expected_corners), (labels, expected_labels)]:
            assert (array.dtype, array.shape) == (expected.dtype, expected.shape)
            assert array.tobytes() == expected.tobytes()
            assert not array.flags.writeable
        assert (hash(track), repr(track)) == before and track == _cold(track)
        assert pickle.loads(pickle.dumps(track)) == track


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


@settings(max_examples=100)
@given(_training_clip())
def test_matching_costs_and_losses_equal_the_focal_loss_formulas(clip):
    """Each result is checked on a fresh track (cold) and on one whose targets are cached (warm)."""
    hyps, tracks = clip
    for track in tracks:  # fill the cache: these tracks are the warm ones
        assert track.targets is track.targets
    if tracks:
        expected = _hex(_reference_matching_costs(hyps, tracks))
        assert _hex(matching_costs(hyps, [_cold(track) for track in tracks])) == expected
        assert _hex(matching_costs(hyps, tracks)) == expected
    for hyp in hyps:
        for track in tracks:
            expected = _hex(_reference_instance_losses(hyp, track))
            for gt in (_cold(track), track):
                b = instance_losses(hyp, gt)
                assert _hex((b.face_cls, b.face_box, b.blink, b.total)) == expected
        expected = float(frame_sum(focal_loss(np.array(hyp.face_scores), False)[0]))
        assert unmatched_loss(hyp).hex() == expected.hex()


@settings(max_examples=100)
@given(_training_clip())
def test_matching_costs_of_stacked_hypotheses_equal_those_of_their_rows(clip):
    hyps, tracks = clip
    stacked = VideoPrediction("v", len(hyps[0].face_scores), hyps).hypotheses
    viewed = Hypotheses.from_arrays(stacked.face_array, stacked.box_array, stacked.blink_array,
                                    [hyp.blink_intervals for hyp in hyps])
    for video_hyps in (stacked, viewed):  # rows stacked once, and rows that view the stacks
        assert type(video_hyps) is Hypotheses
        assert _hex(matching_costs(video_hyps, tracks)) == _hex(matching_costs(list(video_hyps), tracks))


def _rows_hex(hyps) -> list:
    return [(_hex(h.face_scores), _hex(h.boxes.array), _hex(h.blink_scores),
             [(b.start, b.end, b.confidence.hex()) for b in h.blink_intervals]) for h in hyps]


@settings(max_examples=100)
@given(st.data())
def test_finalize_equals_the_per_object_finalize(data):
    num_queries, num_frames = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 20))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # about half the scores from three values, so rows tie in the ranking and runs sit at the threshold
    face, blink = np.where(rng.random((2, num_queries, num_frames)) < 0.5,
                           rng.choice([0.0, 0.3, 1.0], (2, num_queries, num_frames)),
                           rng.random((2, num_queries, num_frames)))
    # rows that reorder the first row's scores: equal means whose sums differ in the last bits by the adding order
    for row in np.flatnonzero(rng.random(num_queries) < 0.5):
        face[row] = rng.permutation(face[0])
    first, second = rng.random((2, num_queries, num_frames, 2))
    boxes = np.concatenate((np.minimum(first, second), np.maximum(first, second)), axis=-1)
    out = ModelOutput((StageOutput(face, boxes, blink),))
    args = (data.draw(st.integers(0, 100)), data.draw(st.integers(1, num_queries + 2)), "v",
            data.draw(st.sampled_from([0.3, 0.5])))
    got, expected = finalize(out, *args), per_object_finalize(out, *args)
    assert got == expected and type(got.hypotheses) is Hypotheses
    assert _rows_hex(got.hypotheses) == _rows_hex(expected.hypotheses)


def _edge_or_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Scores of the given shape: about half at the clamp edges 0, 1, EPS and 1 - EPS, the rest uniform."""
    edges = rng.choice([0.0, 1.0, EPS, 1.0 - EPS], shape)
    return np.where(rng.random(shape) < 0.5, edges, rng.random(shape))


@settings(max_examples=100)
@given(st.data())
def test_unmatched_loss_of_every_row_equals_the_per_row_loss_in_any_order(data):
    """A set's losses come from one broadcast on its first asked row; every row still equals its own sum."""
    kind = data.draw(st.sampled_from(["from_arrays", "video", "finalize", "link_clips", "stacked"]))
    clipped = kind in ("finalize", "link_clips")  # a clip covers at least one frame
    num_rows, num_frames = data.draw(st.integers(1, 60)), data.draw(st.integers(1 if clipped else 0, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    face, blink = _edge_or_uniform(rng, (2, num_rows, num_frames))
    first, second = rng.random((2, num_rows, num_frames, 2))
    boxes = np.concatenate((np.minimum(first, second), np.maximum(first, second)), axis=-1)
    if kind == "from_arrays":
        hyps = Hypotheses.from_arrays(face, boxes, blink, [()] * num_rows)
    elif kind == "video":
        hyps = VideoPrediction.from_arrays("v", num_frames, face, boxes, blink, [()] * num_rows).hypotheses
    elif kind == "finalize":
        out = ModelOutput((StageOutput(face, boxes, blink),))
        hyps = finalize(out, 0, data.draw(st.integers(1, num_rows)), "v").hypotheses
    elif kind == "link_clips":
        clip_length = data.draw(st.integers(min(2, num_frames), num_frames))  # adjacent clips overlap
        stride = data.draw(st.integers(1, max(clip_length - 1, 1)))
        hyps = link_clips([ClipPrediction("v", start, clip_length, Hypotheses.from_arrays(
            face[:, start : start + clip_length], boxes[:, start : start + clip_length],
            blink[:, start : start + clip_length], [()] * num_rows))
            for start in _clip_starts(num_frames, clip_length, stride)]).hypotheses
    else:  # rows built alone mixed with rows of another set, stacked
        viewed = Hypotheses.from_arrays(face, boxes, blink, [()] * num_rows)
        rows = [viewed[h] if data.draw(st.booleans()) else InstancePrediction(face[h], boxes[h], blink[h], ())
                for h in range(num_rows)]
        hyps = Hypotheses(rows, num_frames, "clip at 0", "")
    order = data.draw(st.permutations(range(len(hyps))))
    for _ in range(2):
        for h in order:
            loss = unmatched_loss(hyps[h])
            assert type(loss) is float and loss.hex() == per_row_unmatched_loss(hyps[h]).hex()
