import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blinkdet
from blinkdet import netcore
from blinkdet.anno_model import InstancePrediction, InstanceTrack, VideoAnnotation, VideoPrediction, validate_annotation
from blinkdet.cli_io import (
    Config,
    SchemaError,
    generate_scenario,
    naive_evaluate,
    read_annotations,
    read_predictions,
    write_annotations,
    write_predictions,
)
from blinkdet.cli_io import cli, jsonio
from blinkdet.cli_io.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from blinkdet.cli_io.jsonio import (
    InternalCheckError,
    annotations_to_dict,
    parse_annotations,
    parse_predictions,
    predictions_to_dict,
)
from blinkdet.netcore import SIZE_FIELDS, params_to_arrays, random_params, read_container, write_container


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = Config(num_queries=20, blink_threshold=0.25, keep_top=3)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert Config.load(path) == cfg

    def test_defaults(self):
        cfg = Config()
        assert cfg.num_queries == 50
        assert cfg.num_iterations == 4
        assert cfg.clip_length == 36
        assert cfg.clip_stride == 18
        assert cfg.blink_threshold == 0.3
        assert set(cfg.to_dict()) == {
            "num_queries", "num_iterations", "channels", "num_heads", "roi_grid",
            "clip_length", "clip_stride", "keep_top", "blink_threshold", "link_iou_threshold",
        }
        cfg.validate()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            Config.from_dict({"bogus": 1})

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            Config(blink_threshold=1.5).validate()

    def test_stride_must_overlap(self):
        with pytest.raises(ValueError):
            Config(clip_length=10, clip_stride=10).validate()

    def test_divisibility_message_keeps_config_prefix(self):
        with pytest.raises(ValueError, match=r"^config\.channels 64 must be divisible by num_heads 6$"):
            Config(num_heads=6).validate()

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"blink_threshold": "x"}', "config.blink_threshold"),  # was an uncaught TypeError
            ('{"keep_top": true}', "config.keep_top"),  # was accepted as keep_top=1
            ('{"keep_top": ', "Expecting value"),
        ],
    )
    def test_bad_config_file_names_path(self, tmp_path, text, needle):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            Config.load(path)
        assert str(err.value).startswith(f"{path}: ") and needle in str(err.value)


class TestJsonRoundTrips:
    def test_annotation_round_trip_exact(self, tmp_path):
        cfg = Config()
        for seed in range(10):
            scenario = generate_scenario(cfg, seed)
            path = tmp_path / f"gt_{seed}.json"
            write_annotations(path, list(scenario.videos))
            loaded = read_annotations(path)
            assert tuple(loaded) == scenario.videos  # bit-exact round trip

    def test_prediction_round_trip_exact(self, tmp_path):
        cfg = Config()
        for seed in range(6):
            scenario = generate_scenario(cfg, seed)
            width, height = scenario.videos[0].width, scenario.videos[0].height
            for name, preds in scenario.predictions.items():
                path = tmp_path / f"pred_{seed}_{name}.json"
                write_predictions(path, list(preds), width, height)
                assert tuple(read_predictions(path)) == preds

    def test_writers_self_check_before_writing(self, tmp_path):
        # an infinite corner is no JSON number the readers take, so neither file may be written
        box = [[0.1, 0.1, np.inf, 0.5]]
        video = VideoAnnotation("v", 1, 24.0, 64, 64, (InstanceTrack((1,), box, ()),))
        with pytest.raises(InternalCheckError, match="^annotation emission failed self-check: "):
            write_annotations(tmp_path / "gt.json", [video])
        pred = VideoPrediction("v", 1, (InstancePrediction((0.5,), box, (0.0,), ()),))
        with pytest.raises(InternalCheckError, match="^prediction emission failed self-check: "):
            write_predictions(tmp_path / "pred.json", [pred], 64, 64)
        assert list(tmp_path.iterdir()) == []

    def test_minimal_annotation_file(self, tmp_path):
        data = {
            "videos": [
                {
                    "video_id": "clip1",
                    "num_frames": 3,
                    "fps": 24.0,
                    "width": 100,
                    "height": 50,
                    "instances": [
                        {
                            "presence": [1, 1, 0],
                            "boxes": [[10, 5, 30, 25], [12, 6, 32, 26], None],
                            "blinks": [{"start": 0, "end": 1}],
                        }
                    ],
                }
            ]
        }
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(data))
        videos = read_annotations(path)
        assert videos[0].num_frames == 3
        track = videos[0].instances[0]
        assert track.boxes[0].x1 == pytest.approx(0.1)
        assert track.boxes[0].y2 == pytest.approx(0.5)
        assert track.blinks[0].end == 1


class TestSchemaErrors:
    def _write(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return path

    def test_missing_field_names_path(self, tmp_path):
        path = self._write(tmp_path, {"videos": [{"video_id": "v"}]})
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert "videos[0]" in str(err.value)
        assert "num_frames" in str(err.value)

    def test_reversed_blink_names_interval(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "videos": [
                    {
                        "video_id": "v",
                        "num_frames": 2,
                        "fps": 24.0,
                        "width": 10,
                        "height": 10,
                        "instances": [
                            {
                                "presence": [1, 1],
                                "boxes": [[0, 0, 5, 5], [0, 0, 5, 5]],
                                "blinks": [{"start": 1, "end": 0}],
                            }
                        ],
                    }
                ]
            },
        )
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert "blinks[0]" in str(err.value)
        assert "start <= end" in str(err.value)

    def test_invariant_violation_names_video_with_dot(self, tmp_path):
        # the video used to be named `{path}:videos[0]`, unlike every other path
        video = {"video_id": "v", "num_frames": 2, "fps": 24.0, "width": 10, "height": 10,
                 "instances": [{"presence": [1, 0], "boxes": [[0, 0, 5, 5], [0, 0, 5, 5]], "blinks": []}]}
        path = self._write(tmp_path, {"videos": [video]})
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert err.value.json_path == f"{path}.videos[0]"
        assert str(err.value) == f"{path}.videos[0]: instances[0].boxes[1]: box/presence mismatch (presence=0, box given)"

    def test_type_mismatch_names_path(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "videos": [
                    {
                        "video_id": "v",
                        "num_frames": "two",
                        "fps": 24.0,
                        "width": 10,
                        "height": 10,
                        "instances": [],
                    }
                ]
            },
        )
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert "num_frames" in str(err.value)
        assert "expected integer" in str(err.value)

    def test_unknown_field_rejected(self, tmp_path):
        path = self._write(tmp_path, {"videos": [], "extra": 1})
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert "unknown fields" in str(err.value)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_annotations(path)

    def test_non_utf8_names_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"videos": ["\xe9"]}')
        with pytest.raises(SchemaError, match="not UTF-8") as err:
            read_annotations(path)
        assert err.value.json_path == str(path)

    @pytest.mark.parametrize("video, kind", [(None, "NoneType"), (3, "int"), ("abc", "str"), (["video_id"], "list")])
    def test_non_object_names_path(self, tmp_path, video, kind):
        # None and 3 used to raise TypeError; "abc" was reported as unknown fields 'a', 'b', 'c'
        path = self._write(tmp_path, {"videos": [video]})
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert str(err.value) == f"{path}.videos[0]: expected object, got {kind}"

    def test_frame_size_beyond_float_range(self, tmp_path):
        # used to raise OverflowError when a box coordinate was divided by the width
        video = {"video_id": "v", "num_frames": 1, "fps": 24.0, "width": 10**400, "height": 10,
                 "instances": [{"presence": [1], "boxes": [[0, 0, 5, 5]], "blinks": []}]}
        path = self._write(tmp_path, {"videos": [video]})
        with pytest.raises(SchemaError) as err:
            read_annotations(path)
        assert str(err.value) == f"{path}.videos[0]: width/height beyond the float range"

    def test_integer_past_digit_limit_names_file(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"videos": [], "n": ' + "9" * 5000 + "}")
        with pytest.raises(SchemaError, match="invalid JSON") as err:
            read_annotations(path)
        assert err.value.json_path == str(path)


def _seed7_documents():
    """The seed-7 ground truth and `noisy` predictions of one video, as JSON documents."""
    scenario = generate_scenario(Config(), 7, num_videos=1)
    video = scenario.videos[0]
    gt = annotations_to_dict(list(scenario.videos))
    pred = predictions_to_dict(list(scenario.predictions["noisy"]), video.width, video.height)
    return gt, pred


def _visible_frame(gt):
    """(instance, frame) of the first visible ground-truth frame after frame 0."""
    for i, inst in enumerate(gt["videos"][0]["instances"]):
        for t, flag in enumerate(inst["presence"]):
            if t > 0 and flag == 1:
                return i, t
    raise AssertionError("no visible frame after frame 0")


# JSON literals and the message the per-value validator gives for each
_NOT_A_NUMBER = [
    ("true", "expected number, got True"),
    ('"0.5"', "expected number, got '0.5'"),
    ("NaN", "expected a finite number, got nan"),
    ("1e400", "expected a finite number, got inf"),
]
_NOT_A_SCORE = _NOT_A_NUMBER + [
    ("1.5", "score must lie in [0, 1], got 1.5"),
    ("-0.25", "score must lie in [0, 1], got -0.25"),
]
_NOT_AN_INT = [
    ("true", "expected integer, got True"),
    ('"1"', "expected integer, got '1'"),
    ("NaN", "expected integer, got nan"),
    ("1e400", "expected integer, got inf"),
    ("1.0", "expected integer, got 1.0"),
]
_NOT_A_BOX = [
    ("true", "expected array, got bool"),
    ('"box"', "expected array, got str"),
    ("NaN", "expected array, got float"),
    ("[1.0, 2.0, 3.0]", "box must have 4 coordinates, got 3"),
]


class TestListReaders:
    """A bad value at a later index of each list the readers walk names that value's path."""

    SENTINEL = "@@mutant@@"

    def _read_mutant(self, tmp_path, kind, where, literal):
        gt, pred = _seed7_documents()
        doc = gt if kind == "gt" else pred
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = self.SENTINEL
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc).replace(json.dumps(self.SENTINEL), literal))
        with pytest.raises(SchemaError) as err:
            read_annotations(path) if kind == "gt" else read_predictions(path)
        return path, err.value

    @staticmethod
    def _json_path(path, where):
        return str(path) + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in where)

    def _check(self, tmp_path, kind, where, literal, message):
        path, err = self._read_mutant(tmp_path, kind, where, literal)
        assert err.json_path == self._json_path(path, where)
        assert str(err) == f"{err.json_path}: {message}"

    @pytest.mark.parametrize("field", ["face_scores", "blink_scores"])
    @pytest.mark.parametrize("literal, message", _NOT_A_SCORE)
    def test_bad_score(self, tmp_path, field, literal, message):
        self._check(tmp_path, "pred", ["videos", 0, "hypotheses", 1, field, 3], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_A_NUMBER)
    def test_bad_prediction_box_coordinate(self, tmp_path, literal, message):
        self._check(tmp_path, "pred", ["videos", 0, "hypotheses", 1, "boxes", 3, 2], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_A_BOX + [("null", "expected array, got NoneType")])
    def test_bad_prediction_box(self, tmp_path, literal, message):
        self._check(tmp_path, "pred", ["videos", 0, "hypotheses", 1, "boxes", 3], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_AN_INT)
    def test_bad_presence_flag(self, tmp_path, literal, message):
        i, t = _visible_frame(_seed7_documents()[0])
        self._check(tmp_path, "gt", ["videos", 0, "instances", i, "presence", t], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_A_NUMBER)
    def test_bad_ground_truth_box_coordinate(self, tmp_path, literal, message):
        i, t = _visible_frame(_seed7_documents()[0])
        self._check(tmp_path, "gt", ["videos", 0, "instances", i, "boxes", t, 1], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_A_BOX)
    def test_bad_ground_truth_box(self, tmp_path, literal, message):
        i, t = _visible_frame(_seed7_documents()[0])
        self._check(tmp_path, "gt", ["videos", 0, "instances", i, "boxes", t], literal, message)

    def test_first_bad_value_in_document_order_is_named(self, tmp_path):
        _, pred = _seed7_documents()
        hyp = pred["videos"][0]["hypotheses"][1]
        hyp["face_scores"][5] = 2.0
        hyp["face_scores"][2] = 3.0
        hyp["boxes"][1][0] = "x"  # boxes come after face_scores in the document
        with pytest.raises(SchemaError) as err:
            parse_predictions(pred)
        assert err.value.json_path == "$.videos[0].hypotheses[1].face_scores[2]"

    def test_integer_literals_parse_equal_to_floats(self):
        gt_floats, pred_floats = _seed7_documents()
        gt_ints, pred_ints = _seed7_documents()
        i, t = _visible_frame(gt_floats)
        for doc, box in ((gt_floats, [10.0, 20.0, 30.0, 40.0]), (gt_ints, [10, 20, 30, 40])):
            doc["videos"][0]["instances"][i]["boxes"][t] = box
        for doc, score, box in ((pred_floats, 1.0, [0.0, 5.0, 7.0, 9.0]), (pred_ints, 1, [0, 5, 7, 9])):
            hyp = doc["videos"][0]["hypotheses"][1]
            hyp["face_scores"][3] = hyp["blink_scores"][4] = score
            hyp["boxes"][3] = box
            hyp["blink_intervals"][0]["confidence"] = score
        assert parse_annotations(gt_ints) == parse_annotations(gt_floats)
        assert parse_predictions(pred_ints) == parse_predictions(pred_floats)
        hyp = parse_predictions(pred_ints)[0].hypotheses[1]
        assert type(hyp.face_scores[3]) is float and type(hyp.boxes[3].x2) is float

    # a later interval of a later item in each schema: ground-truth blinks, predicted blink_intervals
    INTERVALS = {"gt": ["videos", 0, "instances", 1, "blinks", 2],
                 "pred": ["videos", 0, "hypotheses", 1, "blink_intervals", 2]}

    @pytest.mark.parametrize("kind", ["gt", "pred"])
    @pytest.mark.parametrize("key", ["start", "end"])
    @pytest.mark.parametrize("literal, message", _NOT_AN_INT)
    def test_bad_interval_endpoint(self, tmp_path, kind, key, literal, message):
        self._check(tmp_path, kind, self.INTERVALS[kind] + [key], literal, message)

    @pytest.mark.parametrize("literal, message", _NOT_A_SCORE)
    def test_bad_interval_confidence(self, tmp_path, literal, message):
        self._check(tmp_path, "pred", self.INTERVALS["pred"] + ["confidence"], literal, message)

    def test_integer_interval_confidence_reads_as_a_float(self):
        _, pred = _seed7_documents()
        interval = pred["videos"][0]["hypotheses"][1]["blink_intervals"][2]
        interval["confidence"] = 1
        read = parse_predictions(pred)[0].hypotheses[1].blink_intervals[2]
        assert (read.start, read.end) == (interval["start"], interval["end"])
        assert type(read.confidence) is float and read.confidence == 1.0

    @pytest.mark.parametrize("kind, key", [("gt", "extra"), ("gt", "confidence"), ("pred", "extra")])
    def test_unknown_interval_key(self, kind, key):
        doc = _seed7_documents()[0 if kind == "gt" else 1]
        where = self.INTERVALS[kind]
        functools.reduce(lambda node, step: node[step], where, doc)[key] = 1
        with pytest.raises(SchemaError) as err:
            parse_annotations(doc) if kind == "gt" else parse_predictions(doc)
        assert str(err.value) == f"{self._json_path('$', where)}: unknown fields [{key!r}]"

    @pytest.mark.parametrize("kind, key", [("gt", "start"), ("gt", "end"), ("pred", "start"), ("pred", "end"),
                                           ("pred", "confidence")])
    def test_missing_interval_key(self, kind, key):
        doc = _seed7_documents()[0 if kind == "gt" else 1]
        where = self.INTERVALS[kind]
        del functools.reduce(lambda node, step: node[step], where, doc)[key]
        with pytest.raises(SchemaError) as err:
            parse_annotations(doc) if kind == "gt" else parse_predictions(doc)
        assert str(err.value) == f"{self._json_path('$', where)}: missing field {key!r}"


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = Config()
        a = generate_scenario(cfg, 77)
        b = generate_scenario(cfg, 77)
        assert a.videos == b.videos
        assert a.predictions == b.predictions
        assert a.expected == b.expected

    def test_instance_count_range(self):
        cfg = Config()
        for seed in range(10):
            for video in generate_scenario(cfg, seed).videos:
                assert 1 <= len(video.instances) <= 8

    def test_blink_durations_match_frame_rate(self):
        cfg = Config()
        for seed in range(10):
            for video in generate_scenario(cfg, seed).videos:
                for track in video.instances:
                    for blink in track.blinks:
                        seconds = blink.num_frames / video.fps
                        assert 0.05 < seconds < 0.55

    def test_back_to_back_pair_present(self):
        cfg = Config()
        found = 0
        for seed in range(10):
            for video in generate_scenario(cfg, seed).videos:
                for track in video.instances:
                    for a, b in zip(track.blinks, track.blinks[1:]):
                        if b.start - a.end == 2:  # exactly one zero frame between
                            found += 1
        assert found > 0

    def test_expected_values_are_oracle_values(self):
        cfg = Config()
        scenario = generate_scenario(cfg, 5)
        assert scenario.oracle_id == "naive-loop-eval-v1"
        for name, preds in scenario.predictions.items():
            recomputed = naive_evaluate(list(scenario.videos), list(preds))
            assert recomputed == scenario.expected[name]

    def test_annotations_always_valid(self):
        cfg = Config()
        for seed in range(10):
            for video in generate_scenario(cfg, seed).videos:
                assert validate_annotation(video) == []


class TestCli:
    @pytest.fixture
    def scenario_dir(self, tmp_path):
        rc = main(["synth", "--seed", "4", "--out", str(tmp_path / "scen"), "--videos", "1"])
        assert rc == EXIT_OK
        return tmp_path / "scen"

    def test_synth_emits_expected_files(self, scenario_dir):
        names = {p.name for p in scenario_dir.iterdir()}
        assert "gt.json" in names
        assert "pred_perfect.json" in names
        assert "expected.json" in names
        expected = json.loads((scenario_dir / "expected.json").read_text())
        assert expected["oracle"] == "naive-loop-eval-v1"

    def test_eval_perfect(self, scenario_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main([
            "eval",
            "--gt", str(scenario_dir / "gt.json"),
            "--pred", str(scenario_dir / "pred_perfect.json"),
            "--report", str(report_path),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Inst-AP" in out
        report = json.loads(report_path.read_text())
        assert report["inst_ap"] == 1.0
        assert report["blink_ap_50"] == 1.0

    def test_eval_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = main(["eval", "--gt", str(bad), "--pred", str(bad)])
        assert rc == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["eval", "--gt", str(tmp_path / "none.json"), "--pred", str(tmp_path / "none.json")])
        assert rc == EXIT_DATA

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        # IsADirectoryError used to escape main as a traceback with exit 1
        rc = main(["eval", "--gt", str(tmp_path), "--pred", str(tmp_path)])
        assert rc == EXIT_DATA
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("bad_score", [float("nan"), 1.7])
    def test_eval_rejects_bad_face_score(self, scenario_dir, tmp_path, capsys, bad_score):
        data = json.loads((scenario_dir / "pred_noisy.json").read_text())
        data["videos"][0]["hypotheses"][0]["face_scores"][3] = bad_score
        bad = tmp_path / "pred_bad.json"
        bad.write_text(json.dumps(data))  # json.dumps writes NaN for float("nan")
        with pytest.raises(SchemaError) as err:
            read_predictions(bad)
        assert err.value.json_path == f"{bad}.videos[0].hypotheses[0].face_scores[3]"
        rc = main(["eval", "--gt", str(scenario_dir / "gt.json"), "--pred", str(bad)])
        assert rc == EXIT_DATA
        assert "hypotheses[0].face_scores[3]" in capsys.readouterr().err

    def test_eval_names_unpaired_video(self, scenario_dir, tmp_path, capsys):
        gt_path, pred_path = scenario_dir / "gt.json", scenario_dir / "pred_noisy.json"
        gt, pred = json.loads(gt_path.read_text()), json.loads(pred_path.read_text())
        longer = json.loads(json.dumps(gt))
        longer["videos"][0]["num_frames"] += 1
        for inst in longer["videos"][0]["instances"]:
            inst["presence"].append(0)
            inst["boxes"].append(None)
        renamed = json.loads(json.dumps(pred))
        renamed["videos"][0]["video_id"] = "elsewhere"
        gt_out = tmp_path / "gt.json"
        cases = [  # (gt, pred, file, JSON path, message); evaluate used to report these without a path
            (gt, renamed, "pred.json", ".videos[0].video_id", f"video_id 'elsewhere' is not in {gt_out}"),
            (longer, pred, "pred.json", ".videos[0].num_frames",
             f"num_frames {gt['videos'][0]['num_frames']} != {longer['videos'][0]['num_frames']} in {gt_out}"),
            ({"videos": gt["videos"] * 2}, pred, "gt.json", ".videos[1].video_id",
             f"duplicate video_id {gt['videos'][0]['video_id']!r}"),
        ]
        for gt_doc, pred_doc, name, where, message in cases:
            (tmp_path / "gt.json").write_text(json.dumps(gt_doc))
            (tmp_path / "pred.json").write_text(json.dumps(pred_doc))
            rc = main(["eval", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")])
            assert rc == EXIT_DATA
            assert capsys.readouterr().err == f"data error: {tmp_path / name}{where}: {message}\n"

    @pytest.mark.parametrize(
        "frames, message",
        [(lambda n: (5, 2), "start <= end violated (5 > 2)"), (lambda n: (2, n), "interval outside frame range")],
        ids=["start-after-end", "past-last-frame"],
    )
    def test_eval_rejects_bad_prediction_interval(self, scenario_dir, tmp_path, capsys, frames, message):
        doc = json.loads((scenario_dir / "pred_perfect.json").read_text())
        start, end = frames(doc["videos"][0]["num_frames"])
        doc["videos"][0]["hypotheses"][0]["blink_intervals"] = [{"start": start, "end": end, "confidence": 1.0}]
        bad = tmp_path / "pred.json"
        bad.write_text(json.dumps(doc))
        assert main(["eval", "--gt", str(scenario_dir / "gt.json"), "--pred", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {bad}.videos[0].hypotheses[0].blink_intervals[0]: {message}\n"

    def test_usage_error(self, capsys):
        assert main(["eval"]) == EXIT_USAGE
        assert main(["nonsense"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["synth", "--seed", "-1"], ["gradcheck", "--seed", "-1"]], ids=["synth", "gradcheck"])
    def test_negative_seed_is_usage_error_naming_it(self, tmp_path, capsys, argv):
        # used to end in numpy's "expected non-negative integer", a data error naming no argument
        out = tmp_path / "scen"
        assert main(argv + (["--out", str(out)] if argv[0] == "synth" else [])) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "forward"])
    def test_config_array_is_data_error_naming_file(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        argv = {"synth": ["synth", "--seed", "1"],
                "forward": ["forward", "--features", str(cfg), "--weights", str(cfg)]}[command]
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cfg}: config must be a JSON object, got list\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["synth", "--seed", "1", "--videos", "0"], "--videos"),
            (["synth", "--seed", "1", "--videos", "-2"], "--videos"),
            (["gradcheck", "--samples", "0"], "--samples"),
            (["gradcheck", "--samples", "-3"], "--samples"),
        ],
        ids=["synth-no-videos", "synth-negative-videos", "gradcheck-no-samples", "gradcheck-negative-samples"],
    )
    def test_count_below_one_is_usage_error_before_any_write(self, tmp_path, capsys, argv, flag):
        # synth used to raise IndexError after writing gt.json; gradcheck passed "all -6 gradient checks"
        out = tmp_path / "scen"
        rc = main(argv + (["--out", str(out)] if argv[0] == "synth" else []))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {flag} must be >= 1, got {argv[-1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["merge --scores", "validate --gt", "eval --gt", "eval --pred",
                                       "synth --config", "forward --config", "forward --features"])
    def test_deeply_nested_json_is_data_error_naming_file(self, scenario_dir, tmp_path, capsys, where):
        # json.loads used to raise RecursionError, a traceback with exit code 1
        deep = "[" * 100_000 + "]" * 100_000
        bad = tmp_path / "deep"
        if where == "forward --features":  # the container's JSON header is nested that deep
            bad.write_bytes(b"BLKPACK1" + len(deep).to_bytes(4, "little") + deep.encode())
        else:
            bad.write_text(deep)
        gt, pred = scenario_dir / "gt.json", scenario_dir / "pred_noisy.json"
        argv = {
            "merge --scores": ["merge", "--scores", bad],
            "validate --gt": ["validate", "--gt", bad],
            "eval --gt": ["eval", "--gt", bad, "--pred", pred],
            "eval --pred": ["eval", "--gt", gt, "--pred", bad],
            "synth --config": ["synth", "--seed", "1", "--config", bad, "--out", tmp_path / "scen"],
            "forward --config": ["forward", "--features", gt, "--weights", gt, "--config", bad,
                                 "--out", tmp_path / "o.json"],
            "forward --features": ["forward", "--features", bad, "--weights", gt, "--out", tmp_path / "o.json"],
        }[where]
        assert main([str(arg) for arg in argv]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {bad}")

    def test_validate_ok_and_violations(self, scenario_dir, tmp_path, capsys):
        assert main(["validate", "--gt", str(scenario_dir / "gt.json")]) == EXIT_OK
        data = json.loads((scenario_dir / "gt.json").read_text())
        data["videos"][0]["instances"][0]["blinks"] = [{"start": 5, "end": 2}]
        bad = tmp_path / "bad_gt.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", "--gt", str(bad)]) == EXIT_DATA
        assert "start <= end" in capsys.readouterr().out

    def test_validate_truncated_json_names_path(self, tmp_path, capsys):
        bad = tmp_path / "cut_gt.json"
        bad.write_text('{"videos": ')
        assert main(["validate", "--gt", str(bad)]) == EXIT_DATA
        assert f"{bad}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_repeated_video_id_names_the_second_video(self, scenario_dir, tmp_path, capsys, command):
        # validate used to pass a ground truth with a repeated id, and eval a prediction file with one
        name, source = ("gt.json", "gt.json") if command == "validate" else ("pred.json", "pred_noisy.json")
        doc = json.loads((scenario_dir / source).read_text())
        doc["videos"] *= 2
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        argv = {"validate": ["validate", "--gt", bad],
                "eval": ["eval", "--gt", scenario_dir / "gt.json", "--pred", bad]}[command]
        assert main([str(arg) for arg in argv]) == EXIT_DATA
        video_id = doc["videos"][0]["video_id"]
        assert capsys.readouterr().err == f"data error: {bad}.videos[1].video_id: duplicate video_id {video_id!r}\n"

    def test_fps_past_float_range_is_data_error(self, scenario_dir, tmp_path, capsys):
        doc = json.loads((scenario_dir / "gt.json").read_text())
        doc["videos"][0]["fps"] = 10**400  # an integer literal of 401 digits
        bad = tmp_path / "gt.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--gt", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {bad}.videos[0].fps: expected a finite number")

    def test_config_channels_not_split_in_four_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channels": 6, "num_heads": 2}))
        assert main(["synth", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "scen")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {cfg}: config.channels 6 must be divisible by 4\n"

    def test_failed_self_check_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def reject(data, source="$"):
            raise SchemaError(source, "rejected")

        monkeypatch.setattr(jsonio, "parse_annotations", reject)
        out = tmp_path / "scen"
        assert main(["synth", "--seed", "1", "--out", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: annotation emission failed self-check: $: rejected\n"
        assert not (out / "gt.json").exists()

    def test_gradcheck_failure_is_internal_error(self, capsys, monkeypatch):
        failed = {"max_rel_focal": 0.5, "max_rel_giou": 0.0, "failures": ["focal sample 3: rel err 5e-01"]}
        monkeypatch.setattr(cli, "run_gradient_checks", lambda samples, seed: failed)
        assert main(["gradcheck", "--samples", "10"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "FAIL focal sample 3: rel err 5e-01\n1 gradient checks exceeded tolerance 1e-4\n"

    def test_merge_command(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.1, 0.5, 0.6, 0.2, 0.4, 0.4, 0.1]))
        rc = main(["merge", "--scores", str(scores), "--threshold", "0.3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [(i["start"], i["end"]) for i in payload["intervals"]] == [(1, 2), (4, 5)]

    def test_merge_reads_a_scores_object_as_the_bare_array(self, tmp_path, capsys):
        values = [0.1, 0.5, 0.6, 0.2, 0.4, 0.4, 0.1]
        outputs = []
        for name, doc in [("bare.json", values), ("object.json", {"scores": values})]:
            (tmp_path / name).write_text(json.dumps(doc))
            assert main(["merge", "--scores", str(tmp_path / name)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["intervals"]

    def test_merge_rejects_unknown_field_of_a_scores_object(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"scores": [0.1, 0.9], "x": 1}))
        assert main(["merge", "--scores", str(scores)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(scores) in err and "unknown fields ['x']" in err

    def test_merge_threshold_past_one_is_usage_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.1, 0.5]))
        assert main(["merge", "--scores", str(scores), "--threshold", "1.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --threshold must be in (0, 1), got 1.5\n"

    def test_merge_checks_the_threshold_before_reading_the_scores(self, tmp_path, capsys):
        # as synth --videos and gradcheck --samples do: the argument first, then the data it names
        missing = tmp_path / "missing.json"
        assert main(["merge", "--scores", str(missing), "--threshold", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --threshold must be in (0, 1), got 5.0\n"

    def test_merge_rejects_out_of_range_score(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.1, 1.7, 0.9, -0.5]))
        assert main(["merge", "--scores", str(scores), "--threshold", "0.3"]) == EXIT_DATA
        assert f"{scores}[1]" in capsys.readouterr().err

    def test_module_entry_point_runs_without_warning(self):
        env = {**os.environ, "PYTHONPATH": str(Path(blinkdet.__file__).parent.parent)}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "blinkdet.cli_io.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr

    def test_gradcheck(self, capsys):
        assert main(["gradcheck", "--samples", "100"]) == EXIT_OK
        assert "within tolerance" in capsys.readouterr().out

    def test_gradcheck_defaults(self, capsys):
        # at seed 7 a GIoU pair 3.2e-6 apart on x2, inside the step, used to fail with rel err 2.29
        assert main(["gradcheck"]) == EXIT_OK
        assert "all 2000 gradient checks within tolerance 1e-4" in capsys.readouterr().out

    def test_full_pipeline_smoke(self, tmp_path, capsys):
        # synth -> forward with random weights -> eval emits a schema-valid report
        cfg = {
            "num_queries": 8,
            "channels": 16,
            "num_heads": 4,
            "roi_grid": 3,
            "clip_length": 24,
            "clip_stride": 12,
            "keep_top": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "scen"
        rc = main([
            "synth", "--seed", "6", "--out", str(out_dir), "--videos", "1",
            "--config", str(cfg_path), "--assets",
        ])
        assert rc == EXIT_OK
        feature_files = sorted(out_dir.glob("features_*.bin"))
        assert feature_files and (out_dir / "weights.bin").exists()

        pred_path = out_dir / "pred_forward.json"
        rc = main([
            "forward",
            "--features", str(feature_files[0]),
            "--weights", str(out_dir / "weights.bin"),
            "--config", str(cfg_path),
            "--out", str(pred_path),
        ])
        assert rc == EXIT_OK
        preds = read_predictions(pred_path)  # schema-valid by construction
        assert preds[0].num_frames >= 24

        report_path = out_dir / "report.json"
        rc = main([
            "eval",
            "--gt", str(out_dir / "gt.json"),
            "--pred", str(pred_path),
            "--report", str(report_path),
        ])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert set(report) >= {"inst_ap", "inst_ap_at", "blink_ap_50", "blink_ap_75"}
        assert 0.0 <= report["inst_ap"] <= 1.0

    def test_forward_rejects_config_weights_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"num_queries": 6, "channels": 16, "num_heads": 4, "roi_grid": 3}
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "scen"
        rc = main(["synth", "--seed", "7", "--out", str(out_dir), "--videos", "1",
                   "--config", str(cfg_path), "--assets"])
        assert rc == EXIT_OK
        features = sorted(out_dir.glob("features_*.bin"))[0]

        def forward(config_path):
            return main(["forward", "--features", str(features), "--weights", str(out_dir / "weights.bin"),
                         "--config", str(config_path), "--out", str(tmp_path / "pred.json")])

        assert forward(cfg_path) == EXIT_OK
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**cfg, "num_queries": 10}))
        capsys.readouterr()
        assert forward(other) == EXIT_DATA
        assert "config num_queries 10 != weights num_queries 6" in capsys.readouterr().err

    @pytest.mark.parametrize("name, shape", [("stage0.update_b", (1,)), ("stage1.filter_gen", (16, 10))])
    def test_forward_rejects_wrong_shaped_weights(self, tmp_path, capsys, name, shape):
        def edit(arrays, meta):
            arrays[name] = np.zeros(shape)  # a (1,) bias used to broadcast and exit 0

        rc, err, bad = self._forward_with_weights(tmp_path, capsys, edit)
        assert rc == EXIT_DATA
        assert str(bad) in err and repr(name) in err

    def _forward_with_weights(self, tmp_path, capsys, edit, **config):
        """`blinkdet forward` on seed-7 small-detector assets whose weights `edit(arrays, meta)` changed."""
        cfg_path = tmp_path / "cfg.json"
        cfg = {"num_queries": 6, "channels": 16, "num_heads": 4, "roi_grid": 3}
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "scen"
        rc = main(["synth", "--seed", "7", "--out", str(out_dir), "--videos", "1",
                   "--config", str(cfg_path), "--assets"])
        assert rc == EXIT_OK
        arrays, meta = read_container(out_dir / "weights.bin")
        edit(arrays, meta)
        bad = tmp_path / "bad_weights.bin"
        write_container(bad, arrays, meta)
        cfg_path.write_text(json.dumps({**cfg, **config}))
        capsys.readouterr()
        rc = main(["forward", "--features", str(sorted(out_dir.glob("features_*.bin"))[0]),
                   "--weights", str(bad), "--config", str(cfg_path), "--out", str(tmp_path / "pred.json")])
        assert not (tmp_path / "pred.json").exists()
        return rc, capsys.readouterr().err, bad

    def test_forward_rejects_non_finite_weights(self, tmp_path, capsys):
        # a NaN bias used to fail deep in the forward pass, naming neither file nor array
        def edit(arrays, meta):
            arrays["stage0.update_b"][0] = np.nan

        rc, err, bad = self._forward_with_weights(tmp_path, capsys, edit)
        assert rc == EXIT_DATA
        assert str(bad) in err and "'stage0.update_b' holds a non-finite value" in err

    @pytest.mark.parametrize("size", [2.7, True, "2"])
    def test_forward_rejects_non_integer_header_size(self, tmp_path, capsys, size):
        # 2.7 and "2" used to load as 2 of the file's 4 stages and exit 0
        def edit(arrays, meta):
            meta["num_iterations"] = size

        rc, err, bad = self._forward_with_weights(tmp_path, capsys, edit, num_iterations=2)
        assert rc == EXIT_DATA
        assert str(bad) in err and f"header size num_iterations must be an integer >= 1, got {size!r}" in err

    def test_forward_rejects_arrays_beyond_num_iterations(self, tmp_path, capsys):
        # the stage2 and stage3 arrays used to be dropped silently
        def edit(arrays, meta):
            meta["num_iterations"] = 2

        rc, err, bad = self._forward_with_weights(tmp_path, capsys, edit, num_iterations=2)
        assert rc == EXIT_DATA
        assert str(bad) in err
        assert "arrays are not in the weights table for num_iterations 2: 'stage2.spatial_attn.wq'" in err

    def _forward_small(self, tmp_path, feature, meta=(), scale_weights=()):
        """`blinkdet forward` of a small detector on `feature` (meta fields overridden by `meta`, removed by None)."""
        config = {"num_queries": 3, "num_iterations": 1, "channels": 8, "num_heads": 2, "roi_grid": 2,
                  "clip_length": 4, "clip_stride": 2, "keep_top": 2}
        paths = {name: tmp_path / name for name in ("features.bin", "weights.bin", "config.json")}
        meta = {"kind": "features", "video_id": "v", "width": 64, "height": 32, **dict(meta)}
        write_container(paths["features.bin"], {"feature": feature}, {k: v for k, v in meta.items() if v is not None})
        arrays = params_to_arrays(random_params(3, 1, 8, 2, 2, seed=1))
        for name, factor in dict(scale_weights).items():
            arrays[name] = arrays[name] * factor
        write_container(paths["weights.bin"], arrays, {"kind": "weights", **{k: config[k] for k in SIZE_FIELDS}})
        paths["config.json"].write_text(json.dumps(config))
        return paths, main(["forward", "--features", str(paths["features.bin"]), "--weights", str(paths["weights.bin"]),
                            "--config", str(paths["config.json"]), "--out", str(tmp_path / "pred.json")])

    @pytest.mark.parametrize(
        "feature, meta, message",
        [
            # the first three exited 2 without naming the file; a negative width exited 3, a list one raised
            (np.zeros((0, 8, 3, 4)), {}, "feature shape (0, 8, 3, 4) has an empty axis"),
            (np.zeros((6, 8, 3)), {}, "feature must have shape (T, C, H, W), got (6, 8, 3)"),
            (np.full((6, 8, 3, 4), np.nan), {}, "feature entries must be finite"),
            (np.zeros((6, 8, 3, 4)), {"width": -64}, "width/height must be positive, got -64x32"),
            (np.zeros((6, 8, 3, 4)), {"width": [64]}, "expected integer, got [64]"),
            (np.zeros((6, 8, 3, 4)), {"video_id": None}, "missing field 'video_id'"),
            # a list id used to be written to the predictions as the string "[1, 2]"
            (np.zeros((6, 8, 3, 4)), {"video_id": [1, 2]}, ".video_id: expected string, got [1, 2]"),
            (np.zeros((6, 4, 3, 4)), {}, "feature channels 4 != weights channels 8"),
        ],
        ids=["zero-frames", "3-d", "nan", "negative-width", "list-width", "no-video-id", "list-video-id", "channels"],
    )
    def test_forward_feature_error_names_features_file(self, tmp_path, capsys, feature, meta, message):
        paths, rc = self._forward_small(tmp_path, feature, meta)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith(f"data error: {paths['features.bin']}") and message in err

    def test_forward_pass_value_error_names_features_file(self, tmp_path, capsys, monkeypatch):
        # the NaN-box check's error used to reach main with no file named
        def nan_boxes(feature, params):
            raise ValueError("stage 1 of the forward pass gave NaN boxes")

        monkeypatch.setattr(cli, "detector_forward", nan_boxes)
        paths, rc = self._forward_small(tmp_path, np.zeros((6, 8, 3, 4)))
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {paths['features.bin']}: stage 1 of the forward pass gave NaN boxes\n"

    def test_forward_overflow_is_data_error(self, tmp_path, capsys):
        # finite weights of 1e300 used to overflow into NaN proposals, an error naming no file
        feature = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 8, 3, 4))
        paths, rc = self._forward_small(tmp_path, feature, scale_weights={"query_seed": 1e305})
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert str(paths["features.bin"]) in err and f"forward pass with {paths['weights.bin']} overflowed" in err

    @pytest.mark.parametrize("scale", [{"query_seed": 1e305}, {"stage0.filter_gen": 1e200}],
                             ids=["query-interaction", "video-interaction"])
    def test_forward_overflow_on_two_workers_is_data_error(self, tmp_path, capsys, monkeypatch, scale):
        monkeypatch.setattr(netcore, "_WORKERS", 2)
        feature = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 8, 3, 4))
        paths, rc = self._forward_small(tmp_path, feature, scale_weights=scale)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert str(paths["features.bin"]) in err and f"forward pass with {paths['weights.bin']} overflowed" in err

    def test_forward_rejects_features_as_weights(self, tmp_path, capsys):
        paths, rc = self._forward_small(tmp_path, np.zeros((6, 8, 3, 4)))
        assert rc == EXIT_OK
        features = str(paths["features.bin"])
        capsys.readouterr()
        assert main(["forward", "--features", features, "--weights", features,
                     "--out", str(tmp_path / "o.json")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {features}: container is not a weights file")

    def test_forward_rejects_misaligned_container(self, tmp_path, capsys):
        features = tmp_path / "features.bin"
        header = json.dumps({"version": 1, "meta": {"kind": "features"},
                             "arrays": [{"name": "feature", "shape": [1, 1, 1, 1], "offset": 4}]}).encode()
        features.write_bytes(b"BLKPACK1" + len(header).to_bytes(4, "little") + header + bytes(16))
        rc = main(["forward", "--features", str(features), "--weights", str(features),
                   "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert str(features) in err and "'feature' has offset 4, not a multiple of 8" in err

    def test_forward_rejects_meta_that_is_not_an_object(self, tmp_path, capsys):
        features = tmp_path / "features.bin"
        write_container(features, {"feature": np.zeros((6, 8, 3, 4))}, ["features"])
        assert main(["forward", "--features", str(features), "--weights", str(features),
                     "--out", str(tmp_path / "o.json")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {features}: malformed container: ") and "is not an object" in err

    def test_forward_rejects_wrong_container(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        for content in (b"garbage", b"BLKPACK1\x00\x00"):  # the second is cut inside the header length
            junk.write_bytes(content)
            rc = main(["forward", "--features", str(junk), "--weights", str(junk), "--out", str(tmp_path / "o.json")])
            assert rc == EXIT_DATA
            assert str(junk) in capsys.readouterr().err


# Runs in a fresh interpreter: import blinkdet, run one command if argv is given, solve
# assignments through hungarian and match_instances, report the exit code and the scipy
# modules loaded.
_SCIPY_PROBE = """
import json, sys
import blinkdet
argv, rc = json.loads(sys.argv[1]), 0
if argv:
    from blinkdet.cli_io.cli import main
    rc = main(argv)
from blinkdet.anno_model import FrameBox, InstanceTrack
from blinkdet.assignment import hungarian, match_instances
from blinkdet.cli_io import perfect_prediction
assert hungarian([[1.0, 2.0], [2.0, 4.0], [0.5, 3.0]]).pairs == ((0, 1), (2, 0))
tracks = [InstanceTrack((1, 1), (FrameBox(0.1 * k, 0.1, 0.1 * k + 0.3, 0.4),) * 2, ()) for k in range(3)]
assert match_instances([perfect_prediction(t) for t in tracks[::-1]], tracks).pairs == ((0, 2), (1, 1), (2, 0))
print(json.dumps([rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


@pytest.fixture(scope="module")
def seed7_assets(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"num_queries": 8, "channels": 16, "num_heads": 4, "roi_grid": 3,
                               "clip_length": 24, "clip_stride": 12, "keep_top": 4}))
    rc = main(["synth", "--seed", "7", "--out", str(out), "--videos", "1", "--config", str(cfg), "--assets"])
    assert rc == EXIT_OK
    return out


@pytest.mark.parametrize("command", ["import", "eval", "forward", "validate"])
def test_commands_and_assignments_load_no_scipy(seed7_assets, tmp_path, command):
    # the solver is in blinkdet.assignment; importing scipy.optimize would cost about 0.65 s of start-up
    d = seed7_assets
    argv = {
        "import": [],
        "eval": ["eval", "--gt", str(d / "gt.json"), "--pred", str(d / "pred_noisy.json"),
                 "--report", str(tmp_path / "report.json")],
        "forward": ["forward", "--features", str(sorted(d.glob("features_*.bin"))[0]),
                    "--weights", str(d / "weights.bin"), "--config", str(d / "cfg.json"),
                    "--out", str(tmp_path / "pred.json")],
        "validate": ["validate", "--gt", str(d / "gt.json")],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(blinkdet.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    rc, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert rc == EXIT_OK, done.stdout
    assert scipy_modules == []


# numpy is the only runtime dependency: with every scipy import made to fail, synth, forward
# and eval each exit 0 in one fresh interpreter.
_NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None
from blinkdet.cli_io.cli import main
out, cfg = sys.argv[1:]
pred = out + "/forward.json"
print(json.dumps([
    main(["synth", "--seed", "7", "--out", out, "--videos", "1", "--config", cfg, "--assets"]),
    main(["forward", "--features", out + "/features_video_7_0.bin", "--weights", out + "/weights.bin",
          "--config", cfg, "--out", pred]),
    main(["eval", "--gt", out + "/gt.json", "--pred", pred]),
]))
"""


def test_synth_forward_and_eval_run_with_scipy_unimportable(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_queries": 8, "channels": 16, "num_heads": 4, "roi_grid": 3,
                               "clip_length": 24, "clip_stride": 12, "keep_top": 4}))
    env = {**os.environ, "PYTHONPATH": str(Path(blinkdet.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "out"), str(cfg)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [EXIT_OK, EXIT_OK, EXIT_OK]


def test_forward_output_is_the_same_on_one_or_many_workers(seed7_assets, tmp_path):
    # OPENBLAS_NUM_THREADS=1 gives every usable CPU a block of queries; unset BLAS variables give one
    d = seed7_assets
    probe = ("import sys; from blinkdet import netcore; from blinkdet.cli_io.cli import main\n"
             "rc = main(sys.argv[1:]); print(netcore._WORKERS); sys.exit(rc)")
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = str(Path(blinkdet.__file__).parent.parent)
    outputs = {}
    for pinned in (True, False):
        out = tmp_path / f"pred_{pinned}.json"
        env = {**base, "OPENBLAS_NUM_THREADS": "1"} if pinned else base
        done = subprocess.run(
            [sys.executable, "-c", probe, "forward", "--features", str(sorted(d.glob("features_*.bin"))[0]),
             "--weights", str(d / "weights.bin"), "--config", str(d / "cfg.json"), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        workers = int(done.stdout.split()[-1])
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert workers == (cpus if pinned else 1)
        outputs[pinned] = out.read_bytes()
    assert outputs[True] == outputs[False]
