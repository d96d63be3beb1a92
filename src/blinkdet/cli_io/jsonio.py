"""Strict JSON readers and writers for annotation, prediction, and report files.

Files store boxes in absolute pixel coordinates; the in-memory model is
normalized to [0, 1], so readers divide by the video's width/height and
writers multiply back. Every schema error names the JSON path where it
occurred. Numbers must be finite, and prediction scores and interval
confidences must lie in [0, 1]. Writers re-parse their own output before
touching disk, so a file that was written is a file that will read back.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from ..anno_model import (
    BlinkInterval,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    validate_annotation,
)
from ..metrics import EvalReport


class SchemaError(ValueError):
    """A file violated the schema; carries the JSON path of the offense."""

    def __init__(self, path: str, message: str):
        self.json_path = path
        super().__init__(f"{path}: {message}")


class InternalCheckError(RuntimeError):
    """An emitted file failed its own schema self-check."""


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    return value


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in _as_object(obj, path):
        raise SchemaError(path, f"missing field {key!r}")
    return obj[key]


def _check_known(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(_as_object(obj, path)) - allowed
    if unknown:
        raise SchemaError(path, f"unknown fields {sorted(unknown)}")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected integer, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return number


def _as_score(value: Any, path: str) -> float:
    score = _as_number(value, path)
    if not 0.0 <= score <= 1.0:
        raise SchemaError(path, f"score must lie in [0, 1], got {score!r}")
    return score


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected string, got {value!r}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _parse_box(value: Any, path: str) -> list[float]:
    items = _as_list(value, path)
    if len(items) != 4:
        raise SchemaError(path, f"box must have 4 coordinates, got {len(items)}")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _pixel_scale(width: int, height: int) -> np.ndarray:
    return np.array([width, height, width, height], dtype=float)


# The list readers below accept the common value (a float in range, an int,
# four finite floats) with an inline test and hand anything else, with its
# JSON path, to the per-value validator above, which either raises or
# accepts it (an integer literal where a real is expected, say). The
# validators stay the only statement of each rule and message; the inline
# tests only decide when a path string has to be built.


def _parse_ints(obj: dict, key: str, path: str) -> list[int]:
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    return [v if type(v) is int else _as_int(v, f"{path}[{t}]") for t, v in enumerate(_as_list(items, path))]


def _parse_scores(obj: dict, key: str, path: str) -> list[float]:
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    return [
        v if type(v) is float and 0.0 <= v <= 1.0 else _as_score(v, f"{path}[{t}]")
        for t, v in enumerate(_as_list(items, path))
    ]


def _parse_boxes(obj: dict, key: str, path: str, width: int, height: int, nullable: bool) -> np.ndarray:
    """The (T, 4) normalized boxes of one track; a null box is a NaN row where the schema allows it (nullable)."""
    items = _require(obj, key, path)
    path = f"{path}.{key}"
    rows: list[Any] = []
    for t, raw in enumerate(_as_list(items, path)):
        if type(raw) is list and len(raw) == 4:
            x1, y1, x2, y2 = raw
            # a finite sum of four floats means all four are finite; a sum that
            # overflows only sends the box to _parse_box
            if type(x1) is type(y1) is type(x2) is type(y2) is float and math.isfinite(x1 + y1 + x2 + y2):
                rows.append(raw)
                continue
        if raw is None and nullable:
            rows.append((math.nan,) * 4)
        else:
            rows.append(_parse_box(raw, f"{path}[{t}]"))
    return np.array(rows, dtype=float).reshape(-1, 4) / _pixel_scale(width, height)


def _parse_frame_size(video: dict, path: str) -> tuple[int, int]:
    width = _as_int(_require(video, "width", path), f"{path}.width")
    height = _as_int(_require(video, "height", path), f"{path}.height")
    if width <= 0 or height <= 0:
        raise SchemaError(path, f"width/height must be positive, got {width}x{height}")
    if max(width, height) > sys.float_info.max:  # box coordinates are divided by them
        raise SchemaError(path, "width/height beyond the float range")
    return width, height


def _parse_blink(value: Any, path: str, with_confidence: bool) -> BlinkInterval:
    allowed = {"start", "end", "confidence"} if with_confidence else {"start", "end"}
    start = _as_int(_require(value, "start", path), f"{path}.start")
    end = _as_int(_require(value, "end", path), f"{path}.end")
    _check_known(value, allowed, path)
    if with_confidence:
        confidence = _as_score(_require(value, "confidence", path), f"{path}.confidence")
    else:
        confidence = 1.0
    return BlinkInterval(start, end, confidence)


def _parse_videos(data: Any, source: str, items: str, with_fps: bool):
    """Each video of a file, header parsed, as (path, id, num_frames, fps or None, width, height, items list).

    Both schemas share the root and the header: the field check, then
    video_id, num_frames, fps (annotations only), the frame size, and the
    list under `items`, in that order.
    """
    if not isinstance(data, dict):
        raise SchemaError(source, f"expected top-level object, got {type(data).__name__}")
    _check_known(data, {"videos"}, source)
    fields = {"video_id", "num_frames", "width", "height", items} | ({"fps"} if with_fps else set())
    for vi, video in enumerate(_as_list(_require(data, "videos", source), f"{source}.videos")):
        vpath = f"{source}.videos[{vi}]"
        _check_known(video, fields, vpath)
        video_id = _as_str(_require(video, "video_id", vpath), f"{vpath}.video_id")
        num_frames = _as_int(_require(video, "num_frames", vpath), f"{vpath}.num_frames")
        fps = _as_number(_require(video, "fps", vpath), f"{vpath}.fps") if with_fps else None
        width, height = _parse_frame_size(video, vpath)
        listed = _as_list(_require(video, items, vpath), f"{vpath}.{items}")
        yield vpath, video_id, num_frames, fps, width, height, listed


def parse_annotations(data: Any, source: str = "$") -> list[VideoAnnotation]:
    """Structural parse of the annotation schema (invariants checked separately)."""
    videos = []
    for vpath, video_id, num_frames, fps, width, height, items in _parse_videos(data, source, "instances", True):
        instances = []
        for ii, inst in enumerate(items):
            ipath = f"{vpath}.instances[{ii}]"
            _check_known(inst, {"presence", "boxes", "blinks"}, ipath)
            presence = _parse_ints(inst, "presence", ipath)
            boxes = _parse_boxes(inst, "boxes", ipath, width, height, nullable=True)
            blinks = [
                _parse_blink(b, f"{ipath}.blinks[{k}]", with_confidence=False)
                for k, b in enumerate(_as_list(_require(inst, "blinks", ipath), f"{ipath}.blinks"))
            ]
            instances.append(InstanceTrack(presence, boxes, blinks))
        videos.append(VideoAnnotation(video_id, num_frames, fps, width, height, tuple(instances)))
    return videos


def parse_predictions(data: Any, source: str = "$") -> list[VideoPrediction]:
    """Structural parse of the prediction schema."""
    videos = []
    for vpath, video_id, num_frames, _, width, height, items in _parse_videos(data, source, "hypotheses", False):
        hypotheses = []
        for hi, hyp in enumerate(items):
            hpath = f"{vpath}.hypotheses[{hi}]"
            _check_known(hyp, {"face_scores", "boxes", "blink_scores", "blink_intervals", "presence"}, hpath)
            face_scores = _parse_scores(hyp, "face_scores", hpath)
            boxes = _parse_boxes(hyp, "boxes", hpath, width, height, nullable=False)
            blink_scores = _parse_scores(hyp, "blink_scores", hpath)
            intervals = [
                _parse_blink(b, f"{hpath}.blink_intervals[{k}]", with_confidence=True)
                for k, b in enumerate(
                    _as_list(_require(hyp, "blink_intervals", hpath), f"{hpath}.blink_intervals")
                )
            ]
            for name, seq in (("face_scores", face_scores), ("boxes", boxes), ("blink_scores", blink_scores)):
                if len(seq) != num_frames:
                    raise SchemaError(
                        f"{hpath}.{name}", f"length {len(seq)} != num_frames {num_frames}"
                    )
            for k, interval in enumerate(intervals):
                kpath = f"{hpath}.blink_intervals[{k}]"
                if interval.start > interval.end:
                    raise SchemaError(kpath, f"start <= end violated ({interval.start} > {interval.end})")
                if interval.start < 0 or interval.end > num_frames - 1:
                    raise SchemaError(kpath, "interval outside frame range")
            hypotheses.append(InstancePrediction(face_scores, boxes, blink_scores, intervals))
        videos.append(VideoPrediction(video_id, num_frames, tuple(hypotheses)))
    return videos


def _load_json(path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(str(path), f"not UTF-8 text: {exc}") from exc
    except (RecursionError, ValueError) as exc:  # bad JSON, too deep a nesting, or an integer past the digit limit
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc


def read_annotations(path, validate: bool = True) -> list[VideoAnnotation]:
    """Read, parse, and (by default) invariant-check an annotation file."""
    videos = parse_annotations(_load_json(path), source=str(path))
    if validate:
        for vi, video in enumerate(videos):
            violations = validate_annotation(video)
            if violations:
                raise SchemaError(f"{path}.videos[{vi}]", "; ".join(violations))
    return videos


def read_predictions(path) -> list[VideoPrediction]:
    return parse_predictions(_load_json(path), source=str(path))


def annotations_to_dict(videos: list[VideoAnnotation]) -> dict:
    out = []
    for video in videos:
        scale = _pixel_scale(video.width, video.height)
        instances = []
        for track in video.instances:
            rows = (track.boxes.array * scale).tolist()
            instances.append(
                {
                    "presence": list(track.face_presence),
                    "boxes": [row if given else None for given, row in zip(track.boxes.given.tolist(), rows)],
                    "blinks": [{"start": b.start, "end": b.end} for b in track.blinks],
                }
            )
        out.append(
            {
                "video_id": video.video_id,
                "num_frames": video.num_frames,
                "fps": video.fps,
                "width": video.width,
                "height": video.height,
                "instances": instances,
            }
        )
    return {"videos": out}


def predictions_to_dict(
    videos: list[VideoPrediction], width: int, height: int
) -> dict:
    out = []
    scale = _pixel_scale(width, height)
    for video in videos:
        hypotheses = []
        for hyp in video.hypotheses:
            hypotheses.append(
                {
                    "face_scores": list(hyp.face_scores),
                    # presence is derived for readability: score >= 0.5 mirrors a visible face
                    "presence": [1 if s >= 0.5 else 0 for s in hyp.face_scores],
                    "boxes": (hyp.boxes.array * scale).tolist(),
                    "blink_scores": list(hyp.blink_scores),
                    "blink_intervals": [
                        {"start": b.start, "end": b.end, "confidence": b.confidence}
                        for b in hyp.blink_intervals
                    ],
                }
            )
        out.append(
            {
                "video_id": video.video_id,
                "num_frames": video.num_frames,
                "width": width,
                "height": height,
                "hypotheses": hypotheses,
            }
        )
    return {"videos": out}


def _emit(path, data: dict, parse, kind: str) -> None:
    """Write data as JSON after parse, the schema's reader, accepts it."""
    try:
        parse(data)
    except SchemaError as exc:
        raise InternalCheckError(f"{kind} emission failed self-check: {exc}") from exc
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def write_annotations(path, videos: list[VideoAnnotation]) -> None:
    _emit(path, annotations_to_dict(videos), parse_annotations, "annotation")


def write_predictions(path, videos: list[VideoPrediction], width: int, height: int) -> None:
    _emit(path, predictions_to_dict(videos, width, height), parse_predictions, "prediction")


def write_report(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")


def read_scores(path) -> list[float]:
    """Read a frame-score file: either a bare JSON array or {"scores": [...]}."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = _require(data, "scores", str(path))
    items = _as_list(data, str(path))
    return [_as_score(v, f"{path}[{i}]") for i, v in enumerate(items)]
