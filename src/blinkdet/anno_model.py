"""In-memory data model for multi-person eyeblink ground truth and predictions.

Ground truth describes each person in an untrimmed video as a face tracklet
(per-frame presence flags and boxes) plus a list of eyeblink intervals with
inclusive frame endpoints. Predictions carry per-frame face scores, boxes,
and frame-level blink scores alongside merged blink intervals.

Boxes are corner-form (x1, y1, x2, y2). File readers convert absolute pixel
coordinates to normalized [0, 1] values, so everything in memory is
resolution independent. The per-frame boxes of a track are one read-only
(T, 4) float64 array (`Boxes`); a `FrameBox` is built only when a single
frame is read. The hypotheses of a clip or a video are one `Hypotheses`, a
tuple of rows that also holds them stacked. All types are immutable after
construction and every operation here is a pure function, so concurrent
reads are safe. A track's `targets` are built on its first read; concurrent
first reads build equal arrays.

The rows that `Hypotheses.from_arrays` makes share their set's stacked
face scores and one memo of per-set values (`InstancePrediction.per_set`):
a value is computed over all rows in one broadcast on its first read from
any row, and later reads of any row take their item. A row built alone is a
one-row set of its own, and so is a pickled or copied row, which carries
neither the memo nor its set's other rows. Rows hold the stack and the
memo, not their `Hypotheses`, which holds them. Concurrent first reads may
each compute a value; they store equal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

_NO_BOX_ROW = (math.nan,) * 4


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only; so are the views taken of it afterwards."""
    array.setflags(write=False)
    return array


class FrameBox(NamedTuple):
    """Axis-aligned box, corner form. Expected ordering: x2 >= x1, y2 >= y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return max(0.0, self.width) * max(0.0, self.height)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


class Boxes(Sequence):
    """The per-frame boxes of one track as a read-only (T, 4) float64 array.

    A frame with no box is a NaN row. Built from another Boxes it shares that
    array; from an array or a sequence of boxes (None for no box) it copies.
    Indexing builds a FrameBox (None for a NaN row) when it is read, and a
    slice is a Boxes. Equality compares the arrays, and the hash agrees.
    """

    __slots__ = ("array",)

    def __init__(self, boxes: Iterable[Optional[Sequence[float]]] | np.ndarray = ()):
        if isinstance(boxes, Boxes):
            self.array = boxes.array
            return
        if not isinstance(boxes, np.ndarray):
            boxes = [_NO_BOX_ROW if box is None else box for box in boxes]
        array = np.array(boxes, dtype=float)
        if array.shape[1:] != (4,) and array.size:
            raise ValueError(f"boxes must form a (T, 4) array, got shape {array.shape}")
        self.array = _read_only(array.reshape(-1, 4))

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Boxes(self.array[index])
        row = self.array[index].tolist()
        return None if all(map(math.isnan, row)) else FrameBox(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Boxes):
            return NotImplemented
        return np.array_equal(self.array, other.array, equal_nan=True)

    def __hash__(self) -> int:
        # equal arrays may differ in bytes: one canonical NaN, and +0.0 for -0.0
        return hash(np.where(np.isnan(self.array), np.nan, self.array + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"Boxes({self.array.tolist()!r})"


@dataclass(frozen=True)
class BlinkInterval:
    """One eyeblink event as an inclusive frame range [start, end]."""

    start: int
    end: int
    confidence: float = 1.0  # predictions only; ground truth keeps 1.0

    def __post_init__(self):
        # end < start is left to validate_annotation, which reports it as data
        if not 0.0 <= self.confidence <= 1.0:  # NaN fails too
            raise ValueError(f"blink confidence must lie in [0, 1], got {self.confidence!r}")

    @property
    def num_frames(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class InstanceTrack:
    """Ground-truth tracklet of one person across the whole video.

    face_presence[t] is 1 where the face is visible, 0 where it is occluded
    or off screen; boxes[t] is None (a NaN row) exactly where presence is 0.
    validate_annotation rejects any other flag, and the library reads one as
    absent.
    """

    face_presence: tuple[int, ...]
    boxes: Boxes
    blinks: tuple[BlinkInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "face_presence", tuple(self.face_presence))
        object.__setattr__(self, "boxes", Boxes(self.boxes))
        object.__setattr__(self, "blinks", tuple(self.blinks))

    @property
    def num_visible(self) -> int:
        return self.face_presence.count(1)

    @cached_property
    def targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (T,) presence, (T, 4) present corners and (T,) bool blink labels, built on first read.

        The presence and corners equal the column of frame_targets([self]).
        The cache is not part of the track's value: equality, hash and repr
        read the fields only.
        """
        presence, corners = (column[:, 0] for column in frame_targets([self]))
        labels = np.array(interval_frame_labels(self.blinks, len(presence)), dtype=bool)
        return _read_only(presence), _read_only(corners), _read_only(labels)


def present_corners(boxes: np.ndarray, present=True) -> np.ndarray:
    """Corners (..., 4) of the rows that are present and hold a box; zeros, which meet nothing, elsewhere."""
    return np.where((present & ~np.isnan(boxes).all(axis=-1))[..., None], boxes, 0.0)


def frame_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 0 frame after frame, bit-identical to a scalar loop (np.sum pairs terms).

    np.add.reduce adds row after row only on a C-contiguous array whose rows
    hold more than one element; on a column of single values or a strided
    view it may pair terms, so those take accumulate's last row instead.
    """
    if not len(values):
        return np.zeros(values.shape[1:])
    if values.flags.c_contiguous and values[0].size > 1:
        return np.add.reduce(values, axis=0)
    return np.add.accumulate(values, axis=0)[-1]


def frame_mean(values: np.ndarray) -> np.ndarray:
    """Mean over axis 0, added frame after frame (frame_sum); 0 over no frames."""
    return frame_sum(values) / max(len(values), 1)


def frame_targets(tracks: Sequence[InstanceTrack]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, G) presence and (T, G, 4) present corners of G tracks, frames on axis 0.

    A frame is present where its flag is 1, as in num_visible; its corners
    count where it is also boxed (present_corners).
    """
    presence = (np.array([track.face_presence for track in tracks]) == 1).T
    return presence, present_corners(np.stack([track.boxes.array for track in tracks], axis=1), presence)


@dataclass(frozen=True)
class VideoAnnotation:
    """Ground truth for one untrimmed video."""

    video_id: str
    num_frames: int
    fps: float
    width: int
    height: int
    instances: tuple[InstanceTrack, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))


def _check_predicted_frames(face: np.ndarray, boxes: np.ndarray, blink: np.ndarray) -> None:
    """The frame rules of predictions, on scores (..., T) and boxes (..., T, 4) of one or more hypotheses."""
    lengths = [face.shape[-1], boxes.shape[-2], blink.shape[-1]]
    if len(set(lengths)) > 1:
        raise ValueError(f"face scores, boxes and blink scores cover {lengths} frames: they must agree")
    if np.isnan(boxes).any():
        raise ValueError("prediction boxes must not hold NaN: every frame has a box")
    if not all(((scores >= 0.0) & (scores <= 1.0)).all() for scores in (face, blink)):  # NaN fails too
        raise ValueError("prediction face and blink scores must lie in [0, 1]")


@dataclass(frozen=True)
class InstancePrediction:
    """One hypothesis: per-frame face scores/boxes and blink scores/intervals, all over the same frames.

    Unlike ground truth there is a box on every frame; absence is expressed
    through a low face score (and usually a zero-area box). `face_array`
    and `blink_array` are the scores as read-only float64 arrays, views of
    the one array the [0, 1] check builds, or, in a row of
    Hypotheses.from_arrays, rows of the stacked arrays; they are not
    fields, so equality, hash and repr see only the tuples. Nor is the
    set a row shares per_set's memo with: a row built here is a one-row
    set, and a pickle or copy of any row is one too.
    """

    face_scores: tuple[float, ...]
    boxes: Boxes
    blink_scores: tuple[float, ...]
    blink_intervals: tuple[BlinkInterval, ...]

    def __post_init__(self):
        face_scores, boxes = tuple(map(float, self.face_scores)), Boxes(self.boxes)
        blink_scores = tuple(map(float, self.blink_scores))
        scores = _read_only(np.fromiter(face_scores + blink_scores, float))
        face, blink = scores[: len(face_scores)], scores[len(face_scores):]
        self.__dict__.update(face_scores=face_scores, boxes=boxes, blink_scores=blink_scores,
                             blink_intervals=tuple(self.blink_intervals), face_array=face, blink_array=blink,
                             _set_faces=face[None], _set_memo={}, _index=0)
        _check_predicted_frames(face, boxes.array, blink)

    @classmethod
    def _row(cls, face: np.ndarray, face_scores: list, boxes: np.ndarray, blink: np.ndarray, blink_scores: list,
             intervals, set_faces: np.ndarray, set_memo: dict, index: int) -> "InstancePrediction":
        """The hypothesis over row index of Hypotheses.from_arrays's checked arrays, not checked again; the
        set's stacked face scores set_faces and its memo set_memo are shared by all its rows."""
        row, shared = cls.__new__(cls), Boxes.__new__(Boxes)
        shared.array = boxes
        row.__dict__.update(face_scores=tuple(face_scores), boxes=shared, blink_scores=tuple(blink_scores),
                            blink_intervals=tuple(intervals), face_array=face, blink_array=blink,
                            _set_faces=set_faces, _set_memo=set_memo, _index=index)
        return row

    def __getstate__(self) -> dict:
        """The fields and the row's own arrays; its set's stack, memo and other rows stay behind."""
        state = dict(self.__dict__)
        del state["_set_faces"], state["_set_memo"], state["_index"]
        return state

    def __setstate__(self, state: dict) -> None:
        """A one-row set of its own, over score arrays made read-only again (pickle and deepcopy copy them)."""
        face, blink = _read_only(state["face_array"]), _read_only(state["blink_array"])
        self.__dict__.update(state, face_array=face, blink_array=blink)
        self.__dict__.update(_set_faces=face[None], _set_memo={}, _index=0)

    def per_set(self, fn):
        """Item h of fn(face), where this row is row h of its set and face the set's stacked (H, T) face
        scores; fn returns H values. fn runs on the set's first call with it, from any row; later calls read
        the stored values."""
        values = self._set_memo.get(fn)
        if values is None:
            values = self._set_memo[fn] = fn(self._set_faces)
        return values[self._index]

    @property
    def confidence(self) -> float:
        """Instance ranking score: the mean face score, added frame after frame (frame_mean)."""
        return float(frame_mean(self.face_array))


class Hypotheses(tuple):
    """The H hypotheses of a clip or a video: a tuple of InstancePrediction rows over one frame count.

    `face_array` and `blink_array` (H, T) and `box_array` (H, T, 4) hold the
    rows stacked, read-only. They are not part of the value: equality, hash
    and repr are the plain tuple's, and tuple(...) or a slice is a plain
    tuple without them. from_arrays checks stacked arrays once and makes
    each row a read-only view of them that is not checked again. The
    constructor hands back Hypotheses as they are, reading only their width,
    and stacks other rows once.
    """

    def __new__(cls, hypotheses: Iterable[InstancePrediction], num_frames: int, owner: str, count_name: str):
        """hypotheses, each over num_frames frames; otherwise ValueError
        "{owner}: hypothesis {h} has {n} frames, not {count_name}{num_frames}" names the first that is not.
        Of Hypotheses only the width of the stack is read: it is every row's count, so h is 0."""
        hyps = hypotheses if isinstance(hypotheses, Hypotheses) else super().__new__(cls, hypotheses)
        counts = hyps.face_array.shape[1:] if hyps is hypotheses and hyps else (len(h.face_scores) for h in hyps)
        for hi, count in enumerate(counts):
            if count != num_frames:
                raise ValueError(f"{owner}: hypothesis {hi} has {count} frames, not {count_name}{num_frames}")
        if hyps is not hypotheses:
            shape = (len(hyps), max(num_frames, 0))
            hyps.__dict__.update(face_array=_read_only(np.array([h.face_array for h in hyps]).reshape(shape)),
                                 box_array=_read_only(np.array([h.boxes.array for h in hyps]).reshape(*shape, 4)),
                                 blink_array=_read_only(np.array([h.blink_array for h in hyps]).reshape(shape)))
        return hyps

    @classmethod
    def from_arrays(cls, face, boxes, blink, intervals: Sequence[Sequence[BlinkInterval]]) -> "Hypotheses":
        """The hypotheses whose row h has face_scores face[h], boxes boxes[h], blink_scores blink[h] and
        blink_intervals intervals[h]: scores (H, T), boxes (H, T, 4), read-only afterwards, not copied if
        C-contiguous float64. The rules of InstancePrediction are checked once over all rows."""
        face, boxes, blink = (_read_only(np.ascontiguousarray(a, dtype=float)) for a in (face, boxes, blink))
        _check_predicted_frames(face, boxes, blink)
        memo, rows = {}, zip(face, face.tolist(), boxes, blink, blink.tolist(), intervals, strict=True)
        hyps = super().__new__(cls, [InstancePrediction._row(*row, face, memo, h) for h, row in enumerate(rows)])
        hyps.__dict__.update(face_array=face, box_array=boxes, blink_array=blink)
        return hyps

    def __reduce__(self):
        intervals = [hyp.blink_intervals for hyp in self]
        return Hypotheses.from_arrays, (self.face_array, self.box_array, self.blink_array, intervals)


@dataclass(frozen=True)
class VideoPrediction:
    """All hypotheses a detector produced for one video, each over its num_frames frames.

    `face_array`, `box_array` and `blink_array` are the stacked arrays of
    its Hypotheses; they are not fields, so equality, hash and repr see the
    hypotheses only.
    """

    video_id: str
    num_frames: int
    hypotheses: Hypotheses

    face_array = property(lambda self: self.hypotheses.face_array)
    box_array = property(lambda self: self.hypotheses.box_array)
    blink_array = property(lambda self: self.hypotheses.blink_array)

    def __post_init__(self):
        hyps = Hypotheses(self.hypotheses, self.num_frames, f"video {self.video_id!r}", "num_frames ")
        object.__setattr__(self, "hypotheses", hyps)

    @classmethod
    def from_arrays(cls, video_id: str, num_frames: int, face, boxes, blink,
                    intervals: Sequence[Sequence[BlinkInterval]]) -> "VideoPrediction":
        """The video of Hypotheses.from_arrays(face, boxes, blink, intervals)."""
        return cls(video_id, num_frames, Hypotheses.from_arrays(face, boxes, blink, intervals))


def check_tube_lengths(pred_frames: int, gt_frames: Iterable[int]) -> None:
    """ValueError "tube lengths differ: pred {pred_frames} vs gt {n}" names the first count n of gt_frames
    that differs: a prediction and the ground truths it is compared with cover the same frames."""
    for frames in gt_frames:
        if frames != pred_frames:
            raise ValueError(f"tube lengths differ: pred {pred_frames} vs gt {frames}")


def pair_videos(gts: Sequence[VideoAnnotation], preds: Sequence[VideoPrediction]) -> dict[str, VideoAnnotation]:
    """The ground truth of each video by id, once every prediction video pairs with one.

    ValueError names a video_id repeated within either list, a prediction
    video with no ground truth, or one whose num_frames differs from its
    ground truth's.
    """
    for name, videos in (("ground truth", gts), ("predictions", preds)):
        if len({video.video_id for video in videos}) != len(videos):
            raise ValueError(f"duplicate video_id in {name}")
    gt_map = {ann.video_id: ann for ann in gts}
    for vp in preds:
        if vp.video_id not in gt_map:
            raise ValueError(f"prediction references unknown video_id {vp.video_id!r}")
        if vp.num_frames != gt_map[vp.video_id].num_frames:
            raise ValueError(f"video {vp.video_id!r}: prediction has {vp.num_frames} frames, "
                             f"ground truth {gt_map[vp.video_id].num_frames}")
    return gt_map


def validate_annotation(ann: VideoAnnotation) -> list[str]:
    """Check every data-model invariant; return one message per violation.

    Violations are data, not failures: malformed annotations can be built
    and inspected, they just fail this check. Messages name the instance
    index, the frame or interval, and the violated rule.
    """
    violations: list[str] = []
    t_total = ann.num_frames

    if t_total < 1:
        violations.append(f"num_frames must be >= 1, got {t_total}")
    if not (ann.fps > 0):
        violations.append(f"fps must be > 0, got {ann.fps}")
    if ann.width <= 0 or ann.height <= 0:
        violations.append(f"width/height must be positive, got {ann.width}x{ann.height}")

    for i, track in enumerate(ann.instances):
        prefix = f"instances[{i}]"
        if len(track.face_presence) != t_total:
            violations.append(
                f"{prefix}: face_presence length {len(track.face_presence)} != num_frames {t_total}"
            )
        if len(track.boxes) != t_total:
            violations.append(
                f"{prefix}: boxes length {len(track.boxes)} != num_frames {t_total}"
            )

        if not _frames_valid(track):
            violations.extend(_frame_violations(prefix, track))

        prev: Optional[BlinkInterval] = None
        for k, blink in enumerate(track.blinks):
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


def _frames_valid(track: InstanceTrack) -> bool:
    """True when _frame_violations has nothing to report, from one vector check of the track.

    Flags must be 0 or 1; a present frame needs a finite box with x2 >= x1
    and y2 >= y1, an absent frame a NaN row. Like the frame walk, it checks
    only the frames both sequences hold.
    """
    rows = track.boxes.array[: len(track.face_presence)]
    flags = track.face_presence[: len(rows)]
    if flags.count(0) + flags.count(1) != len(flags):
        return False
    present = np.array(flags, dtype=bool)[:, None]
    sides = rows[:, 2:] - rows[:, :2]  # finite only where both corners are, NaN on a NaN row
    boxed = (sides >= 0.0) & (sides < math.inf)
    return (np.count_nonzero(boxed == present) == boxed.size
            and np.count_nonzero(np.isnan(rows) != present) == rows.size)


def _frame_violations(prefix: str, track: InstanceTrack) -> list[str]:
    """The per-frame messages of validate_annotation, frame by frame."""
    violations = []
    for t, (flag, box) in enumerate(zip(track.face_presence, track.boxes.array.tolist())):
        if flag not in (0, 1):
            violations.append(f"{prefix}.face_presence[{t}]: flag must be 0 or 1, got {flag!r}")
            continue
        x1, y1, x2, y2 = box
        finite = math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2) and math.isfinite(y2)
        given = finite or not all(map(math.isnan, box))  # a NaN row is no box
        if flag == 1 and not given:
            violations.append(f"{prefix}.boxes[{t}]: box/presence mismatch (presence=1, box absent)")
        if flag == 0 and given:
            violations.append(f"{prefix}.boxes[{t}]: box/presence mismatch (presence=0, box given)")
        if given:
            if not finite:
                violations.append(f"{prefix}.boxes[{t}]: non-finite coordinate")
            elif x2 < x1 or y2 < y1:
                violations.append(f"{prefix}.boxes[{t}]: corner ordering violated (need x2>=x1 and y2>=y1)")
    return violations


def interval_frame_labels(intervals: Iterable[BlinkInterval], num_frames: int) -> list[int]:
    """Binary per-frame labels: 1 iff the frame lies inside any interval."""
    labels = np.zeros(num_frames, dtype=int)
    for interval in intervals:
        labels[max(0, interval.start) : max(0, interval.end + 1)] = 1
    return labels.tolist()


def blink_frame_labels(track: InstanceTrack, num_frames: int) -> list[int]:
    """Per-frame blink labels of a ground-truth track (inverse of interval merging)."""
    return interval_frame_labels(track.blinks, num_frames)
