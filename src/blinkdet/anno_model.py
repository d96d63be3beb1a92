"""In-memory data model for multi-person eyeblink ground truth and predictions.

Ground truth describes each person in an untrimmed video as a face tracklet
(per-frame presence flags and boxes) plus a list of eyeblink intervals with
inclusive frame endpoints. Predictions carry per-frame face scores, boxes,
and frame-level blink scores alongside merged blink intervals.

Boxes are corner-form (x1, y1, x2, y2). File readers convert absolute pixel
coordinates to normalized [0, 1] values, so everything in memory is
resolution independent. The per-frame boxes of a track are one read-only
(T, 4) float64 array (`Boxes`); a `FrameBox` is built only when a single
frame is read. All types are immutable after construction and every
operation here is a pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

_NO_BOX_ROW = (math.nan,) * 4


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
        array = array.reshape(-1, 4)
        array.setflags(write=False)
        self.array = array

    @property
    def given(self) -> np.ndarray:
        """(T,) bool, True on the frames that carry a box."""
        return ~np.isnan(self.array).all(axis=1)

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


def present_corners(boxes: np.ndarray, present=True) -> np.ndarray:
    """Corners (..., 4) of the rows that are present and hold a box; zeros, which meet nothing, elsewhere."""
    return np.where((present & ~np.isnan(boxes).all(axis=-1))[..., None], boxes, 0.0)


def frame_targets(tracks: Sequence[InstanceTrack]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, G) presence and (T, G, 4) present corners of G tracks, frames on axis 0.

    A frame is present where its flag is nonzero; its corners count where it
    is also boxed (present_corners).
    """
    presence = np.array([track.face_presence for track in tracks], dtype=bool).T
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


@dataclass(frozen=True)
class InstancePrediction:
    """One hypothesis: per-frame face scores/boxes and blink scores/intervals.

    Unlike ground truth there is a box on every frame; absence is expressed
    through a low face score (and usually a zero-area box). `face_array`
    and `blink_array` are the scores as read-only float64 arrays, views of
    the one array the [0, 1] check builds; they are not fields, so
    equality, hash and repr see only the tuples.
    """

    face_scores: tuple[float, ...]
    boxes: Boxes
    blink_scores: tuple[float, ...]
    blink_intervals: tuple[BlinkInterval, ...]

    def __post_init__(self):
        object.__setattr__(self, "face_scores", tuple(map(float, self.face_scores)))
        object.__setattr__(self, "boxes", Boxes(self.boxes))
        object.__setattr__(self, "blink_scores", tuple(map(float, self.blink_scores)))
        object.__setattr__(self, "blink_intervals", tuple(self.blink_intervals))
        if np.isnan(self.boxes.array).any():
            raise ValueError("prediction boxes must not hold NaN: every frame has a box")
        scores = np.fromiter(self.face_scores + self.blink_scores, float)
        if not ((scores >= 0.0) & (scores <= 1.0)).all():  # NaN fails too
            raise ValueError("prediction face and blink scores must lie in [0, 1]")
        scores.setflags(write=False)
        split = len(self.face_scores)
        object.__setattr__(self, "face_array", scores[:split])
        object.__setattr__(self, "blink_array", scores[split:])

    @property
    def confidence(self) -> float:
        """Instance ranking score: arithmetic mean of the per-frame face scores."""
        if not self.face_scores:
            return 0.0
        return sum(self.face_scores) / len(self.face_scores)


@dataclass(frozen=True)
class VideoPrediction:
    """All hypotheses a detector produced for one video."""

    video_id: str
    num_frames: int
    hypotheses: tuple[InstancePrediction, ...]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))


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
    labels = [0] * num_frames
    for interval in intervals:
        for t in range(max(0, interval.start), min(num_frames - 1, interval.end) + 1):
            labels[t] = 1
    return labels


def blink_frame_labels(track: InstanceTrack, num_frames: int) -> list[int]:
    """Per-frame blink labels of a ground-truth track (inverse of interval merging)."""
    return interval_frame_labels(track.blinks, num_frames)
