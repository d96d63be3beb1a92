"""Desk-scale forward pass of the query-based face and blink detector.

N spatio-temporal instance queries (each a T x C embedding paired with a
proposal tube of T normalized boxes, both tiled from learned per-query
seeds) are refined over M iterations. Each iteration runs:

  1. query interaction - self-attention across the N queries within each
     frame, then self-attention across the T frames within each query;
  2. video interaction - RoI-align the proposal tube on the video feature
     and filter it with two dynamic 1x1 convolutions whose weights are
     generated from the query embedding, then project back to C channels;
  3. shared heads - two-layer MLPs emitting per-frame face scores, face
     boxes (clamped, corner-ordered, and used as the next proposal tube),
     and blink scores.

Everything is float64 and a pure function of (feature, params): identical
inputs give bit-identical outputs. There are no positional encodings, so
permuting the query seeds permutes all outputs identically.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import struct
import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

CONTAINER_MAGIC = b"BLKPACK1"
CONTAINER_VERSION = 1

# The detector sizes: ModelParams attributes, weights-header keys, Config fields.
SIZE_FIELDS = ("num_queries", "num_iterations", "channels", "num_heads", "roi_grid")


def check_channel_split(channels: int, num_heads: int) -> None:
    """Raise ValueError unless C splits into num_heads attention heads and a C/4 filter width."""
    if num_heads < 1 or channels % num_heads:
        raise ValueError(f"channels {channels} must be divisible by num_heads {num_heads}")
    if channels % 4:
        raise ValueError(f"channels {channels} must be divisible by 4")


def _ordered_unit_boxes(boxes: np.ndarray) -> bool:
    """True when every (..., 4) row is a corner-ordered box inside [0, 1]^2 (NaN is not)."""
    return bool(
        np.all((boxes >= 0.0) & (boxes <= 1.0))
        and np.all(boxes[..., 2] >= boxes[..., 0])
        and np.all(boxes[..., 3] >= boxes[..., 1])
    )


@dataclass(frozen=True)
class VideoFeature:
    """Backbone feature volume of shape (T, C, H, W)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 4:
            raise ValueError(f"feature must have shape (T, C, H, W), got {arr.shape}")
        if 0 in arr.shape:
            raise ValueError(f"feature shape {arr.shape} has an empty axis")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature entries must be finite")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class QueryState:
    """Current query embeddings (N, T, C) and proposal tubes (N, T, 4)."""

    queries: np.ndarray
    proposals: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=float)
        p = np.asarray(self.proposals, dtype=float)
        if q.ndim != 3 or p.shape != (q.shape[0], q.shape[1], 4):
            raise ValueError(f"inconsistent state shapes {q.shape} / {p.shape}")
        if not _ordered_unit_boxes(p):
            raise ValueError("proposals must be ordered corner boxes inside [0, 1]^2")
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "proposals", p)


@dataclass(frozen=True)
class AttentionParams:
    """Projection weights of one multi-head self-attention layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


@dataclass(frozen=True)
class MlpParams:
    """Two-layer MLP: relu(x @ w1 + b1) @ w2 + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class StageParams:
    """Weights of one refinement iteration."""

    spatial_attn: AttentionParams
    temporal_attn: AttentionParams
    filter_gen: np.ndarray  # (C, 2 * C * hidden), bias-free by design
    update_w: np.ndarray  # (S * S * C, C)
    update_b: np.ndarray  # (C,)
    face_score_head: MlpParams
    face_box_head: MlpParams
    blink_head: MlpParams


@dataclass(frozen=True)
class ModelParams:
    """All learned arrays plus the hyperparameters they were shaped for."""

    num_queries: int
    num_iterations: int
    channels: int
    num_heads: int
    roi_grid: int
    query_seed: np.ndarray  # (N, C)
    proposal_seed: np.ndarray  # (N, 4), valid normalized boxes
    stages: tuple[StageParams, ...]

    def __post_init__(self):
        check_channel_split(self.channels, self.num_heads)
        if len(self.stages) != self.num_iterations:
            raise ValueError(
                f"expected {self.num_iterations} stages, got {len(self.stages)}"
            )
        arrays = params_to_arrays(self)
        shapes = _weight_shapes(self.num_queries, self.num_iterations, self.channels, self.roi_grid)
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"array {name!r} has shape {arrays[name].shape}, expected {shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"array {name!r} holds a non-finite value")
        if not _ordered_unit_boxes(self.proposal_seed):
            raise ValueError("proposal_seed must hold ordered corner boxes inside [0, 1]^2")

    @property
    def hidden_channels(self) -> int:
        return self.channels // 4


@dataclass(frozen=True)
class StageOutput:
    """Per-iteration head outputs: face scores (N, T), boxes (N, T, 4), blink scores (N, T)."""

    face_scores: np.ndarray
    boxes: np.ndarray
    blink_scores: np.ndarray


@dataclass(frozen=True)
class ModelOutput:
    """Head outputs of every iteration; the last one is the prediction."""

    stages: tuple[StageOutput, ...]

    @property
    def final(self) -> StageOutput:
        return self.stages[-1]


def init_queries(params: ModelParams, num_frames: int) -> QueryState:
    """Tile the per-query seeds along the temporal axis: q[i, t] = seed q[i]."""
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    queries = np.repeat(params.query_seed[:, None, :], num_frames, axis=1)
    proposals = np.repeat(params.proposal_seed[:, None, :], num_frames, axis=1)
    return QueryState(queries, proposals)


def mhsa(
    x: np.ndarray,
    attn: AttentionParams,
    num_heads: int,
    return_weights: bool = False,
):
    """Multi-head scaled dot-product self-attention with a residual connection.

    x is (L, C). Per head: softmax(Q K^T / sqrt(C / num_heads)) V; heads are
    concatenated, output-projected, and added back onto x. No positional
    encoding, so the map is equivariant to permutations of the L inputs.
    """
    x = np.asarray(x, dtype=float)
    length, channels = x.shape
    if channels % num_heads:
        raise ValueError(f"channels {channels} not divisible by num_heads {num_heads}")
    dk = channels // num_heads

    q = (x @ attn.wq + attn.bq).reshape(length, num_heads, dk).transpose(1, 0, 2)
    k = (x @ attn.wk + attn.bk).reshape(length, num_heads, dk).transpose(1, 0, 2)
    v = (x @ attn.wv + attn.bv).reshape(length, num_heads, dk).transpose(1, 0, 2)

    scores = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
    scores = scores - scores.max(axis=-1, keepdims=True)  # stabilized softmax
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=-1, keepdims=True)

    context = (weights @ v).transpose(1, 0, 2).reshape(length, channels)
    out = x + (context @ attn.wo + attn.bo)
    if return_weights:
        return out, weights
    return out


def query_interaction(qs: QueryState, stage: StageParams, num_heads: int) -> QueryState:
    """Self-attention across queries per frame, then across frames per query."""
    queries = qs.queries
    num_queries, num_frames, _ = queries.shape

    spatial = np.empty_like(queries)
    for t in range(num_frames):
        spatial[:, t, :] = mhsa(queries[:, t, :], stage.spatial_attn, num_heads)

    temporal = np.empty_like(spatial)
    for i in range(num_queries):
        temporal[i] = mhsa(spatial[i], stage.temporal_attn, num_heads)

    return QueryState(temporal, qs.proposals)


def _interp_weights(lo: np.ndarray, hi: np.ndarray, size: int, grid: int) -> np.ndarray:
    """2-tap bilinear weights of the S bin centres along one axis: (n, S, size).

    Bin centres run from lo to hi (in cells); cell k is treated as the value at
    k + 0.5, and samples are edge-clamped. A sample clamped to the last cell
    has weight 0 on the cell after it, which does not exist, so that tap drops.
    """
    steps = (np.arange(grid) + 0.5) / grid
    pos = np.clip(lo[:, None] + steps * (hi - lo)[:, None] - 0.5, 0.0, size - 1.0)[..., None]
    i0 = np.floor(pos)
    frac = pos - i0
    cells = np.arange(size)
    return (1.0 - frac) * (cells == i0) + frac * (cells == i0 + 1)


def _roi_align_boxes(fmap: np.ndarray, boxes: np.ndarray, grid: int) -> np.ndarray:
    """Bilinear RoI pooling of one frame for many boxes: (n, 4) -> (n, S, S, C).

    Each bin takes one bilinear sample at its center. Feature cell (r, c) is
    treated as the value at continuous coordinates (c + 0.5, r + 0.5);
    samples are edge-clamped. The interpolation is separable, so it runs as
    one matmul over rows and one batched matmul over columns.
    """
    channels, fh, fw = fmap.shape
    boxes = np.asarray(boxes, dtype=float)
    n = len(boxes)
    wx = _interp_weights(boxes[:, 0] * fw, boxes[:, 2] * fw, fw, grid)  # (n, S, W)
    wy = _interp_weights(boxes[:, 1] * fh, boxes[:, 3] * fh, fh, grid)  # (n, S, H)
    rows = wy.reshape(n * grid, fh) @ fmap.transpose(1, 2, 0).reshape(fh, fw * channels)
    return wx[:, None] @ rows.reshape(n, grid, fw, channels)


def _usable_workers() -> int:
    """Threads for video_interaction: usable CPUs // BLAS threads, at least 1.

    BLAS threads is the first of OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
    OMP_NUM_THREADS set to a positive integer. With none set, BLAS is taken to
    use every CPU already, so one worker avoids oversubscribing the cores.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for key in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(key, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cpus // blas)


_WORKERS = _usable_workers()


def _video_block(
    queries: np.ndarray, proposals: np.ndarray, frames: np.ndarray, stage: StageParams, roi_grid: int, out: np.ndarray
) -> None:
    """video_interaction of a block of n queries over all T frames, written into out (n, T, C)."""
    num_queries, num_frames, channels = queries.shape
    hidden = channels // 4
    bins = roi_grid * roi_grid
    for t in range(num_frames):
        roi = _roi_align_boxes(frames[t], proposals[:, t, :], roi_grid)
        x = roi.reshape(num_queries, bins, channels)
        filters = queries[:, t, :] @ stage.filter_gen  # (n, 2 * C * hidden)
        m1 = filters[:, : channels * hidden].reshape(num_queries, channels, hidden)
        m2 = filters[:, channels * hidden :].reshape(num_queries, hidden, channels)
        h1 = np.maximum(x @ m1, 0.0)
        h2 = h1 @ m2
        out[:, t, :] = h2.reshape(num_queries, bins * channels) @ stage.update_w + stage.update_b


def video_interaction(
    qs: QueryState, feature: VideoFeature, stage: StageParams, roi_grid: int
) -> np.ndarray:
    """Update query features from the video: RoI + dynamic filtering; returns (N, T, C).

    Per (query, frame): two filter banks (C -> C/4 -> C) are generated from
    the query embedding by a bias-free linear map and applied to the RoI
    feature as consecutive 1x1 convolutions with a ReLU between them; the
    result is flattened and linearly projected back to C channels.

    Every output row depends on its own query alone, so the N queries are
    split into min(workers, N) contiguous blocks. The calling thread runs the
    first block and a thread pool made for this call the others, each in a
    copy of the caller's context so that an np.errstate set by the caller
    holds there too. The call returns, or raises the first block's error,
    only after every block has finished and the pool's threads have exited.
    """
    from concurrent.futures import ThreadPoolExecutor

    queries = qs.queries
    num_queries = len(queries)
    out = np.empty(queries.shape)
    workers = min(_WORKERS, num_queries)
    bounds = [i * num_queries // workers for i in range(workers + 1)]

    def run(lo: int, hi: int) -> None:
        _video_block(queries[lo:hi], qs.proposals[lo:hi], feature.values, stage, roi_grid, out[lo:hi])

    with ThreadPoolExecutor(max(1, workers - 1), thread_name_prefix="video_interaction") as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        run(bounds[0], bounds[1])
    for future in futures:
        future.result()
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _mlp(x: np.ndarray, p: MlpParams) -> np.ndarray:
    return np.maximum(x @ p.w1 + p.b1, 0.0) @ p.w2 + p.b2


def _sanitize_boxes(raw: np.ndarray) -> np.ndarray:
    """Clamp raw box outputs to [0, 1] and enforce corner ordering."""
    clipped = np.clip(raw, 0.0, 1.0)
    boxes = np.empty_like(clipped)
    boxes[..., 0] = np.minimum(clipped[..., 0], clipped[..., 2])
    boxes[..., 2] = np.maximum(clipped[..., 0], clipped[..., 2])
    boxes[..., 1] = np.minimum(clipped[..., 1], clipped[..., 3])
    boxes[..., 3] = np.maximum(clipped[..., 1], clipped[..., 3])
    return boxes


def heads_forward(q_updated: np.ndarray, stage: StageParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared prediction heads on the updated query features (N, T, C).

    Returns face scores (N, T) in (0, 1), valid normalized boxes (N, T, 4)
    that also renew the proposal tube, and blink scores (N, T) in (0, 1).
    """
    num_queries, num_frames, channels = q_updated.shape
    flat = q_updated.reshape(num_queries * num_frames, channels)
    face = _sigmoid(_mlp(flat, stage.face_score_head)).reshape(num_queries, num_frames)
    blink = _sigmoid(_mlp(flat, stage.blink_head)).reshape(num_queries, num_frames)
    raw_boxes = _mlp(flat, stage.face_box_head).reshape(num_queries, num_frames, 4)
    boxes = _sanitize_boxes(raw_boxes)
    return face, boxes, blink


def detector_forward(feature: VideoFeature, params: ModelParams) -> ModelOutput:
    """Full forward pass: init queries, M refinement iterations, per-iteration outputs."""
    num_frames, channels = feature.values.shape[:2]
    if channels != params.channels:
        raise ValueError(
            f"feature has {channels} channels but params expect {params.channels}"
        )
    qs = init_queries(params, num_frames)
    stage_outputs = []
    for stage in params.stages:
        qs = query_interaction(qs, stage, params.num_heads)
        q_updated = video_interaction(qs, feature, stage, params.roi_grid)
        face, boxes, blink = heads_forward(q_updated, stage)
        stage_outputs.append(StageOutput(face, boxes, blink))
        qs = QueryState(q_updated, boxes)
    return ModelOutput(tuple(stage_outputs))


def _weight_shapes(
    num_queries: int, num_iterations: int, channels: int, roi_grid: int
) -> dict[str, tuple[int, ...]]:
    """Container name -> shape of every learned array: the one description of the weights.

    The order is the container order and the draw order of random_params:
    the two seeds, then per stage the StageParams fields, each attention
    layer and MLP head expanded in its own field order.
    """
    c = channels
    attention = {"wq": (c, c), "wk": (c, c), "wv": (c, c), "wo": (c, c),
                 "bq": (c,), "bk": (c,), "bv": (c,), "bo": (c,)}

    def mlp(out_dim: int) -> dict[str, tuple[int, ...]]:
        return {"w1": (c, c), "b1": (c,), "w2": (c, out_dim), "b2": (out_dim,)}

    def block(name: str, entries: dict) -> dict:
        return {f"{name}.{key}": shape for key, shape in entries.items()}

    stage = {
        **block("spatial_attn", attention),
        **block("temporal_attn", attention),
        "filter_gen": (c, 2 * c * (c // 4)),
        "update_w": (roi_grid * roi_grid * c, c),
        "update_b": (c,),
        **block("face_score_head", mlp(1)),
        **block("face_box_head", mlp(4)),
        **block("blink_head", mlp(1)),
    }
    shapes = {"query_seed": (num_queries, c), "proposal_seed": (num_queries, 4)}
    for si in range(num_iterations):
        shapes.update(block(f"stage{si}", stage))
    return shapes


def random_params(
    num_queries: int, num_iterations: int, channels: int, num_heads: int, roi_grid: int, seed: int
) -> ModelParams:
    """Deterministic seeded parameters: every weight uniform in [-0.05, 0.05].

    Proposal seeds are a centered box jittered by the same uniform noise and
    then sanitized, so they start as valid normalized boxes.
    """
    rng = np.random.default_rng(seed)
    shapes = _weight_shapes(num_queries, num_iterations, channels, roi_grid)
    arrays = {name: rng.uniform(-0.05, 0.05, shape) for name, shape in shapes.items()}
    arrays["proposal_seed"] = _sanitize_boxes(np.array([0.25, 0.25, 0.75, 0.75]) + arrays["proposal_seed"])
    sizes = (num_queries, num_iterations, channels, num_heads, roi_grid)
    return params_from_arrays(arrays, dict(zip(SIZE_FIELDS, sizes)))


# ---------------------------------------------------------------------------
# Binary container: named float64 arrays with a JSON header.
# Layout: 8-byte magic, uint32 LE header length, UTF-8 JSON header, payload of
# row-major little-endian float64 arrays at the offsets listed in the header.
# ---------------------------------------------------------------------------


def write_container(path, arrays: dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
    """Write named arrays to the self-describing binary container."""
    entries = []
    chunks = []
    offset = 0
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        chunks.append(data.tobytes())
        offset += data.nbytes
    header = {"version": CONTAINER_VERSION, "meta": meta or {}, "arrays": entries}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for chunk in chunks:
            fh.write(chunk)


def read_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back; returns ({name: array}, meta).

    The payload is read once into one 8-byte-aligned, writable float64
    buffer, and every array is a view of it, so an array's offset must be a
    multiple of 8. A truncated or inconsistent file raises ValueError naming
    the path.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(CONTAINER_MAGIC) + 4)
        if len(head) < len(CONTAINER_MAGIC) + 4:
            raise ValueError(f"{path}: truncated container ({size} bytes)")
        if head[: len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
            raise ValueError(f"{path}: not an array container (bad magic {head[:len(CONTAINER_MAGIC)]!r})")
        start = len(head) + struct.unpack_from("<I", head, len(CONTAINER_MAGIC))[0]
        try:
            if start > size:
                raise ValueError(f"header runs past the end of the {size}-byte file")
            header = json.loads(fh.read(start - len(head)).decode("utf-8"))
            if header.get("version") != CONTAINER_VERSION:
                raise ValueError(f"unsupported container version {header.get('version')!r}")
            payload = size - start
            buffer = np.empty((payload + 7) // 8, "<f8")
            read = fh.readinto(memoryview(buffer).cast("B")[:payload])
            if read != payload:
                raise ValueError(f"read {read} of the {payload} payload bytes")
            arrays = {}
            for entry in header["arrays"]:
                shape, offset = tuple(entry["shape"]), entry["offset"]
                count = math.prod(shape)
                if min(shape, default=0) < 0 or offset < 0 or offset + 8 * count > payload:
                    raise ValueError(f"array {entry['name']!r} of shape {shape} runs past the payload")
                if offset % 8:
                    raise ValueError(f"array {entry['name']!r} has offset {offset}, not a multiple of 8")
                arrays[entry["name"]] = buffer[offset // 8 : offset // 8 + count].reshape(shape)
            meta = header.get("meta", {})
            if not isinstance(meta, dict):
                raise ValueError(f"meta {meta!r} is not an object")
        # ValueError covers JSON and UTF-8; RecursionError is a header nested too deep to decode
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed container: {exc!r}") from exc
    return arrays, meta


def _array_fields(obj, prefix: str = "") -> dict[str, np.ndarray]:
    """The array fields of a params dataclass under their container names, in field order."""
    arrays = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            arrays.update(_array_fields(value, f"{prefix}{f.name}."))
        elif isinstance(value, np.ndarray):
            arrays[prefix + f.name] = value
    return arrays


@functools.cache
def _field_types(cls) -> dict[str, type]:
    """Field name -> resolved type of a dataclass (its annotations are strings)."""
    return typing.get_type_hints(cls)


def _from_fields(cls, arrays: dict[str, np.ndarray], prefix: str):
    """Build a params dataclass from the arrays named after its (nested) fields."""
    return cls(**{
        name: _from_fields(kind, arrays, f"{prefix}{name}.") if is_dataclass(kind) else arrays[prefix + name]
        for name, kind in _field_types(cls).items()
    })


def params_to_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Every learned array under its container name, in container order."""
    arrays = _array_fields(params)
    for si, stage in enumerate(params.stages):
        arrays.update(_array_fields(stage, f"stage{si}."))
    return arrays


def params_from_arrays(arrays: dict[str, np.ndarray], meta: dict) -> ModelParams:
    """Build params from named arrays and the sizes in meta; ModelParams checks every shape.

    Each size must be an integer of at least 1 (a bool is not), and every
    array must belong to the table those sizes imply.
    """
    sizes = {name: meta.get(name) for name in SIZE_FIELDS}
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"header size {name} must be an integer >= 1, got {value!r}")
    shapes = _weight_shapes(sizes["num_queries"], sizes["num_iterations"], sizes["channels"], sizes["roi_grid"])
    extra = [name for name in arrays if name not in shapes]
    if extra:
        listed = ", ".join(map(repr, extra[:3])) + (", ..." if len(extra) > 3 else "")
        raise ValueError(
            f"{len(extra)} arrays are not in the weights table for num_iterations "
            f"{sizes['num_iterations']}: {listed}"
        )
    try:
        seeds = {name: arrays[name] for name in ("query_seed", "proposal_seed")}
        stages = tuple(
            _from_fields(StageParams, arrays, f"stage{si}.") for si in range(sizes["num_iterations"])
        )
    except KeyError as exc:
        raise ValueError(f"weights container missing array {exc.args[0]!r}") from None
    return ModelParams(**sizes, **seeds, stages=stages)


def save_params(path, params: ModelParams, seed: Optional[int] = None) -> None:
    """Write model weights to the binary container, hyperparameters in the header."""
    meta = {"kind": "weights", **{name: getattr(params, name) for name in SIZE_FIELDS}}
    if seed is not None:
        meta["seed"] = seed
    write_container(path, params_to_arrays(params), meta)


def load_params(path) -> ModelParams:
    """Load model weights; a missing or wrong-shaped array is a ValueError naming the path."""
    arrays, meta = read_container(path)
    if meta.get("kind") != "weights":
        raise ValueError(f"{path}: container is not a weights file (kind={meta.get('kind')!r})")
    try:
        return params_from_arrays(arrays, meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: inconsistent weights: {exc!r}") from exc
