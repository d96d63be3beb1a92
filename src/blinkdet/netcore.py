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

detector_forward runs each iteration as two fork/joins over the worker
threads (_run_blocks): the spatial attention split by frames, then one
tail split by queries, in which each block runs the temporal attention,
video interaction and heads of its own queries. Stage 0 starts from the
seeds, which are the same on every frame: its spatial attention runs on one
frame, and its filters and RoI weights are built once per block instead of
once per frame. The outputs are the bits of the stage-by-stage composition
init_queries -> query_interaction -> video_interaction -> heads_forward,
which runs on the calling thread alone: the single-thread reference.

Everything is float64 and a pure function of (feature, params): identical
inputs give bit-identical outputs, for any worker count. There are no
positional encodings, so permuting the query seeds permutes all outputs
identically.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import operator
import os
import struct
import typing
from dataclasses import dataclass, is_dataclass
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
        if 0 in q.shape:
            raise ValueError(f"query shape {q.shape} has an empty axis")
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

    x is (..., L, C), a stack of sequences attended over one by one (the same
    bits alone or stacked); the weights, if returned, are (..., num_heads, L, L).
    Per head: softmax(Q K^T / sqrt(C / num_heads)) V; heads are concatenated,
    output-projected, and added back onto x. No positional encoding, so the map
    is equivariant to permutations of the L inputs.
    """
    x = np.asarray(x, dtype=float)
    *batch, length, channels = x.shape
    if channels % num_heads:
        raise ValueError(f"channels {channels} not divisible by num_heads {num_heads}")
    dk = channels // num_heads
    rows = x.reshape(-1, channels)  # one projection matmul for the whole stack

    def heads(w: np.ndarray, b: np.ndarray) -> np.ndarray:  # (..., num_heads, L, dk)
        return (rows @ w + b).reshape(*batch, length, num_heads, dk).swapaxes(-2, -3)

    weights = heads(attn.wq, attn.bq) @ heads(attn.wk, attn.bk).swapaxes(-1, -2)  # Q and K are freed before V exists
    weights /= np.sqrt(dk)
    weights -= weights.max(axis=-1, keepdims=True)  # stabilized softmax, in place
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)

    context = (weights @ heads(attn.wv, attn.bv)).swapaxes(-2, -3).reshape(rows.shape)
    out = (context @ attn.wo).reshape(x.shape)
    out += attn.bo
    out += x  # the residual: y + x has the bits of x + y
    if return_weights:
        return out, weights
    return out


def _spatial_attention(queries: np.ndarray, stage: StageParams, num_heads: int) -> np.ndarray:
    """Self-attention across the N queries of each frame of (N, T, C): one mhsa call per block of frames."""
    out = np.empty(queries.shape)

    def run(lo: int, hi: int) -> None:
        out[:, lo:hi] = mhsa(queries[:, lo:hi].swapaxes(0, 1), stage.spatial_attn, num_heads).swapaxes(0, 1)

    _run_blocks(queries.shape[1], run)
    return out


def query_interaction(qs: QueryState, stage: StageParams, num_heads: int) -> QueryState:
    """Self-attention across queries per frame, then across frames per query: two mhsa calls."""
    spatial = mhsa(qs.queries.swapaxes(0, 1), stage.spatial_attn, num_heads).swapaxes(0, 1)
    return QueryState(mhsa(spatial, stage.temporal_attn, num_heads), qs.proposals)


def _interp_weights(lo: np.ndarray, hi: np.ndarray, size: int, grid: int) -> np.ndarray:
    """2-tap bilinear weights of the S bin centres along one axis: (..., S, size).

    Bin centres run from lo to hi (in cells, equal shapes); cell k is treated as
    the value at k + 0.5, and samples are edge-clamped. A sample clamped to the
    last cell has weight 0 on the cell after it, which does not exist. Each
    sample writes its two taps into a row of zeros.
    """
    steps = (np.arange(grid) + 0.5) / grid
    pos = np.clip(lo[..., None] + steps * (hi - lo)[..., None] - 0.5, 0.0, size - 1.0).ravel()
    i0 = np.floor(pos)
    frac = pos - i0
    samples, cell = np.arange(len(pos)), i0.astype(np.intp)
    weights = np.zeros((len(pos), size))
    weights[samples, cell] = 1.0 - frac
    inside = cell < size - 1
    weights[samples[inside], cell[inside] + 1] = frac[inside]
    return weights.reshape(*lo.shape, grid, size)


def _roi_align(fmap: np.ndarray, wx: np.ndarray, wy: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Bilinear RoI pooling of one frame (C, H, W) for n boxes, written into out (n, S, S, C).

    wx (n, S, W) and wy (n, S, H) are the boxes' _interp_weights: each bin takes
    one bilinear sample at its center. The interpolation is separable: one
    matmul over rows into rows (n * S, W * C), one batched matmul over columns.
    """
    channels, fh, fw = fmap.shape
    n, grid = wx.shape[:2]
    np.matmul(wy.reshape(n * grid, fh), fmap.transpose(1, 2, 0).reshape(fh, fw * channels), out=rows)
    np.matmul(wx[:, None], rows.reshape(n, grid, fw, channels), out=out)


def _usable_workers() -> int:
    """Threads for _run_blocks: usable CPUs // BLAS threads, at least 1.

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


def _run_blocks(total: int, run: typing.Callable[[int, int], None]) -> None:
    """Call run(lo, hi) on min(workers, total) contiguous blocks that cover range(total).

    The calling thread runs the first block and a thread pool made for this
    call the others, each in a copy of the caller's context so that an
    np.errstate set by the caller holds there too. The call returns, or raises
    the first block's error, only after every block has finished and the
    pool's threads have exited.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_WORKERS, total)
    bounds = [i * total // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(max(1, workers - 1), thread_name_prefix="netcore") as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])
        ]
        run(bounds[0], bounds[1])
    for future in futures:
        future.result()


def _video_block(
    queries: np.ndarray, proposals: np.ndarray, frames: np.ndarray, stage: StageParams, roi_grid: int, out: np.ndarray
) -> None:
    """video_interaction of a block of n queries over all T frames, written into out (n, T, C).

    A query (n, 1, C) or proposal (n, 1, 4) axis of one frame holds the same
    value on every frame: its filters or its RoI weights are then built once
    for the block instead of once per frame, with the same bits.
    """
    num_queries, _, channels = queries.shape
    num_frames, _, fh, fw = frames.shape
    hidden = channels // 4
    bins = roi_grid * roi_grid
    boxes = proposals.swapaxes(0, 1)  # (T or 1, n, 4), so that each frame's weights are contiguous
    wx = _interp_weights(boxes[..., 0] * fw, boxes[..., 2] * fw, fw, roi_grid)  # (T or 1, n, S, W)
    wy = _interp_weights(boxes[..., 1] * fh, boxes[..., 3] * fh, fh, roi_grid)  # (T or 1, n, S, H)
    rows = np.empty((num_queries * roi_grid, fw * channels))  # work arrays, written by every frame
    x = np.empty((num_queries, roi_grid, roi_grid, channels))
    h = x.reshape(num_queries, bins, channels)  # the RoI feature per bin, then h2 in its place
    filters = np.empty((num_queries, 2 * channels * hidden))
    h1 = np.empty((num_queries, bins, hidden))
    m1 = filters[:, : channels * hidden].reshape(num_queries, channels, hidden)
    m2 = filters[:, channels * hidden :].reshape(num_queries, hidden, channels)
    query_step, box_step = int(queries.shape[1] > 1), int(len(boxes) > 1)  # 0 keeps a one-frame axis on frame 0
    for t in range(num_frames):
        if query_step or t == 0:
            np.matmul(queries[:, t * query_step, :], stage.filter_gen, out=filters)
        _roi_align(frames[t], wx[t * box_step], wy[t * box_step], rows, x)
        np.matmul(h, m1, out=h1)
        np.maximum(h1, 0.0, out=h1)
        np.matmul(h1, m2, out=h)  # h2 overwrites the RoI feature, which h1 has used up
        np.matmul(h.reshape(num_queries, bins * channels), stage.update_w, out=out[:, t, :])
        out[:, t, :] += stage.update_b


def video_interaction(
    qs: QueryState, feature: VideoFeature, stage: StageParams, roi_grid: int
) -> np.ndarray:
    """Update query features from the video: RoI + dynamic filtering; returns (N, T, C).

    Per (query, frame): two filter banks (C -> C/4 -> C) are generated from
    the query embedding by a bias-free linear map and applied to the RoI
    feature as consecutive 1x1 convolutions with a ReLU between them; the
    result is flattened and linearly projected back to C channels.
    """
    out = np.empty(qs.queries.shape)
    _video_block(qs.queries, qs.proposals, feature.values, stage, roi_grid, out)
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
    first, second = clipped[..., :2], clipped[..., 2:]  # (x1, y1) and (x2, y2)
    return np.concatenate((np.minimum(first, second), np.maximum(first, second)), axis=-1)


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
    """Full forward pass: M refinement iterations from the seeds, per-iteration outputs.

    The outputs are the bits of init_queries, then per stage query_interaction,
    video_interaction and heads_forward, each stage run as two _run_blocks
    loops: the spatial attention split by frames, then one tail split by
    queries (the temporal attention, video interaction and heads of the
    block's own rows). Stage 0 starts from the seeds, the same on every frame,
    so its spatial attention runs on one frame and is tiled over T; the
    temporal attention of identical frames gives identical frames, so its
    filters and RoI weights are built once per block. A stage whose boxes
    hold NaN (an overflow that np.errstate does not raise) raises ValueError
    naming the stage.
    """
    frames = feature.values
    num_frames, channels = frames.shape[:2]
    if channels != params.channels:
        raise ValueError(f"feature channels {channels} != weights channels {params.channels}")
    shape = (params.num_queries, num_frames)
    queries, proposals = params.query_seed[:, None, :], params.proposal_seed[:, None, :]  # one frame for all
    stage_outputs = []
    for k, stage in enumerate(params.stages):
        frame_independent = queries.shape[1] == 1
        spatial = np.broadcast_to(_spatial_attention(queries, stage, params.num_heads), shape + (channels,))
        q_updated = np.empty(shape + (channels,))
        face, boxes, blink = np.empty(shape), np.empty(shape + (4,)), np.empty(shape)

        def tail(lo: int, hi: int) -> None:
            temporal = mhsa(spatial[lo:hi], stage.temporal_attn, params.num_heads)
            if frame_independent:
                temporal = temporal[:, :1]
            _video_block(temporal, proposals[lo:hi], frames, stage, params.roi_grid, q_updated[lo:hi])
            face[lo:hi], boxes[lo:hi], blink[lo:hi] = heads_forward(q_updated[lo:hi], stage)

        _run_blocks(params.num_queries, tail)
        if np.isnan(boxes).any():
            raise ValueError(f"stage {k} of the forward pass gave NaN boxes")
        stage_outputs.append(StageOutput(face, boxes, blink))
        queries, proposals = q_updated, boxes
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
    """Every learned array under its container name, in container order: the names _weight_shapes lists."""
    arrays = {}
    for name in _weight_shapes(params.num_queries, params.num_iterations, params.channels, params.roi_grid):
        stage, _, field = name.partition(".")  # "stage{si}.<field>[.<sub>]", or a seed's bare name
        owner = params.stages[int(stage.removeprefix("stage"))] if field else params
        arrays[name] = operator.attrgetter(field or name)(owner)
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
