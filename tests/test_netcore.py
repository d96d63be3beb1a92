import dataclasses
import json
import os
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from blinkdet import netcore
from blinkdet.netcore import (
    AttentionParams,
    MlpParams,
    ModelParams,
    QueryState,
    StageParams,
    VideoFeature,
    detector_forward,
    heads_forward,
    init_queries,
    load_params,
    mhsa,
    params_from_arrays,
    params_to_arrays,
    query_interaction,
    random_params,
    read_container,
    save_params,
    video_interaction,
    write_container,
)

from oracles import naive_roi, naive_video_interaction


def small_params(seed=0, num_queries=3, num_iterations=2, channels=8, num_heads=2, roi_grid=3):
    return random_params(
        num_queries=num_queries,
        num_iterations=num_iterations,
        channels=channels,
        num_heads=num_heads,
        roi_grid=roi_grid,
        seed=seed,
    )


def small_feature(rng, num_frames=4, channels=8, height=5, width=6):
    return VideoFeature(rng.uniform(-1.0, 1.0, (num_frames, channels, height, width)))


def roi_align_boxes(fmap, boxes, grid):
    """Pool every box of one frame (n, 4) -> (n, S, S, C) with the forward pass's RoI weights and kernel."""
    channels, fh, fw = fmap.shape
    wx = netcore._interp_weights(boxes[:, 0] * fw, boxes[:, 2] * fw, fw, grid)
    wy = netcore._interp_weights(boxes[:, 1] * fh, boxes[:, 3] * fh, fh, grid)
    out = np.empty((len(boxes), grid, grid, channels))
    netcore._roi_align(fmap, wx, wy, np.empty((len(boxes) * grid, fw * channels)), out)
    return out


def composed_forward(feature, params):
    """detector_forward spelled out: init_queries, then per stage query_interaction,
    video_interaction and heads_forward, with a QueryState between stages."""
    qs = init_queries(params, len(feature.values))
    stages = []
    for stage in params.stages:
        qs = query_interaction(qs, stage, params.num_heads)
        q_updated = video_interaction(qs, feature, stage, params.roi_grid)
        face, boxes, blink = heads_forward(q_updated, stage)
        stages.append((face, boxes, blink))
        qs = QueryState(q_updated, boxes)
    return stages


def zero_attention(attn):
    """Attention weights of zeros: mhsa then returns its input unchanged."""
    return AttentionParams(*(np.zeros_like(getattr(attn, f.name)) for f in dataclasses.fields(AttentionParams)))


def looped_query_interaction(queries, stage, num_heads):
    """query_interaction as one mhsa call per frame, then one per query; returns (spatial, temporal)."""
    spatial = np.empty_like(queries)
    for t in range(queries.shape[1]):
        spatial[:, t, :] = mhsa(queries[:, t, :], stage.spatial_attn, num_heads)
    temporal = np.empty_like(spatial)
    for i in range(len(queries)):
        temporal[i] = mhsa(spatial[i], stage.temporal_attn, num_heads)
    return spatial, temporal


class TestInitQueries:
    def test_temporal_tiling(self):
        params = small_params()
        qs = init_queries(params, 3)
        for t in range(3):
            assert np.array_equal(qs.queries[:, t, :], params.query_seed)
            assert np.array_equal(qs.proposals[:, t, :], params.proposal_seed)

    def test_single_frame(self):
        params = small_params()
        qs = init_queries(params, 1)
        assert qs.queries.shape == (3, 1, 8)

    def test_distinct_seeds_stay_distinct(self):
        params = small_params()
        qs = init_queries(params, 2)
        assert not np.array_equal(qs.queries[0], qs.queries[1])

    def test_invalid_frame_count(self):
        with pytest.raises(ValueError):
            init_queries(small_params(), 0)


class TestMhsa:
    def test_singleton_attention_weight_is_one(self):
        params = small_params(seed=1)
        attn = params.stages[0].spatial_attn
        x = np.random.default_rng(0).uniform(-1, 1, (1, 8))
        out, weights = mhsa(x, attn, 2, return_weights=True)
        assert np.allclose(weights, 1.0)
        v = x @ attn.wv + attn.bv
        expected = x + (v @ attn.wo + attn.bo)
        assert np.allclose(out, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        params = small_params(seed=2)
        x = np.random.default_rng(1).uniform(-2, 2, (7, 8))
        _, weights = mhsa(x, params.stages[0].temporal_attn, 2, return_weights=True)
        assert weights.shape == (2, 7, 7)  # (heads, L, L) on one sequence
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        params = small_params(seed=3)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (6, 8))
        perm = rng.permutation(6)
        out = mhsa(x, params.stages[0].spatial_attn, 2)
        out_perm = mhsa(x[perm], params.stages[0].spatial_attn, 2)
        assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_head_divisibility_enforced(self):
        params = small_params(seed=4)
        x = np.zeros((2, 8))
        with pytest.raises(ValueError):
            mhsa(x, params.stages[0].spatial_attn, 3)


class TestQueryInteraction:
    def test_single_query_single_frame_reduces_to_mhsa(self):
        params = small_params(seed=5, num_queries=1)
        stage = params.stages[0]
        qs = init_queries(params, 1)
        out = query_interaction(qs, stage, 2)
        step1 = mhsa(qs.queries[:, 0, :], stage.spatial_attn, 2)
        step2 = mhsa(step1, stage.temporal_attn, 2)
        assert np.allclose(out.queries[:, 0, :], step2, atol=1e-12)

    def test_query_permutation_equivariance(self):
        params = small_params(seed=6, num_queries=5)
        stage = params.stages[0]
        rng = np.random.default_rng(3)
        queries = rng.uniform(-1, 1, (5, 4, 8))
        proposals = np.tile(params.proposal_seed[:, None, :], (1, 4, 1))
        out = query_interaction(QueryState(queries, proposals), stage, 2)
        perm = rng.permutation(5)
        out_perm = query_interaction(QueryState(queries[perm], proposals[perm]), stage, 2)
        assert np.allclose(out_perm.queries, out.queries[perm], atol=1e-10)

    @pytest.mark.parametrize("shape", [(0, 4, 16), (3, 0, 16), (3, 4, 0)])
    def test_empty_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="empty axis"):
            QueryState(np.zeros(shape), np.zeros(shape[:2] + (4,)))

    def test_identical_queries_stay_identical_across_spatial_stage(self):
        params = small_params(seed=7, num_queries=4)
        stage = params.stages[0]
        one = np.random.default_rng(4).uniform(-1, 1, (1, 3, 8))
        queries = np.repeat(one, 4, axis=0)
        proposals = np.tile(np.array([0.2, 0.2, 0.8, 0.8]), (4, 3, 1))
        out = query_interaction(QueryState(queries, proposals), stage, 2)
        for i in range(1, 4):
            assert np.allclose(out.queries[i], out.queries[0], atol=1e-12)


class TestRoiAlign:
    # roi_align_boxes pools every box of one frame with the weights and kernel of _video_block
    def test_constant_feature(self):
        out = roi_align_boxes(np.full((3, 4, 4), 2.5), np.array([[0.1, 0.2, 0.8, 0.9], [0.0, 0.0, 0.3, 0.6]]), 3)
        assert out.shape == (2, 3, 3, 3)
        assert np.allclose(out, 2.5)

    def test_linear_ramp_in_x(self):
        # feature value at cell (r, c) is c, i.e. ramp(x) = x - 0.5 at x = c + 0.5
        width = 10
        fmap = np.tile(np.arange(width, dtype=float), (1, 6, 1))
        boxes = np.array([[0.2, 0.3, 0.7, 0.8], [0.0, 0.1, 0.4, 0.5]])
        grid = 4
        out = roi_align_boxes(fmap, boxes, grid)
        for (x1, _, x2, _), pooled in zip(boxes, out):
            for j in range(grid):
                x_center = (x1 + (j + 0.5) / grid * (x2 - x1)) * width
                expected = x_center - 0.5  # closed-form bilinear value on the ramp
                assert np.allclose(pooled[:, j, 0], expected, atol=1e-12)

    def test_box_at_single_cell_center(self):
        rng = np.random.default_rng(5)
        fmap = rng.uniform(0, 1, (2, 6, 6))
        # tiny boxes centered on cells (2, 3) and (4, 0): cell (r, c) is at x = (c + 0.5) / 6, y = (r + 0.5) / 6
        half = 1e-6
        centers = np.array([[3.5 / 6, 2.5 / 6], [0.5 / 6, 4.5 / 6]])
        out = roi_align_boxes(fmap, np.hstack([centers - half, centers + half]), 2)
        assert np.allclose(out[0], fmap[:, 2, 3], atol=1e-5)
        assert np.allclose(out[1], fmap[:, 4, 0], atol=1e-5)

    def test_edge_clamping_full_box(self):
        rng = np.random.default_rng(6)
        out = roi_align_boxes(rng.uniform(-1, 1, (2, 4, 4)), np.array([[0.0, 0.0, 1.0, 1.0]]), 5)
        assert np.all(np.isfinite(out))

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(12)
        fmap = rng.uniform(-1, 1, (2, 3, 5, 6))
        corners = np.sort(rng.uniform(0, 1, (6, 2, 2)), axis=1).reshape(6, 4)
        boxes = np.vstack([
            corners,
            [0.3, 0.4, 1.0, 1.0],  # x2 = y2 = 1 clamps the sample to the last cell
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ])
        for frame in range(2):
            for grid in (1, 3, 4):
                out = roi_align_boxes(fmap[frame], boxes, grid)
                expected = np.stack([naive_roi(fmap[frame], box, grid) for box in boxes])
                assert np.max(np.abs(out - expected)) < 1e-12


class TestVideoInteraction:
    def test_zero_queries_give_projection_bias(self):
        params = small_params(seed=8)
        stage = params.stages[0]
        rng = np.random.default_rng(7)
        feature = small_feature(rng)
        queries = np.zeros((3, 4, 8))
        proposals = np.tile(params.proposal_seed[:, None, :], (1, 4, 1))
        out = video_interaction(QueryState(queries, proposals), feature, stage, 3)
        for i in range(3):
            for t in range(4):
                assert np.allclose(out[i, t], stage.update_b, atol=1e-12)

    def test_output_shape(self):
        params = small_params(seed=9, num_queries=4)
        rng = np.random.default_rng(8)
        feature = small_feature(rng, num_frames=5)
        qs = init_queries(params, 5)
        out = video_interaction(qs, feature, params.stages[0], 3)
        assert out.shape == (4, 5, 8)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            params = small_params(seed=trial + 10)
            stage = params.stages[0]
            feature = small_feature(rng)
            queries = rng.uniform(-1, 1, (3, 4, 8))
            proposals = np.clip(rng.uniform(0.0, 0.45, (3, 4, 4)), 0, 1)
            proposals[..., 2:] = proposals[..., :2] + rng.uniform(0.1, 0.5, (3, 4, 2))
            proposals = np.clip(proposals, 0.0, 1.0)
            proposals[trial % 3, :, 2:] = 1.0  # boxes reaching the right and bottom edge
            qs = QueryState(queries, proposals)
            fast = video_interaction(qs, feature, stage, 3)
            slow = naive_video_interaction(queries, proposals, feature.values, stage, 3)
            assert np.max(np.abs(fast - slow)) < 1e-9


# (num_queries, channels, num_heads, roi_grid, num_frames): the default config, and one whose
# N = 7 no worker count above 1 divides
BLOCK_CONFIGS = {"default": (50, 64, 8, 7, 36), "uneven": (7, 16, 4, 3, 5)}

# per loop split by _run_blocks: the function each block calls, and a call of the loop
BLOCK_LOOPS = {
    "video": ("_video_block", lambda params, qs, feature: video_interaction(qs, feature, params.stages[0], params.roi_grid)),
    "query": ("mhsa", lambda params, qs, feature: query_interaction(qs, params.stages[0], params.num_heads)),
}


@pytest.fixture(scope="module")
def one_worker_outputs():
    """Per config: the inputs, and video_interaction, query_interaction and detector_forward run on one worker."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netcore, "_WORKERS", 1)
        for name, (nq, c, heads, grid, frames) in BLOCK_CONFIGS.items():
            rng = np.random.default_rng(nq)
            params = random_params(nq, 4, c, heads, grid, seed=nq)
            feature = VideoFeature(rng.normal(size=(frames, c, 12, 20)))
            corners = np.sort(rng.uniform(0.0, 1.0, (nq, frames, 2, 2)), axis=2)  # (x1, y1) <= (x2, y2)
            qs = QueryState(rng.normal(size=(nq, frames, c)), corners.reshape(nq, frames, 4))
            results[name] = (params, feature, qs, video_interaction(qs, feature, params.stages[0], grid),
                             query_interaction(qs, params.stages[0], heads), detector_forward(feature, params))
    return results


class TestQueryBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("config", sorted(BLOCK_CONFIGS))
    def test_split_is_bit_identical(self, monkeypatch, one_worker_outputs, config, workers):
        params, feature, qs, serial_video, serial_query, serial = one_worker_outputs[config]
        monkeypatch.setattr(netcore, "_WORKERS", workers)
        assert np.array_equal(video_interaction(qs, feature, params.stages[0], params.roi_grid), serial_video)
        assert np.array_equal(query_interaction(qs, params.stages[0], params.num_heads).queries, serial_query.queries)
        out = detector_forward(feature, params)
        for got, want in zip(out.stages, serial.stages, strict=True):
            assert np.array_equal(got.face_scores, want.face_scores)
            assert np.array_equal(got.boxes, want.boxes)
            assert np.array_equal(got.blink_scores, want.blink_scores)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("config", sorted(BLOCK_CONFIGS))
    def test_forward_equals_the_stage_composition(self, monkeypatch, one_worker_outputs, config, workers):
        params, feature, _, _, _, _ = one_worker_outputs[config]
        monkeypatch.setattr(netcore, "_WORKERS", workers)
        out = detector_forward(feature, params)
        for got, want in zip(out.stages, composed_forward(feature, params), strict=True):
            assert np.array_equal(got.face_scores, want[0])
            assert np.array_equal(got.boxes, want[1])
            assert np.array_equal(got.blink_scores, want[2])

    @pytest.mark.parametrize("config", sorted(BLOCK_CONFIGS))
    def test_one_frame_axis_equals_the_tiled_frames(self, one_worker_outputs, config):
        # stage 0's block: queries and proposals given on one frame stand for every frame
        params, feature, qs, _, _, _ = one_worker_outputs[config]
        stage, frames = params.stages[0], feature.values
        queries, proposals = qs.queries[:, :1], qs.proposals[:, :1]
        tile = lambda a: np.repeat(a, len(frames), axis=1)
        want = np.empty(qs.queries.shape)
        netcore._video_block(tile(queries), tile(proposals), frames, stage, params.roi_grid, want)
        for q, p in [(queries, proposals), (queries, tile(proposals)), (tile(queries), proposals)]:
            got = np.empty(want.shape)
            netcore._video_block(q, p, frames, stage, params.roi_grid, got)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("config", sorted(BLOCK_CONFIGS))
    def test_batched_attention_equals_the_loop(self, one_worker_outputs, config):
        params, _, qs, _, _, _ = one_worker_outputs[config]
        heads = params.num_heads
        for stage in params.stages:
            spatial, temporal = looped_query_interaction(qs.queries, stage, heads)
            frames = qs.queries.swapaxes(0, 1)
            out, weights = mhsa(frames, stage.spatial_attn, heads, return_weights=True)
            assert np.array_equal(out.swapaxes(0, 1), spatial)
            assert weights.shape == (len(frames), heads, len(qs.queries), len(qs.queries))
            assert np.array_equal(weights[-1], mhsa(frames[-1], stage.spatial_attn, heads, return_weights=True)[1])
            assert np.array_equal(mhsa(spatial, stage.temporal_attn, heads), temporal)
            assert np.array_equal(query_interaction(qs, stage, heads).queries, temporal)

    @pytest.mark.parametrize(
        "loop, block",
        [pytest.param(loop, block, id=f"{prefix}{side}-block")
         for loop, prefix in [("video", ""), ("spatial", "spatial-"), ("temporal", "temporal-"),
                              ("forward-temporal", "forward-temporal-"), ("forward-video", "forward-video-"),
                              ("forward-heads", "forward-heads-")]
         for block, side in [(0, "caller"), (-1, "worker")]],
    )
    def test_overflow_in_any_block_raises_under_errstate(self, monkeypatch, loop, block):
        # np.errstate is a context variable: a block run in the pool without the caller's
        # context would only warn
        monkeypatch.setattr(netcore, "_WORKERS", 2)
        params = small_params(seed=24)
        stage = params.stages[0]
        feature = small_feature(np.random.default_rng(24))
        if loop.startswith("forward-"):
            self._check_forward_overflow(params, feature, loop.removeprefix("forward-"), block)
            return
        queries = np.tile(params.query_seed[:, None, :], (1, 4, 1))
        if loop == "spatial":
            queries[:, block] *= 1e200  # one frame: its query-query scores multiply two ~1e197 factors
        else:
            queries[block] *= 1e200  # one query: its dynamic filters, or its frame-frame scores, overflow
        if loop == "temporal":
            # zero spatial weights make the spatial attention the identity, so only the temporal block overflows
            stage = dataclasses.replace(stage, spatial_attn=zero_attention(stage.spatial_attn))
        qs = QueryState(queries, np.tile(params.proposal_seed[:, None, :], (1, 4, 1)))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            if loop == "video":
                video_interaction(qs, feature, stage, 3)
            else:
                query_interaction(qs, stage, 2)

    @staticmethod
    def _check_forward_overflow(params, feature, part, block):
        """detector_forward raises when one query block overflows in the part of the fused tail named."""
        stage = dataclasses.replace(params.stages[0], spatial_attn=zero_attention(params.stages[0].spatial_attn))
        scale = {"temporal": 1e200, "video": 1e200, "heads": 1e60}[part]
        if part != "temporal":  # an identity temporal attention hands the scaled query to the video interaction
            stage = dataclasses.replace(stage, temporal_attn=zero_attention(stage.temporal_attn))
        if part == "heads":  # a ~1e120 video output times ~1e200 weights overflows; ~0.1 outputs do not
            head = stage.face_score_head
            stage = dataclasses.replace(stage, face_score_head=dataclasses.replace(head, w1=head.w1 * 1e200))
        seed = params.query_seed.copy()
        seed[block] *= scale
        params = dataclasses.replace(params, query_seed=seed, stages=(stage, *params.stages[1:]))
        with np.errstate(over="raise"):
            # the composition raises in the named part alone
            qs = init_queries(params, len(feature.values))
            if part == "temporal":
                with pytest.raises(FloatingPointError):
                    query_interaction(qs, stage, params.num_heads)
            else:
                qs = query_interaction(qs, stage, params.num_heads)
                if part == "video":
                    with pytest.raises(FloatingPointError):
                        video_interaction(qs, feature, stage, params.roi_grid)
                else:
                    q_updated = video_interaction(qs, feature, stage, params.roi_grid)
                    with pytest.raises(FloatingPointError):
                        heads_forward(q_updated, stage)
            with pytest.raises(FloatingPointError):
                detector_forward(feature, params)

    def test_blocks_run_at_once_on_threads_that_exit(self, monkeypatch):
        # a barrier of one party per block passes only when every block runs at the same time
        params = small_params(seed=25, num_queries=6)
        qs = init_queries(params, 4)
        feature = small_feature(np.random.default_rng(25))
        for loop, (name, call) in BLOCK_LOOPS.items():
            block = getattr(netcore, name)
            splits = {"video": 1, "query": 2}[loop]  # query_interaction splits its frames, then its queries
            for workers in (2, 3):  # a pool sized on the first call would run the second call's blocks in turn
                barrier = threading.Barrier(workers, timeout=10)
                threads = []

                def wait_for_all(*args):
                    threads.append(threading.current_thread())
                    barrier.wait()
                    return block(*args)

                with monkeypatch.context() as patch:
                    patch.setattr(netcore, name, wait_for_all)
                    patch.setattr(netcore, "_WORKERS", workers)
                    call(params, qs, feature)
                assert len(threads) == splits * workers
                assert len(set(threads)) == splits * (workers - 1) + 1  # each split has its own pool threads
                assert not any(t.is_alive() for t in threads if t is not threading.current_thread())

    def test_caller_error_arrives_after_every_block(self, monkeypatch):
        params = small_params(seed=26, num_queries=6)
        qs = init_queries(params, 4)
        feature = small_feature(np.random.default_rng(26))
        caller = threading.current_thread()
        monkeypatch.setattr(netcore, "_WORKERS", 3)
        for name, call in BLOCK_LOOPS.values():
            finished = []

            def fail_in_caller(*args):
                if threading.current_thread() is caller:
                    raise RuntimeError("caller block")
                time.sleep(0.2)
                finished.append(threading.current_thread())
                return args[0]  # as mhsa, the input unchanged

            with monkeypatch.context() as patch:
                patch.setattr(netcore, name, fail_in_caller)
                with pytest.raises(RuntimeError, match="caller block"):
                    call(params, qs, feature)
            assert len(finished) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_the_parents_output(self):
        # the child runs the call that the parent ran before forking; SIGALRM ends a child that hangs
        probe = """
import os, signal, sys
import numpy as np
from blinkdet import netcore
netcore._WORKERS = 2
params = netcore.random_params(4, 1, 8, 2, 3, seed=27)
feature = netcore.VideoFeature(np.random.default_rng(27).uniform(-1, 1, (4, 8, 5, 6)))
qs = netcore.init_queries(params, 4)
run = lambda: netcore.video_interaction(qs, feature, params.stages[0], 3)
parent = run()
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    os._exit(0 if np.array_equal(run(), parent) else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(netcore.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]  # -14 is a child ended by SIGALRM

    @pytest.mark.parametrize(
        "env, cpus, expected",
        [
            ({}, 8, 1),  # unpinned BLAS is taken to use every CPU
            ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
            ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
            ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 8, 8),
            ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "auto"}, 8, 1),
        ],
    )
    def test_worker_rule(self, monkeypatch, env, cpus, expected):
        for key in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert netcore._usable_workers() == expected
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # platforms without it count every CPU
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert netcore._usable_workers() == expected

    def test_import_starts_no_thread(self):
        probe = ("import sys, threading, blinkdet.cli_io.cli\n"
                 "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(netcore.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False"]


class TestHeadsAndForward:
    def test_zero_weights_give_half_scores(self):
        from blinkdet.netcore import heads_forward

        zeros_mlp = MlpParams(np.zeros((8, 8)), np.zeros(8), np.zeros((8, 1)), np.zeros(1))
        zeros_box = MlpParams(np.zeros((8, 8)), np.zeros(8), np.zeros((8, 4)), np.zeros(4))
        base = small_params(seed=11).stages[0]
        stage = StageParams(
            spatial_attn=base.spatial_attn,
            temporal_attn=base.temporal_attn,
            filter_gen=base.filter_gen,
            update_w=base.update_w,
            update_b=base.update_b,
            face_score_head=zeros_mlp,
            face_box_head=zeros_box,
            blink_head=zeros_mlp,
        )
        q = np.random.default_rng(10).uniform(-1, 1, (2, 3, 8))
        face, boxes, blink = heads_forward(q, stage)
        assert np.all(face == 0.5)
        assert np.all(blink == 0.5)
        assert np.all(boxes == 0.0)

    def test_raising_logit_raises_score(self):
        from blinkdet.netcore import heads_forward

        base = small_params(seed=12).stages[0]
        q = np.random.default_rng(11).uniform(-1, 1, (2, 3, 8))
        face_lo, _, _ = heads_forward(q, base)
        bumped = StageParams(
            spatial_attn=base.spatial_attn,
            temporal_attn=base.temporal_attn,
            filter_gen=base.filter_gen,
            update_w=base.update_w,
            update_b=base.update_b,
            face_score_head=MlpParams(
                base.face_score_head.w1,
                base.face_score_head.b1,
                base.face_score_head.w2,
                base.face_score_head.b2 + 1.0,
            ),
            face_box_head=base.face_box_head,
            blink_head=base.blink_head,
        )
        face_hi, _, _ = heads_forward(q, bumped)
        assert np.all(face_hi > face_lo)

    def test_forward_shapes_scores_and_boxes(self):
        params = small_params(seed=13, num_queries=4, num_iterations=3)
        rng = np.random.default_rng(12)
        feature = small_feature(rng, num_frames=5)
        out = detector_forward(feature, params)
        assert len(out.stages) == 3
        for stage_out in out.stages:
            assert stage_out.face_scores.shape == (4, 5)
            assert stage_out.boxes.shape == (4, 5, 4)
            assert stage_out.blink_scores.shape == (4, 5)
            for arr in (stage_out.face_scores, stage_out.blink_scores):
                assert np.all((arr > 0.0) & (arr < 1.0))
            boxes = stage_out.boxes
            assert boxes.min() >= 0.0 and boxes.max() <= 1.0
            assert np.all(boxes[..., 2] >= boxes[..., 0])
            assert np.all(boxes[..., 3] >= boxes[..., 1])

    def test_forward_deterministic(self):
        params = small_params(seed=14)
        rng = np.random.default_rng(13)
        feature = small_feature(rng)
        out1 = detector_forward(feature, params)
        out2 = detector_forward(feature, params)
        for s1, s2 in zip(out1.stages, out2.stages):
            assert np.array_equal(s1.face_scores, s2.face_scores)
            assert np.array_equal(s1.boxes, s2.boxes)
            assert np.array_equal(s1.blink_scores, s2.blink_scores)

    def test_single_iteration_equals_manual_composition(self):
        from blinkdet.netcore import heads_forward

        params = small_params(seed=15, num_iterations=1)
        rng = np.random.default_rng(14)
        feature = small_feature(rng)
        out = detector_forward(feature, params)

        stage = params.stages[0]
        qs = init_queries(params, 4)
        qs = query_interaction(qs, stage, params.num_heads)
        q_updated = video_interaction(qs, feature, stage, params.roi_grid)
        face, boxes, blink = heads_forward(q_updated, stage)
        assert np.array_equal(out.final.face_scores, face)
        assert np.array_equal(out.final.boxes, boxes)
        assert np.array_equal(out.final.blink_scores, blink)

    def test_channel_mismatch_rejected(self):
        params = small_params(seed=16)
        feature = VideoFeature(np.zeros((2, 12, 4, 4)))
        with pytest.raises(ValueError):
            detector_forward(feature, params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stage", [1, 2], ids=["middle-stage", "last-stage"])
    def test_nan_boxes_outside_errstate_raise_naming_the_stage(self, stage):
        # numpy's default errstate only warns on the box head's overflow; unchecked, a middle
        # stage's NaN boxes fail as a RoI index in the next stage and the last stage's are returned
        params = random_params(6, 3, 16, 4, 3, seed=1)
        head = params.stages[stage].face_box_head
        head = dataclasses.replace(head, b1=np.full_like(head.b1, 1e308), w2=head.w2 * 1e308)
        stages = list(params.stages)
        stages[stage] = dataclasses.replace(stages[stage], face_box_head=head)
        feature = small_feature(np.random.default_rng(2), channels=16)
        with pytest.raises(ValueError, match=f"^stage {stage} of the forward pass gave NaN boxes$"):
            detector_forward(feature, dataclasses.replace(params, stages=tuple(stages)))


class TestContainers:
    def test_params_round_trip(self, tmp_path):
        params = small_params(seed=17)
        path = tmp_path / "weights.bin"
        save_params(path, params, seed=17)
        loaded = load_params(path)
        for name, arr in params_to_arrays(params).items():
            assert np.array_equal(params_to_arrays(loaded)[name], arr), name
        assert loaded.num_heads == params.num_heads
        assert loaded.roi_grid == params.roi_grid

    def test_container_meta_round_trip(self, tmp_path):
        path = tmp_path / "arrays.bin"
        data = {"a": np.arange(12.0).reshape(3, 4), "b": np.array([1.5])}
        write_container(path, data, meta={"kind": "features", "video_id": "x"})
        arrays, meta = read_container(path)
        assert np.array_equal(arrays["a"], data["a"])
        assert np.array_equal(arrays["b"], data["b"])
        assert meta["video_id"] == "x"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPACKxxxxxxx")
        with pytest.raises(ValueError):
            read_container(path)

    def test_truncated_container_rejected(self, tmp_path):
        full = tmp_path / "weights.bin"
        save_params(full, small_params(seed=18))
        path = tmp_path / "weights_10.bin"
        path.write_bytes(full.read_bytes()[:10])  # magic plus half the header length
        with pytest.raises(ValueError, match="truncated") as err:
            read_container(path)
        assert str(path) in str(err.value)

    def test_array_past_payload_rejected(self, tmp_path):
        path = tmp_path / "arrays.bin"
        write_container(path, {"a": np.arange(12.0).reshape(3, 4), "b": np.array([1.5])})
        path.write_bytes(path.read_bytes()[:-8])  # drop b's only value
        with pytest.raises(ValueError, match="runs past") as err:
            read_container(path)
        assert str(path) in str(err.value)
        assert "'b'" in str(err.value)

    def test_arrays_are_writable_views_equal_to_a_bytes_read(self, tmp_path):
        path = tmp_path / "arrays.bin"
        rng = np.random.default_rng(25)
        data = {"a": rng.normal(size=(3, 5)), "empty": np.zeros((0, 2)), "scalar": np.array(-2.5),
                "b": rng.normal(size=(2, 1, 3))}
        write_container(path, data, meta={"kind": "test"})
        arrays, _ = read_container(path)
        raw = path.read_bytes()
        start = 12 + struct.unpack_from("<I", raw, 8)[0]
        for entry in json.loads(raw[12:start])["arrays"]:  # the former read: one copy per array
            shape = tuple(entry["shape"])
            old = np.frombuffer(raw, "<f8", int(np.prod(shape)), start + entry["offset"]).reshape(shape).astype(float)
            got = arrays[entry["name"]]
            assert got.dtype == np.float64 and got.shape == shape and np.array_equal(got, old)
            assert got.flags.writeable and got.flags.aligned
        arrays["a"][0, 0] = 7.0
        assert arrays["a"][0, 0] == 7.0 and np.array_equal(arrays["b"], data["b"])

    def test_misaligned_offset_rejected(self, tmp_path):
        path = tmp_path / "arrays.bin"
        header = json.dumps({"version": 1, "meta": {},
                             "arrays": [{"name": "a", "shape": [1], "offset": 0},
                                        {"name": "odd", "shape": [1], "offset": 12}]}).encode()
        path.write_bytes(b"BLKPACK1" + struct.pack("<I", len(header)) + header + bytes(24))
        with pytest.raises(ValueError, match="'odd' has offset 12, not a multiple of 8") as err:
            read_container(path)
        assert str(path) in str(err.value)

    def test_missing_array_rejected(self, tmp_path):
        params = small_params(seed=18)
        arrays = params_to_arrays(params)
        arrays.pop("stage0.filter_gen")
        with pytest.raises(ValueError):
            params_from_arrays(
                arrays,
                {
                    "num_queries": 3,
                    "num_iterations": 2,
                    "channels": 8,
                    "num_heads": 2,
                    "roi_grid": 3,
                },
            )

    def test_random_params_drawn_in_container_order(self):
        params = small_params(seed=21)
        rng = np.random.default_rng(21)
        for name, arr in params_to_arrays(params).items():
            drawn = rng.uniform(-0.05, 0.05, arr.shape)
            if name != "proposal_seed":  # the jittered seed box is sanitized after the draw
                assert np.array_equal(arr, drawn), name

    @pytest.mark.parametrize(
        "name, shape, expected",
        [("stage0.update_b", (1,), (8,)), ("stage1.filter_gen", (8, 10), (8, 32))],
    )
    def test_wrong_shaped_array_rejected_at_load(self, tmp_path, name, shape, expected):
        path = tmp_path / "weights.bin"
        save_params(path, small_params(seed=20))
        arrays, meta = read_container(path)
        arrays[name] = np.zeros(shape)
        write_container(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load_params(path)
        message = str(err.value)
        assert str(path) in message and repr(name) in message
        assert f"shape {shape}, expected {expected}" in message

    @pytest.mark.parametrize("corner", [2.0, -0.1, float("nan"), 0.0])  # 0.0 puts x2 left of x1
    def test_invalid_proposal_seed_rejected_at_load(self, tmp_path, corner):
        path = tmp_path / "weights.bin"
        save_params(path, small_params(seed=22))
        arrays, meta = read_container(path)
        arrays["proposal_seed"][1, 2] = corner
        write_container(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load_params(path)
        assert str(path) in str(err.value) and "proposal_seed" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected_at_load(self, tmp_path, value):
        path = tmp_path / "weights.bin"
        save_params(path, small_params(seed=23))
        arrays, meta = read_container(path)
        arrays["stage1.face_box_head.w2"][3, 1] = value
        write_container(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load_params(path)
        assert str(path) in str(err.value)
        assert "'stage1.face_box_head.w2' holds a non-finite value" in str(err.value)

    def test_head_divisibility_enforced_at_load(self):
        params = small_params(seed=19)
        with pytest.raises(ValueError):
            ModelParams(
                num_queries=3,
                num_iterations=2,
                channels=8,
                num_heads=3,  # 8 % 3 != 0
                roi_grid=3,
                query_seed=params.query_seed,
                proposal_seed=params.proposal_seed,
                stages=params.stages,
            )
