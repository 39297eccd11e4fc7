"""Property: fused plans equal op-by-op streaming calls bit for bit.

The planner's load-bearing invariants, swept by Hypothesis over 1–3 dimensions,
ragged chunkings and arbitrary non-empty subsets of the eight reductions:

* **bit-identity** — every scalar a fused plan produces equals the sequential
  :mod:`repro.streaming.ops` call for that operation, exactly (``==``), and
  stores and plain chunk sequences give the same scalars;
* **pass count** — ``plan.n_passes`` is 1 for one-pass subsets and 2 as soon
  as any two-pass operation (variance/standard_deviation/covariance) is
  requested;
* **single decode per chunk per pass** — instrumented via the stores'
  ``chunks_read`` counters: a store's reads grow by exactly ``n_chunks`` for
  each pass whose terms touch it (``plan.decode_passes``), however many
  reductions share it.

A dedicated test pins the acceptance workload: the 6-op plan (mean, variance,
l2_norm, dot, covariance, cosine_similarity) over two stores performs exactly
2 decode passes per store and reproduces the six sequential calls bit for bit.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops

#: op name -> (arity, two-pass?); the full fusable reduction set.
OPERATIONS = {
    "mean": (1, False),
    "l2_norm": (1, False),
    "variance": (1, True),
    "standard_deviation": (1, True),
    "dot": (2, False),
    "covariance": (2, True),
    "euclidean_distance": (2, False),
    "cosine_similarity": (2, False),
}

#: The acceptance-criterion workload.
SIX_OPS = ("mean", "variance", "l2_norm", "dot", "covariance", "cosine_similarity")


@st.composite
def engine_case(draw):
    """Two arrays (1–3D), settings, ragged chunking, and a non-empty op subset."""
    ndim = draw(st.integers(1, 3))
    extents = {1: (2,), 2: (2, 4), 3: (2, 2, 4)}[ndim]
    block = draw(st.sampled_from([extents, tuple(reversed(extents))]))
    rows = draw(st.integers(1, 24))
    tail = tuple(draw(st.integers(1, 9)) for _ in range(ndim - 1))
    slab_rows = draw(st.integers(1, 16))
    float_format = draw(st.sampled_from(["bfloat16", "float32", "float64"]))
    index_dtype = draw(st.sampled_from(["int8", "int16", "int32"]))
    settings = CompressionSettings(
        block_shape=block, float_format=float_format, index_dtype=index_dtype
    )
    subset = draw(st.sets(st.sampled_from(sorted(OPERATIONS)), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shape = (rows,) + tail
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    return a, b, settings, slab_rows, sorted(subset)


@contextmanager
def _store_pair(a, b, settings, slab_rows):
    """Self-managed temp dir + store pair (Hypothesis forbids tmp_path in @given)."""
    with tempfile.TemporaryDirectory(prefix="engine_prop_") as tmp:
        workdir = Path(tmp)
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        store_a = chunked.compress_to_store(a, workdir / "a.pblzc")
        store_b = chunked.compress_to_store(b, workdir / "b.pblzc")
        with store_a, store_b:
            yield store_a, store_b


def _expressions(names, store_a, store_b) -> dict:
    """Expression per requested op, sharing the two source nodes."""
    x, y = expr.source(store_a), expr.source(store_b)
    builders = {
        "mean": lambda: expr.mean(x),
        "l2_norm": lambda: expr.l2_norm(x),
        "variance": lambda: expr.variance(x),
        "standard_deviation": lambda: expr.standard_deviation(x),
        "dot": lambda: expr.dot(x, y),
        "covariance": lambda: expr.covariance(x, y),
        "euclidean_distance": lambda: expr.euclidean_distance(x, y),
        "cosine_similarity": lambda: expr.cosine_similarity(x, y),
    }
    return {name: builders[name]() for name in names}


def _sequential(names, store_a, store_b) -> dict:
    """The same ops as independent streaming.ops sweeps."""
    values = {}
    for name in names:
        function = getattr(stream_ops, name)
        arity, _ = OPERATIONS[name]
        values[name] = (function(store_a) if arity == 1
                        else function(store_a, store_b))
    return values


class TestFusedMatchesSequential:
    @given(case=engine_case())
    @hyp_settings(max_examples=40, deadline=None)
    def test_any_subset_bit_identical_with_pass_and_decode_counts(self, case):
        a, b, settings, slab_rows, names = case
        with _store_pair(a, b, settings, slab_rows) as (store_a, store_b):
            zero_norm = stream_ops.l2_norm(store_a) == 0.0 or (
                stream_ops.l2_norm(store_b) == 0.0
            )
            if zero_norm and "cosine_similarity" in names:
                names = [n for n in names if n != "cosine_similarity"] or ["mean"]
            expected = _sequential(names, store_a, store_b)
            plan = engine.plan(_expressions(names, store_a, store_b))

            # pass count: 1 for one-pass subsets, 2 when any two-pass op present
            two_pass = any(OPERATIONS[name][1] for name in names)
            assert plan.n_passes == (2 if two_pass else 1)

            # per-pass single decode per chunk, via chunks_read instrumentation
            before = (store_a.chunks_read, store_b.chunks_read)
            fused = plan.execute()
            sources = list(plan.sources)
            for store, prior in ((store_a, before[0]), (store_b, before[1])):
                if store in sources:
                    passes = plan.decode_passes[sources.index(store)]
                    assert store.chunks_read - prior == passes * store.n_chunks
                else:
                    assert store.chunks_read == prior

            assert fused == expected

    @given(case=engine_case())
    @hyp_settings(max_examples=10, deadline=None)
    def test_chunk_sequences_match_stores(self, case):
        a, b, settings, slab_rows, names = case
        with _store_pair(a, b, settings, slab_rows) as (store_a, store_b):
            if stream_ops.l2_norm(store_a) == 0.0 or stream_ops.l2_norm(store_b) == 0.0:
                names = [n for n in names if n != "cosine_similarity"] or ["mean"]
            from_stores = engine.evaluate(_expressions(names, store_a, store_b))
            chunks_a = list(store_a.iter_chunks())
            chunks_b = list(store_b.iter_chunks())
            from_chunks = engine.evaluate(_expressions(names, chunks_a, chunks_b))
            assert from_chunks == from_stores


class TestAcceptanceSixOpWorkload:
    """The PR's acceptance criterion, pinned exactly."""

    @pytest.mark.parametrize("slab_rows", [4, 8, 16])
    def test_two_decode_passes_per_store_and_bit_identity(self, tmp_path, slab_rows):
        rng = np.random.default_rng(23)
        a = np.cumsum(rng.standard_normal((48, 20)), axis=0) * 0.05
        b = np.cumsum(rng.standard_normal((48, 20)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        store_a = chunked.compress_to_store(a, tmp_path / "a.pblzc")
        store_b = chunked.compress_to_store(b, tmp_path / "b.pblzc")
        with store_a, store_b:
            expected = _sequential(SIX_OPS, store_a, store_b)
            plan = engine.plan(_expressions(SIX_OPS, store_a, store_b))
            assert plan.n_passes == 2
            assert plan.decode_passes == (2, 2)
            before = (store_a.chunks_read, store_b.chunks_read)
            fused = plan.execute()
            assert store_a.chunks_read - before[0] == 2 * store_a.n_chunks
            assert store_b.chunks_read - before[1] == 2 * store_b.n_chunks
            for name in SIX_OPS:
                assert fused[name] == expected[name], name


class TestPlanReuse:
    def test_executing_twice_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        a = np.cumsum(rng.standard_normal((32, 8)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            a, tmp_path / "a.pblzc"
        ) as store:
            plan = engine.plan({"var": expr.variance(store),
                                "mean": expr.mean(store)})
            assert plan.execute() == plan.execute()
