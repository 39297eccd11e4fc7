"""Property: store-level ops equal their in-memory counterparts on assembled data.

The load-bearing invariant of :mod:`repro.streaming.ops` — for every scalar
reduction and structural operation, evaluating over the chunks of a
:class:`CompressedStore` must reproduce the in-memory :mod:`repro.core.ops`
result on the assembled :class:`CompressedArray`:

* **bit-identical** (``==`` / ``np.array_equal``) when the store was written
  under the ``reference`` kernel backend (the fold design makes the reductions
  chunking-invariant; structural ops rebin per block, so they match the
  serialized in-memory result);
* within the backend's documented tolerance against *one-shot* compression
  under the fast backends (the chunks themselves then differ from one-shot).

Cases sweep 1–3 dimensions and uneven (ragged) last slabs; a dedicated test
asserts the engine streams chunks one at a time (bounded memory).
"""

import tempfile
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import CompressionSettings, Compressor, deserialize, ops, serialize
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops


@st.composite
def store_ops_case(draw):
    """Two arrays (1–3D), settings, and a slab size that may leave a ragged tail."""
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
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shape = (rows,) + tail
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    return a, b, settings, slab_rows


def _stores(tmp_path, a, b, settings, slab_rows, backend=None):
    """Write both arrays into chunked stores and return them (caller closes)."""
    chunked = ChunkedCompressor(settings, slab_rows=slab_rows, backend=backend)
    return (
        chunked.compress_to_store(a, tmp_path / "a.pblzc"),
        chunked.compress_to_store(b, tmp_path / "b.pblzc"),
    )


@contextmanager
def _store_pair(a, b, settings, slab_rows, backend=None):
    """Self-managed temp dir + store pair (Hypothesis forbids tmp_path in @given)."""
    with tempfile.TemporaryDirectory(prefix="ops_prop_") as tmp:
        workdir = Path(tmp)
        store_a, store_b = _stores(workdir, a, b, settings, slab_rows, backend)
        with store_a, store_b:
            yield workdir, store_a, store_b


class TestScalarOpsBitIdentical:
    @given(case=store_ops_case())
    @hyp_settings(max_examples=40, deadline=None)
    def test_reductions_match_in_memory_exactly(self, case):
        a, b, settings, slab_rows = case
        with _store_pair(a, b, settings, slab_rows) as (_, store_a, store_b):
            ca = store_a.load_compressed()
            cb = store_b.load_compressed()
            assert stream_ops.mean(store_a) == ops.mean(ca)
            assert stream_ops.mean(store_a, padded=False) == ops.mean(ca, padded=False)
            assert stream_ops.l2_norm(store_a) == ops.l2_norm(ca)
            assert stream_ops.variance(store_a) == ops.variance(ca)
            assert stream_ops.standard_deviation(store_a) == ops.standard_deviation(ca)
            assert stream_ops.dot(store_a, store_b) == ops.dot(ca, cb)
            assert stream_ops.covariance(store_a, store_b) == ops.covariance(ca, cb)
            assert stream_ops.euclidean_distance(store_a, store_b) == (
                ops.euclidean_distance(ca, cb)
            )
            if ops.l2_norm(ca) != 0.0 and ops.l2_norm(cb) != 0.0:
                assert stream_ops.cosine_similarity(store_a, store_b) == (
                    ops.cosine_similarity(ca, cb)
                )

    @given(case=store_ops_case())
    @hyp_settings(max_examples=15, deadline=None)
    def test_chunk_iterables_match_stores(self, case):
        """Plain chunk sequences (no store) feed the same folds identically."""
        a, b, settings, slab_rows = case
        with _store_pair(a, b, settings, slab_rows) as (_, store_a, store_b):
            chunks_a = list(store_a.iter_chunks())
            chunks_b = list(store_b.iter_chunks())
            assert stream_ops.dot(chunks_a, chunks_b) == stream_ops.dot(store_a, store_b)
            assert stream_ops.variance(chunks_a) == stream_ops.variance(store_a)


class TestStructuralOpsBitIdentical:
    @given(case=store_ops_case())
    @hyp_settings(max_examples=25, deadline=None)
    def test_structural_ops_match_serialized_in_memory(self, case):
        a, b, settings, slab_rows = case
        with _store_pair(a, b, settings, slab_rows) as (tmp_path, store_a, store_b):
            ca = store_a.load_compressed()
            cb = store_b.load_compressed()
            cases = {
                "add": (lambda: stream_ops.add(store_a, store_b, tmp_path / "add.pblzc"),
                        lambda: ops.add(ca, cb)),
                "subtract": (lambda: stream_ops.subtract(store_a, store_b,
                                                         tmp_path / "sub.pblzc"),
                             lambda: ops.subtract(ca, cb)),
                "scale": (lambda: stream_ops.scale(store_a, -1.75,
                                                   tmp_path / "scale.pblzc"),
                          lambda: ops.multiply_scalar(ca, -1.75)),
                "negate": (lambda: stream_ops.negate(store_a, tmp_path / "neg.pblzc"),
                           lambda: ops.negate(ca)),
            }
            for name, (run_store, run_memory) in cases.items():
                with run_store() as out:
                    assert out.chunk_rows == store_a.chunk_rows, name
                    assembled = out.load_compressed()
                # persisting rounds maxima to the working float format, exactly
                # like serializing the in-memory result
                expected = deserialize(serialize(run_memory()))
                assert np.array_equal(assembled.indices, expected.indices), name
                assert np.array_equal(assembled.maxima, expected.maxima), name

    @given(case=store_ops_case())
    @hyp_settings(max_examples=10, deadline=None)
    def test_structural_output_decompresses_like_in_memory(self, case):
        a, b, settings, slab_rows = case
        with _store_pair(a, b, settings, slab_rows) as (tmp_path, store_a, store_b):
            ca = store_a.load_compressed()
            cb = store_b.load_compressed()
            with stream_ops.add(store_a, store_b, tmp_path / "sum.pblzc") as out:
                streamed = out.load()
            expected = Compressor(settings).decompress(
                deserialize(serialize(ops.add(ca, cb)))
            )
            assert np.array_equal(streamed, expected)


class TestFastBackendTolerance:
    def test_gemm_store_matches_its_assembly_and_one_shot_within_tolerance(
        self, tmp_path
    ):
        """Fast-backend stores: exact vs their own assembly, close to one-shot."""
        rng = np.random.default_rng(11)
        a = np.cumsum(rng.standard_normal((64, 16, 8)), axis=0) * 0.05
        b = np.cumsum(rng.standard_normal((64, 16, 8)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4, 4), float_format="float32", index_dtype="int16"
        )
        store_a, store_b = _stores(tmp_path, a, b, settings, 16, backend="gemm")
        with store_a, store_b:
            ca = store_a.load_compressed()
            cb = store_b.load_compressed()
            # the folds stay chunking-invariant whatever backend wrote the chunks
            assert stream_ops.dot(store_a, store_b) == ops.dot(ca, cb)
            assert stream_ops.variance(store_a) == ops.variance(ca)
            # and against one-shot compression the documented accumulation
            # tolerance applies (the chunks themselves differ from one-shot)
            compressor = Compressor(settings, backend="gemm")
            one_shot_a = compressor.compress(a)
            one_shot_b = compressor.compress(b)
            assert np.isclose(
                stream_ops.dot(store_a, store_b),
                ops.dot(one_shot_a, one_shot_b),
                rtol=1e-4,
            )
            assert np.isclose(
                stream_ops.mean(store_a), ops.mean(one_shot_a), rtol=1e-4, atol=1e-7
            )


class TestBoundedMemory:
    def test_serial_fold_streams_one_chunk_at_a_time(self, tmp_path):
        """The serial engine never accumulates decoded chunks (peak ≤ 2 alive:
        the one being folded plus the one being produced)."""
        rng = np.random.default_rng(3)
        array = np.cumsum(rng.standard_normal((64, 8)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        store = ChunkedCompressor(settings, slab_rows=4).compress_to_store(
            array, tmp_path / "mem.pblzc"
        )
        live = {"now": 0, "peak": 0}

        def tracked(iterator):
            for chunk in iterator:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
                weakref.finalize(chunk, lambda: live.__setitem__("now", live["now"] - 1))
                yield chunk
                chunk = None

        with store:
            assert store.n_chunks >= 8
            value = stream_ops.l2_norm(tracked(store.iter_chunks()))
            assert value == stream_ops.l2_norm(store)
        assert live["peak"] <= 2, f"engine held {live['peak']} chunks at once"

    def test_binary_fold_streams_one_pair_at_a_time(self, tmp_path):
        rng = np.random.default_rng(4)
        a = np.cumsum(rng.standard_normal((64, 8)), axis=0) * 0.05
        b = np.cumsum(rng.standard_normal((64, 8)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        store_a, store_b = _stores(tmp_path, a, b, settings, slab_rows=4)
        live = {"now": 0, "peak": 0}

        def tracked(iterator):
            for chunk in iterator:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
                weakref.finalize(chunk, lambda: live.__setitem__("now", live["now"] - 1))
                yield chunk
                chunk = None

        with store_a, store_b:
            expected = stream_ops.dot(store_a, store_b)
            value = stream_ops.dot(
                tracked(store_a.iter_chunks()), tracked(store_b.iter_chunks())
            )
            assert value == expected
        assert live["peak"] <= 4, f"engine held {live['peak']} chunks at once"


class TestSingleShotSources:
    def test_centered_statistics_accept_single_shot_generators(self, tmp_path):
        rng = np.random.default_rng(5)
        array = np.cumsum(rng.standard_normal((16, 8)), axis=0) * 0.05
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype="int16"
        )
        store = ChunkedCompressor(settings, slab_rows=4).compress_to_store(
            array, tmp_path / "gen.pblzc"
        )
        with store:
            # one sweep per reduction: a one-shot generator is a full source
            variance = stream_ops.variance(store)
            assert stream_ops.variance(store.iter_chunks()) == variance
            assert stream_ops.standard_deviation(store.iter_chunks()) == (
                stream_ops.standard_deviation(store)
            )
            assert stream_ops.covariance(store.iter_chunks(),
                                         store.iter_chunks()) == (
                stream_ops.covariance(store, store)
            )
            # re-iterable sequences are fine too
            chunks = list(store.iter_chunks())
            assert stream_ops.variance(chunks) == variance
