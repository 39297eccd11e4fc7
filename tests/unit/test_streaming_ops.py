"""Unit tests for the out-of-core compressed-domain ops engine."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor, ops
from repro.core.ops import folds
from repro.streaming import ChunkedCompressor
from repro.streaming import ops as stream_ops
from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32", index_dtype="int16")


@pytest.fixture
def fields() -> tuple[np.ndarray, np.ndarray]:
    return smooth_field((37, 20), seed=7), smooth_field((37, 20), seed=11)


@pytest.fixture
def stores(tmp_path, settings, fields):
    chunked = ChunkedCompressor(settings, slab_rows=8)
    with chunked.compress_to_store(fields[0], tmp_path / "a.pblzc") as store_a:
        with chunked.compress_to_store(fields[1], tmp_path / "b.pblzc") as store_b:
            yield store_a, store_b


#: Every scalar reduction with its number of store operands.
_REDUCTIONS = {
    "mean": (stream_ops.mean, 1),
    "l2_norm": (stream_ops.l2_norm, 1),
    "variance": (stream_ops.variance, 1),
    "standard_deviation": (stream_ops.standard_deviation, 1),
    "dot": (stream_ops.dot, 2),
    "covariance": (stream_ops.covariance, 2),
    "cosine_similarity": (stream_ops.cosine_similarity, 2),
    "euclidean_distance": (stream_ops.euclidean_distance, 2),
}

#: Every structural op as ``(sources, path) -> store``.
_STRUCTURAL = {
    "add": lambda a, b, path: stream_ops.add(a, b, path),
    "subtract": lambda a, b, path: stream_ops.subtract(a, b, path),
    "negate": lambda a, b, path: stream_ops.negate(a, path),
    "scale": lambda a, b, path: stream_ops.scale(a, -1.5, path),
}


class TestScalarOps:
    def test_every_reduction_matches_in_memory(self, stores):
        store_a, store_b = stores
        ca, cb = store_a.load_compressed(), store_b.load_compressed()
        assert stream_ops.mean(store_a) == ops.mean(ca)
        assert stream_ops.l2_norm(store_a) == ops.l2_norm(ca)
        assert stream_ops.variance(store_a) == ops.variance(ca)
        assert stream_ops.standard_deviation(store_a) == ops.standard_deviation(ca)
        assert stream_ops.dot(store_a, store_b) == ops.dot(ca, cb)
        assert stream_ops.covariance(store_a, store_b) == ops.covariance(ca, cb)
        assert stream_ops.cosine_similarity(store_a, store_b) == (
            ops.cosine_similarity(ca, cb)
        )
        assert stream_ops.euclidean_distance(store_a, store_b) == (
            ops.euclidean_distance(ca, cb)
        )

    def test_reductions_sweep_through_the_callers_cache(self, stores):
        from repro.serving import ChunkCache

        store_a, _ = stores
        store_a.chunk_cache = cache = ChunkCache()
        assert stream_ops.mean(store_a) == stream_ops.mean(store_a)
        assert cache.hits == store_a.n_chunks
        assert store_a.chunks_read == 2 * store_a.n_chunks

    @pytest.mark.parametrize("name", sorted(_REDUCTIONS))
    def test_each_reduction_is_served_from_the_callers_cache(self, stores, name):
        """A repeat sweep reads every chunk through the stores' own caches."""
        from repro.serving import ChunkCache

        reduction, arity = _REDUCTIONS[name]
        sources = stores[:arity]
        caches = []
        for store in sources:
            store.chunk_cache = cache = ChunkCache()
            caches.append(cache)
        first = reduction(*sources)
        misses = [cache.misses for cache in caches]
        hits = [cache.hits for cache in caches]
        reads = [store.chunks_read for store in sources]
        assert reduction(*sources) == first
        assert [cache.misses for cache in caches] == misses
        for cache, store, hits_before, reads_before in zip(caches, sources, hits, reads):
            served = cache.hits - hits_before
            assert served == store.chunks_read - reads_before >= store.n_chunks

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stream_ops.mean(iter(()))
        with pytest.raises(ValueError, match="empty"):
            stream_ops.dot([], [])

    def test_mismatched_chunking_rejected(self, tmp_path, settings, fields):
        a = ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            fields[0], tmp_path / "a8.pblzc"
        )
        b = ChunkedCompressor(settings, slab_rows=16).compress_to_store(
            fields[1], tmp_path / "b16.pblzc"
        )
        with a, b:
            with pytest.raises(ValueError, match="chunk"):
                stream_ops.dot(a, b)


class TestStructuralOps:
    def test_add_roundtrips_close_to_uncompressed_sum(self, tmp_path, stores, fields):
        store_a, store_b = stores
        with stream_ops.add(store_a, store_b, tmp_path / "sum.pblzc") as out:
            streamed = out.load()
        # rebinning error only: well inside the documented half-bin bound
        assert np.allclose(streamed, fields[0] + fields[1], atol=5e-3)

    def test_scale_requires_finite_factor(self, tmp_path, stores):
        store_a, _ = stores
        with pytest.raises(ValueError, match="finite"):
            stream_ops.scale(store_a, float("nan"), tmp_path / "nan.pblzc")

    def test_empty_source_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            stream_ops.negate([], tmp_path / "neg.pblzc")

    def test_output_mirrors_source_chunking(self, tmp_path, stores):
        store_a, _ = stores
        with stream_ops.negate(store_a, tmp_path / "neg.pblzc") as out:
            assert out.chunk_rows == store_a.chunk_rows
            assert out.shape == store_a.shape

    @pytest.mark.parametrize("name", sorted(_STRUCTURAL))
    def test_each_structural_op_reads_through_the_callers_cache(
        self, tmp_path, stores, name
    ):
        """A repeat rewrite decodes nothing new and writes the same bytes."""
        from repro.serving import ChunkCache

        store_a, store_b = stores
        store_a.chunk_cache = cache_a = ChunkCache()
        store_b.chunk_cache = cache_b = ChunkCache()
        op = _STRUCTURAL[name]
        op(store_a, store_b, tmp_path / "first.pblzc").close()
        misses = (cache_a.misses, cache_b.misses)
        op(store_a, store_b, tmp_path / "second.pblzc").close()
        assert (cache_a.misses, cache_b.misses) == misses
        assert cache_a.hits == store_a.n_chunks
        assert (tmp_path / "first.pblzc").read_bytes() == (
            tmp_path / "second.pblzc"
        ).read_bytes()

    @pytest.mark.parametrize("name", sorted(_STRUCTURAL))
    def test_executor_keyword_is_gone(self, tmp_path, stores, name):
        """Store sweeps have one reader: no per-chunk executor fan-out."""
        store_a, store_b = stores
        sources = (store_a, store_b) if name in ("add", "subtract") else (store_a,)
        extra = (2.0,) if name == "scale" else ()
        operation = getattr(stream_ops, name)
        with pytest.raises(TypeError, match="executor"):
            operation(*sources, *extra, tmp_path / "x.pblzc", executor=object())
        assert not (tmp_path / "x.pblzc").exists()

    def test_in_place_rewrite_is_safe(self, tmp_path, settings):
        """Writing the output over an input path must not corrupt the read.

        The writer lands in a .partial sibling and renames on finalize, so the
        source handle keeps the old contents; the store must be big enough
        that a truncated-in-place file could not hide in the 8 KiB read buffer
        (the historical failure mode).
        """
        field = smooth_field((128, 48), seed=13)
        path = tmp_path / "inplace.pblzc"
        store = ChunkedCompressor(settings, slab_rows=16).compress_to_store(field, path)
        assert path.stat().st_size > 8192 and store.n_chunks == 8
        with store:
            expected = stream_ops.mean(store) * 2.0
            with stream_ops.scale(store, 2.0, path) as scaled:
                assert stream_ops.mean(scaled) == pytest.approx(expected, rel=1e-6)
            # the already-open source handle still reads the old contents
            assert stream_ops.mean(store) == expected / 2.0


class TestFoldPrimitives:
    def test_combine_rejects_mismatched_folds(self, settings, fields):
        compressed = Compressor(settings).compress(fields[0])
        with pytest.raises(ValueError, match="different folds"):
            folds.combine(folds.square_partial(compressed), folds.dc_partial(compressed))

    def test_combine_is_order_insensitive_after_finalize(self, settings, fields):
        chunks = list(
            ChunkedCompressor(settings, slab_rows=8)._compressed_slabs(fields[0])
        )
        states = [folds.square_partial(chunk) for chunk in chunks]
        forward = states[0]
        for state in states[1:]:
            forward = folds.combine(forward, state)
        backward = states[-1]
        for state in reversed(states[:-1]):
            backward = folds.combine(state, backward)
        assert folds.finalize_l2_norm(forward) == folds.finalize_l2_norm(backward)

    def test_combine_all_matches_pairwise_combine(self, settings, fields):
        chunks = list(
            ChunkedCompressor(settings, slab_rows=8)._compressed_slabs(fields[0])
        )
        states = [folds.square_partial(chunk) for chunk in chunks]
        pairwise = states[0]
        for state in states[1:]:
            pairwise = folds.combine(pairwise, state)
        linear = folds.combine_all(folds.square_partial(chunk) for chunk in chunks)
        assert folds.finalize_l2_norm(linear) == folds.finalize_l2_norm(pairwise)
        assert linear.n_blocks == pairwise.n_blocks
        assert folds.combine_all(iter(())) is None

    def test_in_memory_ops_are_fold_wrappers(self, settings, fields):
        """The tentpole invariant at the unit level: one-chunk fold == ops.*"""
        compressed = Compressor(settings).compress(fields[0])
        assert folds.finalize_l2_norm(folds.square_partial(compressed)) == (
            ops.l2_norm(compressed)
        )
        assert folds.finalize_mean(folds.dc_partial(compressed)) == ops.mean(compressed)

    def test_variance_never_negative_on_constant_arrays(self, settings):
        constant = np.full((12, 12), 3.25)
        compressed = Compressor(settings).compress(constant)
        assert ops.variance(compressed) >= 0.0

