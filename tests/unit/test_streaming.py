"""Unit tests for the out-of-core streaming subsystem."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor, ops
from repro.streaming import (
    ChunkedCompressor,
    CompressedStore,
    CompressedStoreWriter,
    load_region,
)
from repro.streaming import ops as stream_ops
from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32", index_dtype="int16")


@pytest.fixture
def field() -> np.ndarray:
    return smooth_field((37, 20), seed=7)


@pytest.fixture
def store(tmp_path, settings, field) -> CompressedStore:
    with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
        field, tmp_path / "field.pblzc"
    ) as opened:
        yield opened


class TestChunkedCompressor:
    def test_slab_rows_rounded_up_to_block_multiple(self, settings):
        assert ChunkedCompressor(settings, slab_rows=5).slab_rows == 8
        assert ChunkedCompressor(settings, slab_rows=8).slab_rows == 8
        assert ChunkedCompressor(settings, slab_rows=1).slab_rows == 4

    def test_invalid_construction(self, settings):
        with pytest.raises(ValueError):
            ChunkedCompressor(settings, slab_rows=0)
        with pytest.raises(ValueError):
            ChunkedCompressor(settings, n_workers=0)

    def test_memmap_input(self, tmp_path, settings, field):
        path = tmp_path / "field.npy"
        np.save(path, field)
        memmapped = np.load(path, mmap_mode="r")
        reference = Compressor(settings).compress(field)
        result = ChunkedCompressor(settings, slab_rows=8).compress(memmapped)
        assert np.array_equal(result.maxima, reference.maxima)
        assert np.array_equal(result.indices, reference.indices)

    @pytest.mark.parametrize("backend", ["reference", "gemm"])
    def test_process_fanout_identical(self, settings, field, backend):
        # each slab is compressed alone either way, so even the BLAS backend
        # gives the pool the bits of one worker
        reference = ChunkedCompressor(settings, slab_rows=8, backend=backend).compress(field)
        result = ChunkedCompressor(settings, slab_rows=8, n_workers=2,
                                   backend=backend).compress(field)
        assert np.array_equal(result.maxima, reference.maxima)
        assert np.array_equal(result.indices, reference.indices)

    def test_empty_input_rejected(self, settings):
        with pytest.raises(ValueError, match="empty"):
            ChunkedCompressor(settings).compress(iter(()))
        with pytest.raises(ValueError, match="empty"):
            ChunkedCompressor(settings).compress(np.empty((0, 8)))

    def test_dimensionality_mismatch_rejected(self, settings):
        with pytest.raises(ValueError, match="dimensionality"):
            ChunkedCompressor(settings).compress(np.zeros((4, 4, 4)))

    def test_inconsistent_trailing_shape_rejected(self, settings):
        pieces = [np.zeros((4, 8)), np.zeros((4, 12))]
        with pytest.raises(ValueError, match="trailing shape"):
            ChunkedCompressor(settings).compress(iter(pieces))

    def test_aligned_slabs_rebuffers_ragged_pieces(self, settings, field):
        chunked = ChunkedCompressor(settings, slab_rows=8)
        pieces = [field[0:3], field[3:10], field[10:11], field[11:37]]
        slabs = list(chunked.aligned_slabs(iter(pieces)))
        assert [s.shape[0] for s in slabs] == [8, 8, 8, 8, 5]
        assert np.array_equal(np.concatenate(slabs, axis=0), field)


class TestCompressedStoreWriter:
    def test_append_after_ragged_chunk_rejected(self, tmp_path, settings):
        compressor = Compressor(settings)
        writer = CompressedStoreWriter(tmp_path / "x.pblzc", settings)
        writer.append(compressor.compress(smooth_field((6, 8), seed=0)))  # ragged: 6 % 4
        with pytest.raises(ValueError, match="partial block row"):
            writer.append(compressor.compress(smooth_field((8, 8), seed=0)))

    def test_mismatched_settings_rejected(self, tmp_path, settings):
        other = CompressionSettings(block_shape=(8, 8), float_format="float32",
                                    index_dtype="int16")
        writer = CompressedStoreWriter(tmp_path / "x.pblzc", settings)
        with pytest.raises(ValueError, match="do not match store"):
            writer.append(Compressor(other).compress(smooth_field((8, 8), seed=0)))

    def test_mismatched_trailing_shape_rejected(self, tmp_path, settings):
        compressor = Compressor(settings)
        writer = CompressedStoreWriter(tmp_path / "x.pblzc", settings)
        writer.append(compressor.compress(smooth_field((8, 8), seed=0)))
        with pytest.raises(ValueError, match="trailing shape"):
            writer.append(compressor.compress(smooth_field((8, 12), seed=0)))

    def test_finalizing_empty_store_rejected(self, tmp_path, settings):
        writer = CompressedStoreWriter(tmp_path / "x.pblzc", settings)
        with pytest.raises(ValueError, match="empty store"):
            writer.finalize()

    def test_append_after_finalize_rejected(self, tmp_path, settings):
        writer = CompressedStoreWriter(tmp_path / "x.pblzc", settings)
        compressed = Compressor(settings).compress(smooth_field((8, 8), seed=0))
        writer.append(compressed)
        writer.finalize()
        with pytest.raises(ValueError, match="finalized"):
            writer.append(compressed)


class TestCompressedStore:
    def test_geometry(self, store, field):
        assert store.shape == field.shape
        assert store.n_chunks == 5  # ceil(37 / 8)
        assert store.chunk_rows == (8, 8, 8, 8, 5)

    def test_open_is_lazy(self, store):
        assert store.chunks_read == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.pblzc"
        path.write_bytes(b"not a store at all")
        with pytest.raises(ValueError, match="bad magic"):
            CompressedStore(path)

    def test_unfinalized_file_rejected(self, tmp_path, settings):
        path = tmp_path / "partial.pblzc"
        writer = CompressedStoreWriter(path, settings)
        writer.append(Compressor(settings).compress(smooth_field((8, 8), seed=0)))
        writer._handle.close()  # simulate a crash before finalize
        # nothing was published at the final path; the torn bytes stay .partial
        assert not path.exists()
        partial = path.with_name(path.name + ".partial")
        assert partial.exists()
        with pytest.raises(ValueError, match="trailer"):
            CompressedStore(partial)

    def test_load_matches_one_shot_decompression(self, store, settings, field):
        reference = Compressor(settings).decompress(Compressor(settings).compress(field))
        assert np.array_equal(store.load(), reference)

    def test_load_region_reads_only_intersecting_chunks(self, store, settings, field):
        full = store.load()
        store.chunks_read = 0
        region = store.load_region((slice(9, 15), slice(2, 11)))
        assert store.chunks_read == 1  # rows 9..15 live entirely in chunk 1 (rows 8..16)
        assert np.array_equal(region, full[9:15, 2:11])

    def test_load_region_with_step_and_int(self, store):
        full = store.load()
        assert np.array_equal(store.load_region((slice(1, 30, 7),)), full[1:30:7])
        assert np.array_equal(store.load_region((17, slice(None))), full[17])
        assert np.array_equal(store.load_region(-1), full[-1])
        assert np.array_equal(load_region(store, (slice(None), 3)), full[:, 3])

    def test_load_region_empty_range(self, store):
        region = store.load_region((slice(5, 5),))
        assert region.shape == (0, store.shape[1])

    def test_load_region_invalid_requests(self, store):
        with pytest.raises(ValueError, match="positive step"):
            store.load_region((slice(None, None, -1),))
        with pytest.raises(IndexError):
            store.load_region(99)
        with pytest.raises(ValueError, match="dimensions"):
            store.load_region((slice(None), slice(None), slice(None)))


class TestStreamingReductions:
    def test_match_one_shot_ops(self, store, settings, field):
        reference = Compressor(settings).compress(field)
        assert np.isclose(stream_ops.mean(store), ops.mean(reference), rtol=1e-12)
        assert np.isclose(
            stream_ops.mean(store, padded=False), ops.mean(reference, padded=False), rtol=1e-12
        )
        assert np.isclose(stream_ops.l2_norm(store), ops.l2_norm(reference), rtol=1e-12)

    def test_dot_requires_matching_chunking(self, tmp_path, settings, field):
        a = ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "a.pblzc"
        )
        b = ChunkedCompressor(settings, slab_rows=16).compress_to_store(
            field, tmp_path / "b.pblzc"
        )
        try:
            with pytest.raises(ValueError, match="chunk"):
                stream_ops.dot(a, b)
        finally:
            a.close()
            b.close()

    def test_dot_matches_ops(self, tmp_path, settings, field):
        other = smooth_field((37, 20), seed=11)
        a = ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "a.pblzc"
        )
        b = ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            other, tmp_path / "b.pblzc"
        )
        try:
            compressor = Compressor(settings)
            expected = ops.dot(compressor.compress(field), compressor.compress(other))
            assert np.isclose(stream_ops.dot(a, b), expected, rtol=1e-12)
        finally:
            a.close()
            b.close()

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stream_ops.mean(iter(()))
        with pytest.raises(ValueError, match="empty"):
            stream_ops.l2_norm(iter(()))
        with pytest.raises(ValueError, match="empty"):
            stream_ops.dot(iter(()), iter(()))
