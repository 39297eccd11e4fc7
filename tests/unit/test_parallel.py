"""Unit tests for the block-chunked execution backends."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor
from repro.core.binning import bin_coefficients
from repro.parallel import (
    MIN_CHUNK_ELEMENTS,
    LoopExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    chunk_slices,
)
from tests.conftest import smooth_field


class TestChunkSlices:
    def test_covers_range_without_overlap(self):
        slices = list(chunk_slices(10, 3))
        covered = []
        for sl in slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(10))

    def test_number_of_chunks_bounded(self):
        assert len(list(chunk_slices(10, 3))) == 3
        assert len(list(chunk_slices(2, 8))) == 2
        assert len(list(chunk_slices(0, 4))) == 0

    def test_near_equal_sizes(self):
        sizes = [sl.stop - sl.start for sl in chunk_slices(11, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_items_any_chunks(self):
        # an empty range yields no slices no matter how many chunks are requested
        assert list(chunk_slices(0, 1)) == []
        assert list(chunk_slices(0, 7)) == []

    def test_single_chunk_covers_everything(self):
        assert list(chunk_slices(9, 1)) == [slice(0, 9)]
        assert list(chunk_slices(1, 1)) == [slice(0, 1)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(chunk_slices(-1, 2))
        with pytest.raises(ValueError):
            list(chunk_slices(4, 0))


@pytest.mark.parametrize(
    "executor_factory",
    [
        SerialExecutor,
        lambda: ThreadedExecutor(2),
        lambda: ThreadedExecutor(8),
        lambda: ProcessExecutor(2),
        LoopExecutor,
    ],
)
class TestExecutorsMatchVectorizedPath:
    def test_compress_identical(self, executor_factory, field_3d, settings_3d):
        reference = Compressor(settings_3d).compress(field_3d)
        result = Compressor(settings_3d, executor=executor_factory()).compress(field_3d)
        assert result.allclose(reference)
        assert np.array_equal(result.indices, reference.indices)

    def test_decompress_identical(self, executor_factory, field_3d, settings_3d):
        reference_compressor = Compressor(settings_3d)
        compressed = reference_compressor.compress(field_3d)
        expected = reference_compressor.decompress(compressed)
        result = Compressor(settings_3d, executor=executor_factory()).decompress(compressed)
        assert np.allclose(result, expected, atol=1e-12)

    def test_non_multiple_shape(self, executor_factory):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int8")
        array = smooth_field((10, 14), seed=5)
        reference = Compressor(settings).compress(array)
        result = Compressor(settings, executor=executor_factory()).compress(array)
        assert result.allclose(reference)


@pytest.mark.parametrize(
    "executor_factory",
    [lambda: ThreadedExecutor(2), lambda: ProcessExecutor(2)],
    ids=["threaded-2", "process-2"],
)
class TestPooledPathsOnLargeInputs:
    """Inputs big enough that the pooled executors really split the grid."""

    @pytest.fixture
    def large_field(self):
        field = smooth_field((64, 64, 48), seed=2)
        assert field.size >= 2 * MIN_CHUNK_ELEMENTS
        return field

    def test_compress_bit_identical(self, executor_factory, large_field, settings_3d):
        executor = executor_factory()
        assert executor._effective_chunks(large_field.reshape(-1)) == 2
        reference = Compressor(settings_3d).compress(large_field)
        result = Compressor(settings_3d, executor=executor).compress(large_field)
        assert np.array_equal(result.maxima, reference.maxima)
        assert np.array_equal(result.indices, reference.indices)

    def test_decompress_bit_identical(self, executor_factory, large_field, settings_3d):
        compressed = Compressor(settings_3d).compress(large_field)
        expected = Compressor(settings_3d).decompress(compressed)
        result = Compressor(settings_3d, executor=executor_factory()).decompress(compressed)
        assert np.array_equal(result, expected)


class TestThreadedExecutorConfig:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_single_chunk_degenerate_case(self, field_2d, settings_2d):
        # one worker means one chunk: still correct
        reference = Compressor(settings_2d).compress(field_2d)
        result = Compressor(settings_2d, executor=ThreadedExecutor(1)).compress(field_2d)
        assert result.allclose(reference)


class TestExecutorEdgeCases:
    """Degenerate grids: more workers than blocks, one block total, 1-D blocks."""

    def test_more_workers_than_blocks(self):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        array = smooth_field((8, 8), seed=3)  # 4 blocks, 16 workers
        reference = Compressor(settings).compress(array)
        result = Compressor(settings, executor=ThreadedExecutor(16)).compress(array)
        assert result.allclose(reference)
        assert np.array_equal(result.indices, reference.indices)

    def test_single_block_grid(self):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        array = smooth_field((4, 4), seed=4)  # exactly one block
        reference = Compressor(settings).compress(array)
        for executor in (ThreadedExecutor(8), LoopExecutor(), ProcessExecutor(4)):
            result = Compressor(settings, executor=executor).compress(array)
            assert np.array_equal(result.indices, reference.indices)
            decompressed = Compressor(settings, executor=executor).decompress(result)
            assert np.array_equal(decompressed, Compressor(settings).decompress(reference))

    def test_one_dimensional_block_shape(self):
        settings = CompressionSettings(block_shape=(8,), float_format="float64",
                                       index_dtype="int16")
        array = smooth_field((45,), seed=5)  # ragged 1-D input, 6 blocks
        reference = Compressor(settings).compress(array)
        for executor in (ThreadedExecutor(4), LoopExecutor()):
            result = Compressor(settings, executor=executor).compress(array)
            assert result.allclose(reference)
            assert np.array_equal(result.maxima, reference.maxima)
            assert np.array_equal(result.indices, reference.indices)


class TestBinningParity:
    """The chunked executors and the vectorized path share one binning helper;

    this pins the dedupe: for every index dtype (including the int64 clamp guard)
    the two paths must stay bit-identical.
    """

    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    def test_chunked_binning_bit_identical_to_vectorized(self, index_dtype):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float64",
                                       index_dtype=index_dtype)
        array = smooth_field((20, 24), seed=6) * 1e6  # large values stress the clamp
        reference = Compressor(settings).compress(array)
        for executor in (ThreadedExecutor(3), LoopExecutor()):
            result = Compressor(settings, executor=executor).compress(array)
            assert result.indices.dtype == np.dtype(index_dtype)
            assert np.array_equal(result.maxima, reference.maxima)
            assert np.array_equal(result.indices, reference.indices)

    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    def test_shared_helper_matches_bin_coefficients(self, index_dtype):
        from repro.core.binning import block_maxima, scale_to_indices

        rng = np.random.default_rng(8)
        coefficients = rng.standard_normal((6, 4, 4)) * 1e3
        maxima, indices = bin_coefficients(coefficients, 2, np.dtype(index_dtype))
        rebuilt = scale_to_indices(
            coefficients, block_maxima(coefficients, 2), 2, np.dtype(index_dtype)
        )
        assert np.array_equal(indices, rebuilt)
        assert np.array_equal(maxima, block_maxima(coefficients, 2))
