"""Unit tests for the once-per-geometry chunk metadata caches.

Three memoised pieces keep a fold step's cost independent of per-property
Python overhead: the block geometry of a shape
(:func:`repro.core.settings.block_geometry`), the mask-derived settings values
computed once per :class:`CompressionSettings`, and one settings object per
store geometry header (:func:`repro.core.codec.unpack_block_geometry`).  Each
must give exactly what the uncached formulas gave, and each cache is bounded.
"""

import numpy as np
import pytest

from repro import streaming
from repro.core import CompressionSettings, Compressor
from repro.core import codec
from repro.core.pruning import corner_pruning_mask
from repro.core.settings import block_geometry
from tests.conftest import smooth_field

RAGGED_CASES = [
    ((4,), (1,)),
    ((4,), (37,)),
    ((8,), (64,)),
    ((4, 4), (13, 7)),
    ((4, 8), (33, 65)),
    ((2, 2), (1, 1)),
    ((4, 4, 4), (9, 5, 17)),
    ((2, 4, 8), (3, 12, 30)),
]


class TestSettingsDerivedValues:
    def test_mask_is_read_only_without_pruning(self):
        settings = CompressionSettings(block_shape=(4, 4))
        with pytest.raises(ValueError):
            settings.mask[0, 0] = False

    def test_mask_is_read_only_with_pruning(self):
        settings = CompressionSettings(block_shape=(4, 4),
                                       pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
        with pytest.raises(ValueError):
            settings.mask[0, 0] = False

    def test_mask_is_one_object_per_settings(self):
        settings = CompressionSettings(block_shape=(4, 4, 4))
        assert settings.mask is settings.mask
        assert settings.mask.all() and settings.mask.shape == (4, 4, 4)

    @pytest.mark.parametrize("block_shape", [(4,), (4, 8), (2, 4, 8)])
    def test_derived_values_match_the_mask_formulas(self, block_shape):
        mask = corner_pruning_mask(block_shape, tuple(max(1, b // 2) for b in block_shape))
        for pruning in (None, mask):
            settings = CompressionSettings(block_shape=block_shape, pruning_mask=pruning)
            effective = np.ones(block_shape, dtype=bool) if pruning is None else pruning
            assert settings.kept_per_block == int(effective.sum())
            assert settings.first_coefficient_kept == bool(effective[(0,) * len(block_shape)])
            assert settings.dc_scale == float(
                np.prod(np.sqrt(np.asarray(block_shape, dtype=np.float64)))
            )

    def test_dc_pruned_mask_reports_first_coefficient_dropped(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        settings = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        assert not settings.first_coefficient_kept

    def test_replaced_settings_recompute_derived_values(self):
        settings = CompressionSettings(block_shape=(4, 4))
        pruned = settings.with_(pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
        assert settings.kept_per_block == 16
        assert pruned.kept_per_block == 12

    def test_equal_masked_settings_compare_and_hash_equal(self):
        mask = corner_pruning_mask((4, 4), (2, 2))
        a = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        b = CompressionSettings(block_shape=(4, 4), pruning_mask=mask.copy())
        assert a == b and hash(a) == hash(b)
        assert a != CompressionSettings(block_shape=(4, 4))


class TestBlockGeometry:
    @pytest.mark.parametrize("block_shape, shape", RAGGED_CASES)
    def test_matches_the_uncached_formulas(self, block_shape, shape):
        geometry = block_geometry(block_shape, shape)
        grid = tuple(-(-s // b) for s, b in zip(shape, block_shape))
        padded = tuple(g * b for g, b in zip(grid, block_shape))
        assert geometry.grid_shape == grid
        assert geometry.padded_shape == padded
        assert geometry.n_blocks == int(np.prod(grid))
        assert geometry.n_elements == int(np.prod(shape))
        assert geometry.n_padded_elements == int(np.prod(padded))
        settings = CompressionSettings(block_shape=block_shape)
        assert settings.block_grid_shape(shape) == grid
        assert settings.padded_shape(shape) == padded
        assert settings.n_blocks(shape) == int(np.prod(grid))

    @pytest.mark.parametrize("block_shape, shape", RAGGED_CASES)
    def test_compressed_array_reads_the_cached_geometry(self, block_shape, shape):
        settings = CompressionSettings(block_shape=block_shape)
        compressed = Compressor(settings).compress(smooth_field(shape, seed=len(shape)))
        grid = tuple(-(-s // b) for s, b in zip(shape, block_shape))
        assert compressed.grid_shape == grid
        assert compressed.n_blocks == int(np.prod(grid)) == compressed.maxima.size
        assert compressed.n_elements == int(np.prod(shape))
        assert compressed.padded_shape == tuple(g * b for g, b in zip(grid, block_shape))
        assert compressed.n_padded_elements == int(np.prod(compressed.padded_shape))

    def test_invalid_shapes_still_raise(self):
        settings = CompressionSettings(block_shape=(4, 4))
        with pytest.raises(ValueError):
            settings.block_grid_shape((8,))
        with pytest.raises(ValueError):
            settings.block_grid_shape((0, 8))

    def test_cache_is_bounded(self):
        maxsize = block_geometry.cache_info().maxsize
        assert maxsize is not None
        for rows in range(1, maxsize + 50):
            block_geometry((4,), (rows,))
        assert block_geometry.cache_info().currsize <= maxsize


class TestOneSettingsObjectPerStore:
    @pytest.mark.parametrize("pruned", [False, True])
    def test_chunks_of_one_store_share_settings(self, tmp_path, pruned):
        mask = corner_pruning_mask((4, 4), (2, 2)) if pruned else None
        settings = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        data = smooth_field((40, 12), seed=3)
        path = tmp_path / "store.pblzc"
        streaming.ChunkedCompressor(settings, slab_rows=8).compress_to_store(data, path).close()
        with streaming.CompressedStore(path) as store:
            first, second, last = (store.read_chunk(i) for i in (0, 1, store.n_chunks - 1))
        assert first.settings is second.settings is last.settings
        fresh = CompressionSettings(block_shape=(4, 4), pruning_mask=mask)
        assert first.settings == fresh
        assert np.array_equal(first.settings.mask, fresh.mask)
        assert first.settings.kept_per_block == fresh.kept_per_block

    def test_round_trip_is_unchanged(self):
        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int8",
                                       pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
        compressed = Compressor(settings).compress(smooth_field((13, 9), seed=5))
        restored = codec.deserialize(codec.serialize(compressed))
        assert restored.settings == settings
        assert np.array_equal(restored.indices, compressed.indices)
        assert np.array_equal(restored.maxima, compressed.maxima)
        assert codec.deserialize(codec.serialize(compressed)).settings is restored.settings

    def test_cache_is_bounded(self):
        cache = codec._settings_from_geometry
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        for extent in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            for second in (1, 2, 4, 8, 16, 32, 64, 128, 256):
                settings = CompressionSettings(block_shape=(extent, second))
                packed = codec.pack_block_geometry(settings)
                codec.unpack_block_geometry(packed, 0, 2, settings.float_format,
                                            settings.index_dtype, settings.transform)
        assert cache.cache_info().currsize <= maxsize
