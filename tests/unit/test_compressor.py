"""Unit tests for repro.core.compressor and repro.core.compressed."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor
from repro.core.compressed import CompressedArray
from repro.core.pruning import low_frequency_mask, top_k_mask
from tests.conftest import smooth_field


class TestCompressDecompress:
    def test_roundtrip_error_small_on_smooth_data(self, compressor_3d, field_3d):
        restored = compressor_3d.roundtrip(field_3d)
        assert restored.shape == field_3d.shape
        assert np.abs(restored - field_3d).max() < 5e-3

    def test_roundtrip_shape_not_multiple_of_block(self, compressor_3d):
        array = smooth_field((7, 9, 11), seed=3)
        restored = compressor_3d.roundtrip(array)
        assert restored.shape == (7, 9, 11)
        assert np.abs(restored - array).max() < 5e-2

    @pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8), (4, 4, 4, 4)])
    def test_arbitrary_dimensionality(self, shape):
        settings = CompressionSettings(block_shape=(4,) * len(shape), float_format="float64",
                                       index_dtype="int16")
        compressor = Compressor(settings)
        array = smooth_field(shape, seed=4)
        restored = compressor.roundtrip(array)
        assert np.abs(restored - array).max() < 1e-2

    def test_error_decreases_with_wider_index_type(self, field_3d):
        errors = {}
        for dtype in ("int8", "int16", "int32"):
            settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float64",
                                           index_dtype=dtype)
            errors[dtype] = np.abs(Compressor(settings).roundtrip(field_3d) - field_3d).max()
        assert errors["int16"] < errors["int8"]
        assert errors["int32"] < errors["int16"]

    def test_constant_array_roundtrips_exactly(self):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float64",
                                       index_dtype="int16")
        array = np.full((8, 8), 3.25)
        restored = Compressor(settings).roundtrip(array)
        assert np.allclose(restored, array, atol=1e-12)

    def test_zero_array_roundtrips_exactly(self, compressor_2d):
        array = np.zeros((16, 16))
        assert np.array_equal(compressor_2d.roundtrip(array), array)

    def test_float16_conversion_loss_visible(self, field_3d):
        lo = CompressionSettings(block_shape=(4, 4, 4), float_format="float16",
                                 index_dtype="int32")
        hi = CompressionSettings(block_shape=(4, 4, 4), float_format="float64",
                                 index_dtype="int32")
        err_lo = np.abs(Compressor(lo).roundtrip(field_3d) - field_3d).max()
        err_hi = np.abs(Compressor(hi).roundtrip(field_3d) - field_3d).max()
        assert err_hi < err_lo

    def test_pruning_increases_error_but_preserves_mean_structure(self, field_3d):
        full = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                   index_dtype="int16")
        pruned = full.with_(pruning_mask=low_frequency_mask((4, 4, 4), 0.25))
        err_full = np.abs(Compressor(full).roundtrip(field_3d) - field_3d).max()
        err_pruned = np.abs(Compressor(pruned).roundtrip(field_3d) - field_3d).max()
        assert err_pruned > err_full
        # low-frequency content survives: means stay close
        assert Compressor(pruned).roundtrip(field_3d).mean() == pytest.approx(
            field_3d.mean(), abs=1e-2
        )

    def test_compression_error_helper(self, compressor_3d, field_3d):
        error = compressor_3d.compression_error(field_3d)
        assert error.shape == field_3d.shape
        assert np.abs(error).max() < 5e-3


class TestCompressValidation:
    def test_dimensionality_mismatch(self, compressor_3d, rng):
        with pytest.raises(ValueError):
            compressor_3d.compress(rng.random((8, 8)))

    def test_empty_array_rejected(self, compressor_2d):
        with pytest.raises(ValueError):
            compressor_2d.compress(np.empty((0, 8)))

    def test_non_finite_rejected(self, compressor_2d):
        array = np.ones((8, 8))
        array[0, 0] = np.nan
        with pytest.raises(ValueError):
            compressor_2d.compress(array)
        array[0, 0] = np.inf
        with pytest.raises(ValueError):
            compressor_2d.compress(array)


class TestCompressedArrayContainer:
    def test_structure(self, compressor_3d, field_3d, settings_3d):
        compressed = compressor_3d.compress(field_3d)
        assert compressed.shape == field_3d.shape
        assert compressed.grid_shape == settings_3d.block_grid_shape(field_3d.shape)
        assert compressed.maxima.shape == compressed.grid_shape
        assert compressed.indices.shape == (compressed.n_blocks, settings_3d.kept_per_block)
        assert compressed.indices.dtype == settings_3d.index_dtype
        assert compressed.n_padded_elements >= compressed.n_elements

    def test_specified_coefficients_shape_and_pruned_zeros(self, field_3d):
        mask = top_k_mask((4, 4, 4), 10)
        settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                       index_dtype="int16", pruning_mask=mask)
        compressed = Compressor(settings).compress(field_3d)
        coefficients = compressed.specified_coefficients()
        assert coefficients.shape == compressed.grid_shape + (4, 4, 4)
        assert np.all(coefficients[..., ~mask] == 0)

    def test_blockwise_means_match_padded_block_means(self, compressor_3d, field_3d):
        compressed = compressor_3d.compress(field_3d)
        means = compressed.blockwise_means()
        from repro.core.blocking import block_array

        blocked = block_array(field_3d, (4, 4, 4))
        true_means = blocked.mean(axis=(-1, -2, -3))
        assert np.allclose(means, true_means, atol=1e-3)

    def test_first_coefficients_requires_dc_kept(self, field_3d):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[1, 0, 0] = True  # keep something, but not the DC slot
        settings = CompressionSettings(block_shape=(4, 4, 4), pruning_mask=mask)
        compressed = Compressor(settings).compress(field_3d)
        with pytest.raises(ValueError):
            compressed.first_coefficients()

    @pytest.mark.parametrize("shape, block", [
        ((37,), (8,)), ((19, 26), (4, 8)), ((9, 14, 11), (4, 4, 4)),
    ])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_dc_only_path_equals_full_materialisation(self, shape, block, pruned):
        """The DC column read straight from the indices has the bits of the
        DC slots of the full ``specified_coefficients`` array."""
        from repro.core.ops import folds

        mask = low_frequency_mask(block, keep_fraction=0.5) if pruned else None
        settings = CompressionSettings(block_shape=block, float_format="float32",
                                       index_dtype="int16", pruning_mask=mask)
        compressed = Compressor(settings).compress(smooth_field(shape, seed=9))
        dense = compressed.specified_coefficients()
        expected = np.ascontiguousarray(dense[(Ellipsis,) + (0,) * len(block)])
        first = compressed.first_coefficients()
        assert first.shape == compressed.grid_shape
        assert first.tobytes() == expected.tobytes()
        dc = folds.dc_partial(compressed).sums["dc"][0]
        assert dc.tobytes() == expected.ravel().tobytes()

    def test_dc_partial_requires_dc_kept(self, field_3d):
        from repro.core.ops import folds

        mask = np.ones((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = False
        settings = CompressionSettings(block_shape=(4, 4, 4), pruning_mask=mask)
        compressed = Compressor(settings).compress(field_3d)
        with pytest.raises(ValueError, match="first coefficient"):
            folds.dc_partial(compressed)

    def test_copy_is_deep(self, compressor_3d, field_3d):
        compressed = compressor_3d.compress(field_3d)
        duplicate = compressed.copy()
        duplicate.indices[0, 0] = 0 if duplicate.indices[0, 0] != 0 else 1
        assert not np.array_equal(duplicate.indices, compressed.indices)
        assert duplicate.is_compatible_with(compressed)

    def test_validation_of_maxima_shape(self, settings_3d, compressor_3d, field_3d):
        compressed = compressor_3d.compress(field_3d)
        with pytest.raises(ValueError):
            CompressedArray(settings=settings_3d, shape=field_3d.shape,
                            maxima=np.zeros((1, 1)), indices=compressed.indices)

    def test_validation_of_indices_dtype(self, settings_3d, compressor_3d, field_3d):
        compressed = compressor_3d.compress(field_3d)
        with pytest.raises(ValueError):
            CompressedArray(settings=settings_3d, shape=field_3d.shape,
                            maxima=compressed.maxima,
                            indices=compressed.indices.astype(np.int8))

    def test_allclose_detects_difference(self, compressor_3d, field_3d):
        a = compressor_3d.compress(field_3d)
        b = compressor_3d.compress(field_3d + 0.5)
        assert a.allclose(a.copy())
        assert not a.allclose(b)
