"""Unit tests for repro.core.binning."""

import numpy as np
import pytest

from repro.core.binning import (
    bin_coefficients,
    block_maxima,
    index_radius,
    scale_to_indices,
    unbin_indices,
)


class TestIndexRadius:
    @pytest.mark.parametrize(
        "dtype,expected",
        [("int8", 127), ("int16", 32767), ("int32", 2**31 - 1), ("int64", 2**63 - 1)],
    )
    def test_radius_values(self, dtype, expected):
        assert index_radius(np.dtype(dtype)) == expected

    def test_rejects_unsigned(self):
        with pytest.raises(ValueError):
            index_radius(np.dtype(np.uint8))

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            index_radius(np.dtype(np.float32))


class TestBlockMaxima:
    def test_maxima_per_block(self):
        coefficients = np.array([[[1.0, -3.0], [0.5, 2.0]], [[0.0, 0.0], [-7.0, 4.0]]])
        # treat trailing 2 axes as the block
        maxima = block_maxima(coefficients, block_ndim=2)
        assert maxima.shape == (2,)
        assert maxima[0] == 3.0 and maxima[1] == 7.0

    def test_invalid_block_ndim(self, rng):
        with pytest.raises(ValueError):
            block_maxima(rng.random((2, 2)), block_ndim=3)


class TestBinUnbinRoundTrip:
    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32"])
    def test_error_bounded_by_half_step(self, rng, dtype):
        coefficients = rng.standard_normal((6, 4, 4))
        maxima, indices = bin_coefficients(coefficients, block_ndim=2, index_dtype=np.dtype(dtype))
        restored = unbin_indices(indices, maxima, block_ndim=2)
        radius = index_radius(np.dtype(dtype))
        bound = maxima.reshape(-1, 1, 1) / (2 * radius)
        assert np.all(np.abs(restored - coefficients) <= bound * (1 + 1e-12))

    def test_indices_dtype_and_range(self, rng):
        coefficients = rng.standard_normal((3, 4, 4)) * 100
        maxima, indices = bin_coefficients(coefficients, 2, np.dtype(np.int8))
        assert indices.dtype == np.int8
        assert indices.min() >= -127 and indices.max() <= 127

    def test_biggest_coefficient_gets_full_radius(self):
        block = np.array([[[0.1, 0.2], [0.3, -1.0]]])
        maxima, indices = bin_coefficients(block, 2, np.dtype(np.int8))
        assert maxima[0] == 1.0
        assert indices[0, 1, 1] == -127

    def test_zero_block_is_exact(self):
        block = np.zeros((2, 4, 4))
        maxima, indices = bin_coefficients(block, 2, np.dtype(np.int16))
        assert np.all(maxima == 0)
        assert np.all(indices == 0)
        assert np.all(unbin_indices(indices, maxima, 2) == 0)

    def test_int16_finer_than_int8(self, rng):
        coefficients = rng.standard_normal((8, 4, 4))
        err = {}
        for dtype in ("int8", "int16"):
            maxima, indices = bin_coefficients(coefficients, 2, np.dtype(dtype))
            restored = unbin_indices(indices, maxima, 2)
            err[dtype] = np.abs(restored - coefficients).max()
        assert err["int16"] < err["int8"]

    def test_proportionality_of_indices(self, rng):
        # indices are proportional to coefficients within a block (key property for
        # compressed-space negation / scalar multiplication)
        coefficients = rng.standard_normal((1, 8))
        maxima, indices = bin_coefficients(coefficients, 1, np.dtype(np.int32))
        restored = unbin_indices(indices, maxima, 1)
        ratio = restored[coefficients != 0] / coefficients[coefficients != 0]
        assert np.allclose(ratio, 1.0, atol=1e-6)


class TestUnbinValidation:
    def test_requires_integer_indices(self, rng):
        with pytest.raises(ValueError):
            unbin_indices(rng.random((2, 4)), np.ones(2), 1)

    def test_maxima_shape_mismatch(self, rng):
        _, indices = bin_coefficients(rng.random((2, 4)), 1, np.dtype(np.int8))
        with pytest.raises(ValueError):
            unbin_indices(indices, np.ones(3), 1)


class TestScaleToIndices:
    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    def test_matches_bin_coefficients(self, index_dtype):
        # given the block maxima, the helper alone reproduces the binning
        rng = np.random.default_rng(8)
        coefficients = rng.standard_normal((6, 4, 4)) * 1e3
        maxima, indices = bin_coefficients(coefficients, 2, np.dtype(index_dtype))
        rebuilt = scale_to_indices(
            coefficients, block_maxima(coefficients, 2), 2, np.dtype(index_dtype)
        )
        assert np.array_equal(indices, rebuilt)
        assert np.array_equal(maxima, block_maxima(coefficients, 2))
