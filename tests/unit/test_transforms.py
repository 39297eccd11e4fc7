"""Unit tests for repro.core.transforms."""

import numpy as np
import pytest

from repro.core.blocking import block_array
from repro.core.transforms import (
    Transform,
    dct_matrix,
    get_transform,
    haar_matrix,
    identity_matrix,
    transform_matrix,
)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("builder", [dct_matrix, haar_matrix, identity_matrix])
class TestMatrixOrthonormality:
    def test_orthonormal(self, size, builder):
        matrix = builder(size)
        assert matrix.shape == (size, size)
        assert np.allclose(matrix @ matrix.T, np.eye(size), atol=1e-12)

    def test_unit_determinant_magnitude(self, size, builder):
        matrix = builder(size)
        assert abs(abs(np.linalg.det(matrix)) - 1.0) < 1e-10


class TestDCTMatrix:
    def test_first_row_is_constant_basis(self):
        matrix = dct_matrix(8)
        assert np.allclose(matrix[0], np.full(8, np.sqrt(1.0 / 8)))

    def test_dc_coefficient_is_scaled_mean(self, rng):
        signal = rng.random(8)
        coefficients = dct_matrix(8) @ signal
        assert coefficients[0] == pytest.approx(signal.mean() * np.sqrt(8))

    def test_preserves_dot_product(self, rng):
        matrix = dct_matrix(16)
        a, b = rng.random(16), rng.random(16)
        assert np.dot(matrix @ a, matrix @ b) == pytest.approx(np.dot(a, b))

    def test_matches_scipy_orthonormal_dct(self, rng):
        scipy_fft = pytest.importorskip("scipy.fft")
        signal = rng.random(8)
        ours = dct_matrix(8) @ signal
        theirs = scipy_fft.dct(signal, norm="ortho")
        assert np.allclose(ours, theirs)

    def test_cached_instances_are_reused(self):
        assert dct_matrix(8) is dct_matrix(8)

    def test_matrices_are_readonly(self):
        with pytest.raises(ValueError):
            dct_matrix(4)[0, 0] = 1.0


class TestHaarMatrix:
    def test_first_row_is_constant_basis(self):
        matrix = haar_matrix(8)
        assert np.allclose(matrix[0], np.full(8, np.sqrt(1.0 / 8)))

    def test_haar_4_known_values(self):
        matrix = haar_matrix(4)
        expected_row1 = np.array([0.5, 0.5, -0.5, -0.5])
        assert np.allclose(matrix[1], expected_row1)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            haar_matrix(6)


class TestTransformMatrixDispatch:
    def test_known_names(self):
        assert np.array_equal(transform_matrix("dct", 4), dct_matrix(4))
        assert np.array_equal(transform_matrix("haar", 4), haar_matrix(4))
        assert np.array_equal(transform_matrix("identity", 4), identity_matrix(4))

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            transform_matrix("dft", 4)


@pytest.mark.parametrize("name", ["dct", "haar", "identity"])
class TestSeparableTransform:
    def test_forward_inverse_roundtrip(self, rng, name):
        transform = Transform(name, (4, 8))
        blocked = block_array(rng.random((8, 16)), (4, 8))
        restored = transform.inverse(transform.forward(blocked))
        assert np.allclose(restored, blocked, atol=1e-12)

    def test_preserves_dot_products_blockwise(self, rng, name):
        transform = Transform(name, (4, 4))
        a = block_array(rng.random((8, 8)), (4, 4))
        b = block_array(rng.random((8, 8)), (4, 4))
        ca, cb = transform.forward(a), transform.forward(b)
        assert np.sum(ca * cb) == pytest.approx(np.sum(a * b))

    def test_preserves_l2_norm(self, rng, name):
        transform = Transform(name, (2, 2, 2))
        blocked = block_array(rng.random((4, 4, 4)), (2, 2, 2))
        assert np.linalg.norm(transform.forward(blocked)) == pytest.approx(
            np.linalg.norm(blocked)
        )

    def test_rejects_wrong_block_extents(self, rng, name):
        transform = Transform(name, (4, 4))
        with pytest.raises(ValueError):
            transform.forward(rng.random((2, 2, 4, 8)))


class TestDCProperty:
    @pytest.mark.parametrize("name", ["dct", "haar"])
    def test_first_coefficient_is_scaled_block_mean(self, rng, name):
        transform = Transform(name, (4, 4, 4))
        blocked = block_array(rng.random((8, 8, 8)), (4, 4, 4))
        coefficients = transform.forward(blocked)
        dc = coefficients[..., 0, 0, 0]
        block_means = blocked.mean(axis=(-1, -2, -3))
        assert np.allclose(dc, block_means * transform.dc_scale())

    def test_dc_scale_value(self):
        assert Transform("dct", (4, 16, 16)).dc_scale() == pytest.approx(np.sqrt(4 * 16 * 16))

    def test_has_dc_property_flags(self):
        assert Transform("dct", (4,)).has_dc_property()
        assert Transform("haar", (4,)).has_dc_property()
        assert not Transform("identity", (4,)).has_dc_property()


class TestGetTransformCache:
    def test_same_instance_returned(self):
        assert get_transform("dct", (4, 4)) is get_transform("dct", (4, 4))

    def test_different_blocks_different_instances(self):
        assert get_transform("dct", (4, 4)) is not get_transform("dct", (8, 8))

    def test_single_block_application(self, rng):
        # the transform also applies to a single block (no leading grid axes)
        transform = get_transform("dct", (4, 4))
        block = rng.random((4, 4))
        restored = transform.inverse(transform.forward(block))
        assert np.allclose(restored, block)
