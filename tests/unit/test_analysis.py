"""Unit tests for repro.analysis (reference operations and error metrics)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    absolute_error,
    max_absolute_error,
    mean_absolute_error,
    mean_relative_error,
    reference_cosine_similarity,
    reference_covariance,
    reference_dot,
    reference_l2_norm,
    reference_mean,
    reference_ssim,
    reference_variance,
    reference_wasserstein,
    relative_error,
)
from repro.analysis.reference import blockwise_means, pad_like_blocks


class TestReferenceOperations:
    def test_mean_variance_against_numpy(self, rng):
        a = rng.random((10, 12))
        assert reference_mean(a) == pytest.approx(a.mean())
        assert reference_variance(a) == pytest.approx(a.var())

    def test_padded_semantics(self, rng):
        a = rng.random((5, 5)) + 1.0
        padded = pad_like_blocks(a, (4, 4))
        assert padded.shape == (8, 8)
        assert reference_mean(a, pad_to=(4, 4)) == pytest.approx(padded.mean())
        assert reference_mean(a, pad_to=(4, 4)) < reference_mean(a)

    def test_covariance_against_numpy(self, rng):
        a, b = rng.random(100), rng.random(100)
        assert reference_covariance(a, b) == pytest.approx(float(np.cov(a, b, bias=True)[0, 1]))

    def test_covariance_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            reference_covariance(rng.random(4), rng.random(5))

    def test_dot_and_norm(self, rng):
        a, b = rng.random((3, 4)), rng.random((3, 4))
        assert reference_dot(a, b) == pytest.approx(float(np.vdot(a, b)))
        assert reference_l2_norm(a) == pytest.approx(float(np.linalg.norm(a)))

    def test_dot_and_norm_are_correctly_rounded(self, rng):
        # exact sums, not BLAS: the values cannot depend on BLAS threading
        a, b = rng.standard_normal((40, 30)), rng.standard_normal((40, 30))
        assert reference_dot(a, b) == math.fsum((a * b).ravel())
        assert reference_l2_norm(a) == math.sqrt(math.fsum((a * a).ravel()))
        assert reference_cosine_similarity(a, b) == reference_dot(a, b) / (
            reference_l2_norm(a) * reference_l2_norm(b)
        )

    def test_cosine_similarity_bounds_and_self(self, rng):
        a = rng.random(50)
        assert reference_cosine_similarity(a, a) == pytest.approx(1.0)
        b = rng.random(50)
        assert -1.0 <= reference_cosine_similarity(a, b) <= 1.0
        with pytest.raises(ZeroDivisionError):
            reference_cosine_similarity(a, np.zeros(50))

    def test_ssim_identical_is_one(self, rng):
        a = rng.random((8, 8))
        assert reference_ssim(a, a) == pytest.approx(1.0)

    def test_ssim_orders_similarity(self, rng):
        a = rng.random((16, 16))
        near = np.clip(a + 0.01, 0, 1)
        far = 1 - a
        assert reference_ssim(a, near) > reference_ssim(a, far)

    def test_blockwise_means(self):
        array = np.arange(16, dtype=float).reshape(4, 4)
        means = blockwise_means(array, (2, 2))
        assert means.shape == (2, 2)
        assert means[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_wasserstein_identity_and_symmetry(self, rng):
        a, b = rng.random(64), rng.random(64)
        assert reference_wasserstein(a, a, order=2) == pytest.approx(0.0, abs=1e-15)
        assert reference_wasserstein(a, b, order=2) == pytest.approx(
            reference_wasserstein(b, a, order=2)
        )

    def test_wasserstein_known_distributions(self):
        # two already-normalised distributions: sorted difference is explicit
        a = np.array([0.5, 0.5, 0.0, 0.0])
        b = np.array([0.25, 0.25, 0.25, 0.25])
        expected = ((2 * 0.25**1 + 2 * 0.25**1) / 4) ** 1.0
        assert reference_wasserstein(a, b, order=1) == pytest.approx(expected)

    def test_wasserstein_invalid_order(self, rng):
        with pytest.raises(ValueError):
            reference_wasserstein(rng.random(4), rng.random(4), order=0.2)

    def test_wasserstein_blockwise_proxy(self, rng):
        a, b = rng.random((8, 8)), rng.random((8, 8))
        fine = reference_wasserstein(a, b, order=1, block_shape=(2, 2))
        coarse = reference_wasserstein(a, b, order=1, block_shape=(8, 8))
        assert fine >= 0 and coarse >= 0


class TestMetrics:
    def test_absolute_and_relative(self):
        assert absolute_error(3.0, 2.0) == 1.0
        assert relative_error(3.0, 2.0) == pytest.approx(0.5)
        assert relative_error(3.0, 2.0, reference_scale=4.0) == pytest.approx(0.25)

    def test_relative_error_zero_reference(self):
        out = relative_error(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert out[0] == 0.0 and np.isinf(out[1])

    def test_relative_error_invalid_scale(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 2.0, reference_scale=0.0)

    def test_aggregate_metrics(self, rng):
        reference = rng.random(100)
        measured = reference + 0.1
        assert mean_absolute_error(measured, reference) == pytest.approx(0.1)
        assert max_absolute_error(measured, reference) == pytest.approx(0.1)

    def test_mean_relative_error_ignores_nonfinite(self):
        measured = np.array([1.0, 2.0])
        reference = np.array([0.0, 1.0])
        assert mean_relative_error(measured, reference) == pytest.approx(1.0)

    def test_mean_relative_error_all_nonfinite_is_nan(self):
        assert math.isnan(mean_relative_error(np.array([1.0]), np.array([0.0])))
