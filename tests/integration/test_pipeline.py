"""Integration tests spanning the whole pipeline: compress → operate → decompress → files."""

import numpy as np
import pytest

from repro.analysis import (
    reference_cosine_similarity,
    reference_covariance,
    reference_dot,
    reference_l2_norm,
    reference_mean,
    reference_ssim,
    reference_variance,
)
from repro.core import CompressionSettings, Compressor, ops
from repro.core.codec import deserialize, serialize
from repro.core.pruning import low_frequency_mask
from tests.conftest import smooth_field


SETTING_MATRIX = [
    CompressionSettings(block_shape=(4, 4, 4), float_format="float32", index_dtype="int16"),
    CompressionSettings(block_shape=(8, 8, 8), float_format="float64", index_dtype="int8"),
    CompressionSettings(block_shape=(4, 8, 8), float_format="float32", index_dtype="int16",
                        transform="haar"),
    CompressionSettings(block_shape=(4, 4, 4), float_format="float64", index_dtype="int16",
                        pruning_mask=low_frequency_mask((4, 4, 4), 0.5)),
]


@pytest.mark.parametrize("settings", SETTING_MATRIX, ids=lambda s: s.describe())
class TestEndToEndAcrossSettings:
    def test_full_workflow(self, settings):
        compressor = Compressor(settings)
        a = smooth_field((24, 24, 24), seed=1)
        b = smooth_field((24, 24, 24), seed=2)
        ca, cb = compressor.compress(a), compressor.compress(b)
        da, db = compressor.decompress(ca), compressor.decompress(cb)

        # round trip quality scales with the settings but always reconstructs structure
        assert np.corrcoef(da.ravel(), a.ravel())[0, 1] > 0.99

        # scalar ops agree with the same op on the decompressed data ("no additional error")
        assert ops.mean(ca) == pytest.approx(reference_mean(da), rel=1e-8, abs=1e-10)
        assert ops.variance(ca) == pytest.approx(reference_variance(da), rel=1e-6, abs=1e-10)
        assert ops.l2_norm(ca) == pytest.approx(reference_l2_norm(da), rel=1e-8)
        assert ops.dot(ca, cb) == pytest.approx(reference_dot(da, db), rel=1e-6)
        assert ops.covariance(ca, cb) == pytest.approx(
            reference_covariance(da, db), rel=1e-4, abs=1e-8
        )
        assert ops.cosine_similarity(ca, cb) == pytest.approx(
            reference_cosine_similarity(da, db), rel=1e-8
        )
        assert ops.structural_similarity(ca, cb) == pytest.approx(
            reference_ssim(da, db), rel=1e-5
        )

        # array ops remain decompressable and close to the truth (tolerance scales
        # with the data range: coarser settings re-bin against larger block maxima)
        total = compressor.decompress(ops.add(ca, cb))
        assert np.abs(total - (a + b)).max() < 0.05 * np.abs(a + b).max() + 0.05

        # serialization of operation results round-trips
        stream = serialize(ops.multiply_scalar(ca, -2.0))
        restored = deserialize(stream)
        assert np.allclose(
            compressor.decompress(restored), -2.0 * da, rtol=1e-6, atol=1e-6
        )


class TestMixedPipelines:
    def test_operation_chains_stay_consistent(self, compressor_3d, field_3d):
        # ((a + b) * 2 - a) compared against the same chain on raw data
        b_raw = smooth_field(field_3d.shape, seed=8)
        ca = compressor_3d.compress(field_3d)
        cb = compressor_3d.compress(b_raw)
        chained = ops.subtract(ops.multiply_scalar(ops.add(ca, cb), 2.0), ca)
        result = compressor_3d.decompress(chained)
        expected = (field_3d + b_raw) * 2.0 - field_3d
        assert np.abs(result - expected).max() < 0.2
        assert ops.mean(chained) == pytest.approx(expected.mean(), abs=5e-3)

    def test_compress_operate_on_simulated_data(self):
        # shallow-water output through the difference pipeline used in Fig 4
        from repro.simulators import ShallowWaterConfig, ShallowWaterSimulator

        sim = ShallowWaterSimulator(ShallowWaterConfig(nx=32, ny=32))
        low = sim.run(4000, "float16").final_height
        high = sim.run(4000, "float32").final_height
        settings = CompressionSettings(block_shape=(16, 16), float_format="float32",
                                       index_dtype="int8")
        compressor = Compressor(settings)
        diff = compressor.decompress(
            ops.add(compressor.compress(low), ops.negate(compressor.compress(high)))
        )
        true_diff = low - high
        # compressed-space difference recovers the perturbation field's scale
        assert diff.shape == true_diff.shape
        assert np.abs(diff).max() <= np.abs(true_diff).max() * 3 + 1e-9
        if np.abs(true_diff).max() > 0:
            assert np.corrcoef(diff.ravel(), true_diff.ravel())[0, 1] > 0.3
