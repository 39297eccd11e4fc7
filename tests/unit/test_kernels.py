"""Unit tests for the kernel-backend registry and the backend wiring."""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor
from repro.core.codec import deserialize, serialize
from repro.core.exceptions import CodecError
from repro.kernels import (
    KernelBackend,
    available_backends,
    backend_is_available,
    get_backend,
    get_backend_class,
    parity_bound,
    register_backend,
)
from repro.kernels.gemm import GemmKernel, accumulation_dtype
from repro.kernels.reference import ReferenceKernel
from repro.kernels import registry as kernel_registry
from repro.streaming import ChunkedCompressor
from tests.conftest import smooth_field


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "reference" in names and "gemm" in names and "numba" in names

    def test_unknown_backend_raises_codec_error(self):
        with pytest.raises(CodecError, match="unknown kernel backend"):
            get_backend("does-not-exist")

    def test_invalid_registration_name(self):
        with pytest.raises(CodecError):
            register_backend("", ReferenceKernel)
        with pytest.raises(CodecError):
            register_backend("bad name!", ReferenceKernel)

    def test_invalid_registration_spec(self):
        with pytest.raises(CodecError):
            register_backend("broken", "no-colon-spec")
        with pytest.raises(CodecError):
            register_backend("broken", object)  # not a KernelBackend subclass

    def test_lazy_spec_resolution_and_caching(self):
        register_backend("lazyref", "repro.kernels.reference:ReferenceKernel")
        try:
            cls = get_backend_class("lazyref")
            assert cls is ReferenceKernel
            # resolved class is cached in place of the string spec
            assert kernel_registry._REGISTRY["lazyref"] is ReferenceKernel
            assert isinstance(get_backend("lazyref"), ReferenceKernel)
        finally:
            kernel_registry._REGISTRY.pop("lazyref", None)
            kernel_registry._INSTANCES.pop("lazyref", None)

    def test_bad_lazy_spec_import_error(self):
        register_backend("ghost", "repro.kernels.nothing:Nope")
        try:
            with pytest.raises(CodecError, match="failed to import"):
                get_backend_class("ghost")
        finally:
            kernel_registry._REGISTRY.pop("ghost", None)

    def test_instances_are_shared(self):
        assert get_backend("reference") is get_backend("reference")

    def test_unavailable_backend_refused_with_reason(self):
        if backend_is_available("numba"):
            pytest.skip("numba installed: the refusal path is not reachable")
        with pytest.raises(CodecError, match="numba is not installed"):
            get_backend("numba")

    def test_custom_backend_usable_by_name(self):
        calls = []

        class Recording(ReferenceKernel):
            name = "recording"

            def transform_and_bin(self, blocked, transform, settings):
                calls.append("fwd")
                return super().transform_and_bin(blocked, transform, settings)

        register_backend("recording", Recording)
        try:
            settings = CompressionSettings(block_shape=(4, 4), backend="recording")
            array = smooth_field((12, 12), seed=0)
            compressed = Compressor(settings).compress(array)
            assert calls == ["fwd"]
            reference = Compressor(settings.with_(backend="reference")).compress(array)
            assert np.array_equal(compressed.indices, reference.indices)
        finally:
            kernel_registry._REGISTRY.pop("recording", None)
            kernel_registry._INSTANCES.pop("recording", None)


class TestSettingsBackendField:
    def test_default_is_reference(self):
        assert CompressionSettings(block_shape=(4, 4)).backend == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(CodecError, match="unknown kernel backend"):
            CompressionSettings(block_shape=(4, 4), backend="warp-drive")

    def test_backend_excluded_from_equality_and_compatibility(self):
        a = CompressionSettings(block_shape=(4, 4), backend="reference")
        b = CompressionSettings(block_shape=(4, 4), backend="gemm")
        assert a == b  # execution detail, not part of the compressed form
        assert hash(a) == hash(b)
        assert a.is_compatible_with(b)

    def test_describe_mentions_non_default_backend_only(self):
        assert "backend" not in CompressionSettings(block_shape=(4, 4)).describe()
        assert "backend=gemm" in CompressionSettings(block_shape=(4, 4), backend="gemm").describe()

    def test_serialization_does_not_carry_backend(self):
        settings = CompressionSettings(block_shape=(4, 4), backend="gemm")
        compressed = Compressor(settings).compress(smooth_field((8, 8), seed=1))
        restored = deserialize(serialize(compressed))
        assert restored.settings.backend == "reference"
        assert restored.settings.is_compatible_with(settings)


class TestGemmKernel:
    def test_accumulation_dtype_follows_working_format(self):
        low = CompressionSettings(block_shape=(4, 4), float_format="float16")
        high = CompressionSettings(block_shape=(4, 4), float_format="float64")
        assert accumulation_dtype(low) == np.float32
        assert accumulation_dtype(high) == np.float64

    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    def test_indices_stay_inside_dtype_range(self, index_dtype):
        # float32(radius) can round *above* the dtype's maximum (e.g. int32);
        # the clip limit must prevent the final cast from wrapping
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype=index_dtype
        )
        array = smooth_field((16, 16), seed=3) * 1e6
        compressed = Compressor(settings, backend="gemm").compress(array)
        info = np.iinfo(np.dtype(index_dtype))
        assert compressed.indices.min() >= info.min + 1
        assert compressed.indices.max() <= info.max

    @pytest.mark.parametrize("index_dtype", ["int16", "int32", "int64"])
    def test_tiny_magnitude_blocks_do_not_overflow_the_scale(self, index_dtype):
        # radius / maxima overflows float32 to inf for tiny block maxima; the
        # kernel must divide by the maximum first, like scale_to_indices does
        settings = CompressionSettings(
            block_shape=(4, 4), float_format="float32", index_dtype=index_dtype
        )
        array = smooth_field((16, 16), seed=8) * 1e-36
        reference = Compressor(settings).compress(array)
        fast = Compressor(settings, backend="gemm").compress(array)
        bound = parity_bound(get_backend("gemm"), settings, reference.maxima)
        dec_ref = Compressor(settings).decompress(reference)
        dec_fast = Compressor(settings).decompress(fast)
        assert np.max(np.abs(dec_ref - dec_fast)) <= bound

    def test_input_array_is_not_mutated(self):
        # a contiguous input already at the accumulation dtype must not be
        # reused as the in-place binning scratch buffer
        settings = CompressionSettings(block_shape=(4, 4), float_format="float64")
        blocked = np.ascontiguousarray(smooth_field((8, 8), seed=9).reshape(4, 4, 4))
        before = blocked.copy()
        from repro.core.transforms import get_transform

        get_backend("gemm").transform_and_bin(
            blocked, get_transform("dct", (4, 4)), settings
        )
        assert np.array_equal(blocked, before)

    def test_tolerance_zero_for_reference_positive_for_gemm(self):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32")
        assert get_backend("reference").accumulation_tolerance(settings) == 0.0
        assert get_backend("gemm").accumulation_tolerance(settings) > 0.0

    def test_parity_bound_scales_with_maxima(self):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32")
        gemm = get_backend("gemm")
        small = parity_bound(gemm, settings, np.asarray([1.0]))
        large = parity_bound(gemm, settings, np.asarray([100.0]))
        assert 0.0 < small < large

    def test_large_block_per_axis_fallback(self):
        # 32x32x32 blocks exceed MAX_FUSED_OPERATOR (32768 > 1024): exercises
        # the per-axis GEMM path against the reference kernel
        settings = CompressionSettings(
            block_shape=(32, 32, 32), float_format="float64", index_dtype="int16"
        )
        array = smooth_field((32, 32, 64), seed=4)
        reference = Compressor(settings).compress(array)
        fast = Compressor(settings, backend="gemm").compress(array)
        dec_ref = Compressor(settings).decompress(reference)
        dec_fast = Compressor(settings).decompress(fast)
        bound = parity_bound(get_backend("gemm"), settings, reference.maxima)
        assert np.max(np.abs(dec_ref - dec_fast)) <= bound


class TestBackendWiring:
    def test_compressor_argument_overrides_settings(self):
        settings = CompressionSettings(block_shape=(4, 4), backend="gemm")
        compressor = Compressor(settings, backend="reference")
        assert isinstance(compressor.kernel, ReferenceKernel)

    def test_compressor_defaults_to_settings_backend(self):
        settings = CompressionSettings(block_shape=(4, 4), backend="gemm")
        assert isinstance(Compressor(settings).kernel, GemmKernel)

    def test_chunked_compressor_defaults_to_reference(self):
        # even when the settings ask for gemm: streaming bit-identity wins
        settings = CompressionSettings(block_shape=(4, 4), backend="gemm")
        array = smooth_field((24, 12), seed=6)
        compressor = ChunkedCompressor(settings, slab_rows=8)
        assert compressor.backend == "reference"
        chunked = compressor.compress(array)
        one_shot = Compressor(settings.with_(backend="reference")).compress(array)
        assert np.array_equal(chunked.indices, one_shot.indices)
        assert np.array_equal(chunked.maxima, one_shot.maxima)

    def test_chunked_compressor_explicit_backend(self):
        settings = CompressionSettings(block_shape=(4, 4))
        array = smooth_field((24, 12), seed=6)
        chunked = ChunkedCompressor(settings, slab_rows=8, backend="gemm")
        assert chunked.backend == "gemm"
        compressed = chunked.compress(array)
        reference = Compressor(settings).compress(array)
        # gemm is not bit-exact but indices stay within one bin of reference
        delta = np.abs(
            compressed.indices.astype(np.int64) - reference.indices.astype(np.int64)
        )
        assert delta.max() <= 1

    def test_pyblaz_codec_backend_parameter(self):
        from repro.codecs import get_codec

        array = smooth_field((16, 16), seed=7)
        fast = get_codec("pyblaz", backend="gemm")
        plain = get_codec("pyblaz")
        blob = fast.to_bytes(fast.compress(array))
        roundtrip = fast.decompress(fast.from_bytes(blob))
        assert roundtrip.shape == array.shape
        assert np.max(np.abs(roundtrip - plain.decompress(plain.compress(array)))) < 1e-2


class TestAbstractInterface:
    def test_kernel_backend_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()  # abstract methods must be implemented
