"""Unit tests for the codec protocol, registry, and shared error type."""

import numpy as np
import pytest

from repro.codecs import (
    Codec,
    CodecCapabilities,
    available_codecs,
    detect_codec,
    get_codec,
    get_codec_class,
    register_codec,
)
from repro.codecs.registry import _REGISTRY
from repro.core.errors import CodecError
from tests.conftest import smooth_field

BUILTINS = ("blaz", "huffman", "pyblaz", "sz", "zfp")


@pytest.fixture
def registry_snapshot():
    """Restore the global registry after tests that register/override codecs."""
    saved = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(saved)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_codecs() == BUILTINS

    def test_get_codec_returns_protocol_instances(self):
        for name in BUILTINS:
            codec = get_codec(name)
            assert isinstance(codec, Codec)
            assert codec.name == name
            assert isinstance(codec.capabilities, CodecCapabilities)
            assert len(codec.magic) == 4

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(CodecError, match="unknown codec 'nope'.*pyblaz"):
            get_codec("nope")

    def test_invalid_constructor_params_raise_codec_error(self):
        with pytest.raises(CodecError, match="invalid parameters for codec 'zfp'"):
            get_codec("zfp", no_such_knob=1)

    def test_invalid_registration_specs_rejected(self, registry_snapshot):
        with pytest.raises(CodecError, match="identifier"):
            register_codec("", "m:C")
        with pytest.raises(CodecError, match="module:ClassName"):
            register_codec("bad", "no_colon_here")
        with pytest.raises(CodecError, match="Codec subclass"):
            register_codec("bad", object)

    def test_lazy_spec_import_failure_is_codec_error(self, registry_snapshot):
        register_codec("ghost", "no.such.module:Ghost", magic=b"GHO1")
        assert "ghost" in available_codecs()  # listing never imports
        with pytest.raises(CodecError, match="failed to import"):
            get_codec_class("ghost")

    def test_third_party_registration_and_override(self, registry_snapshot):
        class Tiny(Codec):
            name = "tiny"
            magic = b"TNY1"
            capabilities = CodecCapabilities(ndims=(1,), lossless=True)

            def compress(self, array):
                return np.asarray(array)

            def decompress(self, compressed):
                return compressed

            def to_bytes(self, compressed):
                return self.magic + compressed.astype("<f8").tobytes()

            @classmethod
            def from_bytes(cls, data):
                return np.frombuffer(data[4:], dtype="<f8").astype(np.float64)

            def compression_ratio(self, array_shape, input_bits=64):
                return 1.0

            def roundtrip_bound(self, array):
                return 0.0

        register_codec("tiny", Tiny)
        assert "tiny" in available_codecs()
        assert detect_codec(Tiny().to_bytes(np.ones(3))) == "tiny"
        # re-registration replaces (the third-party-override path)
        register_codec("tiny", "elsewhere.module:Better", magic=b"TNY2")
        assert _REGISTRY["tiny"][0] == "elsewhere.module:Better"


class TestDetectCodec:
    def test_detects_every_builtin_stream(self):
        field = smooth_field((16, 16), seed=4)
        for name in BUILTINS:
            codec = get_codec(name)
            assert detect_codec(codec.to_bytes(codec.compress(field))) == name

    def test_unknown_magic_rejected(self):
        with pytest.raises(CodecError, match="no registered codec"):
            detect_codec(b"\x00\x01\x02\x03\x04\x05")

    def test_store_bytes_point_at_the_streaming_reader(self):
        with pytest.raises(CodecError, match="stream-decompress"):
            detect_codec(b"PBLZC rest of a chunked store")


class TestProtocolValidation:
    def test_unsupported_ndim_raises_codec_error(self):
        with pytest.raises(CodecError, match="2.*dimensional"):
            get_codec("blaz").compress(np.zeros((4, 4, 4)))

    def test_empty_array_raises_codec_error(self):
        for name in BUILTINS:
            with pytest.raises(CodecError, match="empty"):
                get_codec(name).compress(np.empty((0, 4)))

    def test_non_numeric_dtype_raises_codec_error(self):
        with pytest.raises(CodecError, match="numeric"):
            get_codec("huffman").compress(np.array([["a", "b"]]))

    def test_non_finite_input_raises_codec_error_for_lossy_codecs(self):
        bad = np.array([[1.0, np.inf], [0.0, 2.0]])
        for name in ("pyblaz", "zfp", "sz"):
            with pytest.raises(CodecError):
                get_codec(name).compress(bad)

    def test_huffman_losslessly_stores_non_finite_values(self):
        bad = np.array([[1.0, np.inf], [np.nan, 2.0]])
        codec = get_codec("huffman")
        back = codec.decompress(codec.from_bytes(codec.to_bytes(codec.compress(bad))))
        assert np.array_equal(back, bad, equal_nan=True)

    def test_corrupt_stream_magic_raises_codec_error(self):
        for name in ("blaz", "zfp", "sz", "huffman"):
            with pytest.raises(CodecError, match="bad magic"):
                get_codec_class(name).from_bytes(b"XXXXXXXXXXXXXXXX")

    def test_measured_ratio_matches_serialized_size(self):
        field = smooth_field((24, 24), seed=5)
        codec = get_codec("zfp")
        blob = codec.to_bytes(codec.compress(field))
        assert np.isclose(codec.measured_ratio(field), field.nbytes / len(blob))

    def test_describe_mentions_capabilities(self):
        description = get_codec("huffman").describe()
        assert "huffman" in description and "lossless=yes" in description
