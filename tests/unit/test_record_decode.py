"""Record decode: :func:`repro.core.codec.deserialize` against a header parsed once.

``deserialize`` looks each stream's header bytes up in a bounded memo of
parsed, checked layouts and reads the payload by offset.  The oracle here is
the full header walk it replaced — type codes, shape, block geometry, then
the payload slices and the checked :class:`CompressedArray` constructor — so
every decode, corrupt or not, is compared with what that walk returns or
raises.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import streaming
from repro.codecs.serialization import DECODE_ERRORS
from repro.core import CompressionSettings, Compressor, codec
from repro.core.compressed import CompressedArray
from repro.core.exceptions import CodecError
from repro.core.pruning import corner_pruning_mask, low_frequency_mask
from repro.streaming.sources import aligned_chunks
from tests.conftest import smooth_field


def walk_deserialize(data: bytes) -> CompressedArray:
    """The full per-stream header walk (the decoder before the layout memo)."""
    if data[:5] == b"PBLZC":
        raise CodecError("this is a PyBlaz chunked store")
    if data[:4] != b"PBLZ":
        raise CodecError("not a PyBlaz compressed stream (bad magic)")
    offset = 4
    (version,) = struct.unpack_from("<B", data, offset)
    offset += 1
    if version != 2:
        raise CodecError(f"unsupported stream version {version}")
    float_format, index_dtype, transform, ndim, offset = codec.unpack_type_codes(data, offset)
    shape = struct.unpack_from(f"<{ndim}Q", data, offset)
    offset += 8 * ndim
    settings, offset = codec.unpack_block_geometry(
        data, offset, ndim, float_format, index_dtype, transform
    )
    n_blocks = settings.n_blocks(shape)
    maxima_nbytes = codec.float_bytes(n_blocks, float_format)
    maxima = codec.unpack_floats(data[offset:offset + maxima_nbytes], n_blocks, float_format)
    offset += maxima_nbytes
    maxima = maxima.reshape(settings.block_grid_shape(shape))
    kept = settings.kept_per_block
    indices = np.frombuffer(
        data, dtype=index_dtype.newbyteorder("<"), count=n_blocks * kept, offset=offset
    )
    indices = indices.astype(index_dtype).reshape(n_blocks, kept)
    return CompressedArray(settings=settings, shape=shape, maxima=maxima, indices=indices)


def assert_same_array(decoded: CompressedArray, expected: CompressedArray) -> None:
    """Equal settings, shape and payload bits, and the same instance fields."""
    assert decoded.settings == expected.settings
    assert decoded.settings.float_format == expected.settings.float_format
    assert decoded.shape == expected.shape
    assert decoded.maxima.dtype == expected.maxima.dtype == np.float64
    assert decoded.maxima.shape == expected.maxima.shape
    assert decoded.maxima.tobytes() == expected.maxima.tobytes()
    assert decoded.indices.dtype == expected.indices.dtype
    assert decoded.indices.shape == expected.indices.shape
    assert np.array_equal(decoded.indices, expected.indices)
    assert vars(decoded).keys() == vars(expected).keys()
    assert decoded.grid_shape == expected.grid_shape
    assert decoded.n_blocks == expected.n_blocks
    assert decoded.n_padded_elements == expected.n_padded_elements


def outcome(decode, data: bytes):
    """``("ok", array)`` or ``("raised", exception type)`` of one decode."""
    try:
        return "ok", decode(data)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raised", type(exc)


def assert_same_outcome(data: bytes) -> None:
    """The memoised decode returns or raises what the header walk does."""
    expected = outcome(walk_deserialize, data)
    got = outcome(codec.deserialize, data)
    assert got[0] == expected[0], (got, expected)
    if expected[0] == "ok":
        assert_same_array(got[1], expected[1])
    else:
        assert got[1] is expected[1]
        assert issubclass(got[1], DECODE_ERRORS + (CodecError,))


def record(shape, *, float_format="float32", index_dtype="int16", block=None,
           mask=None, transform="dct", seed=0) -> bytes:
    """One serialized array of ``shape`` under the given settings."""
    block = block or (4,) * len(shape)
    settings = CompressionSettings(block_shape=block, float_format=float_format,
                                   index_dtype=index_dtype, transform=transform,
                                   pruning_mask=mask)
    return codec.serialize(Compressor(settings).compress(smooth_field(shape, seed=seed)))


class TestAgainstHeaderWalk:
    @pytest.mark.parametrize("float_format", ["bfloat16", "float16", "float32", "float64"])
    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    @pytest.mark.parametrize("shape", [(37,), (12, 20), (9, 6, 10)])
    def test_formats_dtypes_and_dimensions(self, float_format, index_dtype, shape):
        assert_same_outcome(record(shape, float_format=float_format,
                                   index_dtype=index_dtype))

    @pytest.mark.parametrize("mask", [
        low_frequency_mask((4, 4), 0.25),
        corner_pruning_mask((4, 4), (2, 2)),
        corner_pruning_mask((4, 4), (1, 1)),
    ])
    @pytest.mark.parametrize("transform", ["dct", "haar"])
    def test_pruning_masks(self, mask, transform):
        assert_same_outcome(record((13, 9), mask=mask, transform=transform,
                                   index_dtype="int8"))

    def test_non_hypercubic_pruned_3d(self):
        mask = low_frequency_mask((2, 4, 8), 0.5)
        assert_same_outcome(record((6, 9, 17), block=(2, 4, 8), mask=mask,
                                   float_format="bfloat16"))

    @pytest.mark.parametrize("slab_rows", [4, 8, 12])
    def test_store_records_with_a_ragged_last_chunk(self, tmp_path, slab_rows):
        settings = CompressionSettings(block_shape=(4, 4), index_dtype="int32",
                                       pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
        path = tmp_path / "store.pblzc"
        streaming.ChunkedCompressor(settings, slab_rows=slab_rows).compress_to_store(
            smooth_field((41, 14), seed=4), path).close()
        with streaming.CompressedStore(path) as store:
            payloads = [store.read_payload(index) for index in range(store.n_chunks)]
            assert store.chunk_rows[-1] % 4 != 0
        for payload in payloads:
            assert_same_outcome(payload)

    def test_views_of_the_record_decode_alike(self):
        data = record((12, 20))
        expected = walk_deserialize(data)
        for view in (memoryview(data), bytearray(data)):
            assert_same_array(codec.deserialize(view), expected)


class TestDecodedArraysAreOwned:
    def test_writable_copies_of_the_payload(self):
        data = record((16, 12), index_dtype="int16")
        first = codec.deserialize(data)
        assert first.indices.flags.writeable and first.maxima.flags.writeable
        first.indices[...] = 0
        first.maxima[...] = 0.0
        second = codec.deserialize(data)
        assert second.indices.any() and second.maxima.any()
        assert not np.shares_memory(first.indices, second.indices)
        assert not np.shares_memory(first.maxima, second.maxima)

    def test_records_of_one_header_share_the_parsed_header(self):
        first = codec.deserialize(record((16, 12), seed=1))
        second = codec.deserialize(record((16, 12), seed=2))
        assert first.settings is second.settings
        assert first.shape == second.shape
        assert first._geometry is second._geometry
        assert not np.array_equal(first.indices, second.indices)


class TestHeaderMemo:
    def test_every_changed_header_byte_is_parsed_afresh(self):
        data = record((10, 12), index_dtype="int8",
                      mask=corner_pruning_mask((4, 4), (2, 2)))
        codec.deserialize(data)  # the unchanged header is memoised first
        header_end = 9 + 16 * 2 + 4 + 2  # ndim 2, a 16-bit mask in 2 bytes
        for position in range(5, header_end):
            for flip in (0x01, 0x80, 0xFF):
                changed = bytearray(data)
                changed[position] ^= flip
                assert_same_outcome(bytes(changed))
        assert_same_outcome(data)

    @pytest.mark.parametrize("changes", [
        {"float_format": "float64"}, {"index_dtype": "int32"}, {"transform": "haar"},
        {"block": (4, 8)}, {"mask": low_frequency_mask((4, 4), 0.5)}, {"shape": (10, 13)},
    ])
    def test_each_settings_field_gives_its_own_layout(self, changes):
        changes = dict(changes)
        shape = changes.pop("shape", (10, 12))
        base = codec.deserialize(record((10, 12)))
        other = codec.deserialize(record(shape, **changes))
        assert_same_array(other, walk_deserialize(record(shape, **changes)))
        assert (other.settings != base.settings) or (other.shape != base.shape)

    def test_memo_is_bounded(self):
        memo = codec._record_layout
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None
        for rows in range(1, maxsize + 40):
            codec.deserialize(record((rows, 4), block=(4, 4)))
        assert memo.cache_info().currsize <= maxsize

    def test_failed_headers_are_not_memoised(self):
        data = bytearray(record((8, 8)))
        data[5] = 9  # no float format has code 9
        before = codec._record_layout.cache_info().currsize
        with pytest.raises(KeyError):
            codec.deserialize(bytes(data))
        assert codec._record_layout.cache_info().currsize <= before


class TestCorruptRecords:
    @pytest.mark.parametrize("float_format", ["bfloat16", "float64"])
    def test_every_truncation_raises_what_the_walk_raises(self, float_format):
        data = record((8, 12), float_format=float_format)
        for length in range(len(data)):
            assert_same_outcome(data[:length])

    def test_wrong_prefixes(self):
        data = record((8, 8))
        for bad in (b"PBLZC" + data[5:], b"NOPE" + data[4:], data[:4] + b"\x07" + data[5:],
                    b"", b"PB", b"PBLZ"):
            assert_same_outcome(bad)
        with pytest.raises(CodecError, match="chunked store"):
            codec.deserialize(b"PBLZC" + data[5:])
        with pytest.raises(CodecError, match="version 7"):
            codec.deserialize(data[:4] + b"\x07" + data[5:])

    def test_non_positive_shape_is_rejected(self):
        data = bytearray(record((8, 8)))
        struct.pack_into("<Q", data, 9, 0)  # first shape extent → 0
        assert_same_outcome(bytes(data))
        with pytest.raises(CodecError, match="positive"):
            codec.deserialize(bytes(data))


class TestMisalignedSources:
    @pytest.fixture
    def chunks(self):
        settings = CompressionSettings(block_shape=(4, 4))
        compressor = Compressor(settings)
        return [compressor.compress(smooth_field((rows, 8), seed=rows))
                for rows in (8, 8, 5)]

    @pytest.mark.parametrize("short_first", [True, False])
    def test_a_source_running_out_early(self, chunks, short_first):
        sources = (chunks[:2], chunks) if short_first else (chunks, chunks[:2])
        with pytest.raises(ValueError, match="one ran out of chunks early"):
            list(aligned_chunks(sources))

    def test_chunk_shapes_differ(self, chunks):
        with pytest.raises(ValueError, match=r"chunk shapes differ \(.*\(5, 8\).*\); "
                                             "recompress with matching slab_rows"):
            list(aligned_chunks((chunks, chunks[:2] + chunks[:1])))

    def test_aligned_sources_yield_every_tuple(self, chunks):
        tuples = list(aligned_chunks((chunks, chunks, chunks)))
        assert [tuple(map(id, t)) for t in tuples] == [(id(c),) * 3 for c in chunks]
