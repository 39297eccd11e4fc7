"""Serialization of compressed arrays and compression-ratio accounting (§IV-C).

The stored components of a compressed array are, following the paper:

* the floating-point and integer types, specified in 4 bits,
* the original shape ``s`` (64 bits per dimension),
* a marker for the end of ``s`` (up to 64 bits),
* the block shape ``i`` (64 bits per dimension),
* the pruning mask ``P`` flattened (``prod(i)`` bits),
* the per-block maxima ``N`` flattened (``f`` bits each, ``prod(ceil(s ⊘ i))`` blocks),
* the kept bin indices ``F`` (``i_bits * sum(P)`` bits per block).

Two kinds of sizes are exposed: the *accounting* size of §IV-C (used for the
compression-ratio figures of the paper, e.g. the ≈2.91 and ≈10.66 worked examples)
and the *actual* byte size of the serialized stream produced by :func:`serialize`,
which includes a small fixed header and byte-alignment overhead.

The byte format is self-describing: :func:`deserialize` reconstructs the
:class:`CompressedArray` (including its :class:`CompressionSettings`) from the bytes
alone, which the file-level round-trip tests exercise.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from ..numerics import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, FloatFormat
from .compressed import CompressedArray
from .exceptions import CodecError
from .settings import CompressionSettings

__all__ = [
    "stored_component_bits",
    "compressed_size_bits",
    "compression_ratio",
    "asymptotic_compression_ratio",
    "pack_floats",
    "unpack_floats",
    "float_bytes",
    "pack_type_codes",
    "unpack_type_codes",
    "pack_block_geometry",
    "unpack_block_geometry",
    "serialize",
    "deserialize",
    "save",
    "load",
]

_MAGIC = b"PBLZ"
_VERSION = 2
#: Every stream opens with the magic and the version byte.
_PREFIX = _MAGIC + bytes([_VERSION])
_PREFIX_BYTES = len(_PREFIX)
#: Offset of the dimensionality byte, after the prefix and three type codes.
_NDIM_AT = _PREFIX_BYTES + 3

_FLOAT_CODES: dict[str, int] = {"bfloat16": 0, "float16": 1, "float32": 2, "float64": 3}
_FLOAT_BY_CODE: dict[int, FloatFormat] = {0: BFLOAT16, 1: FLOAT16, 2: FLOAT32, 3: FLOAT64}
_INDEX_CODES: dict[str, int] = {"int8": 0, "int16": 1, "int32": 2, "int64": 3}
_INDEX_BY_CODE: dict[int, np.dtype] = {
    0: np.dtype(np.int8),
    1: np.dtype(np.int16),
    2: np.dtype(np.int32),
    3: np.dtype(np.int64),
}
_TRANSFORM_CODES: dict[str, int] = {"dct": 0, "haar": 1, "identity": 2}
_TRANSFORM_BY_CODE = {v: k for k, v in _TRANSFORM_CODES.items()}
#: Wire dtype of packed floats per format; bfloat16 keeps the upper half of
#: each float32's bits (:func:`pack_floats`).
_BFLOAT16_WIRE = np.dtype("<u2")
_WIRE_FLOATS: dict[str, np.dtype] = {
    "bfloat16": _BFLOAT16_WIRE,
    "float16": np.dtype("<f2"),
    "float32": np.dtype("<f4"),
    "float64": np.dtype("<f8"),
}


# --------------------------------------------------------------------------- accounting
def stored_component_bits(
    settings: CompressionSettings, array_shape: tuple[int, ...]
) -> dict[str, int]:
    """Bit count of each stored component for ``array_shape`` under ``settings``.

    Follows the component list of §IV-C exactly; the returned dict has keys
    ``type_tags``, ``shape``, ``shape_marker``, ``block_shape``, ``pruning_mask``,
    ``maxima`` and ``indices``.
    """
    ndim = len(array_shape)
    n_blocks = settings.n_blocks(array_shape)
    f_bits = settings.float_format.storage_bits
    i_bits = settings.index_dtype.itemsize * 8
    kept = settings.kept_per_block
    return {
        "type_tags": 4,
        "shape": 64 * ndim,
        "shape_marker": 64,
        "block_shape": 64 * ndim,
        "pruning_mask": settings.block_size,
        "maxima": f_bits * n_blocks,
        "indices": i_bits * kept * n_blocks,
    }


def compressed_size_bits(settings: CompressionSettings, array_shape: tuple[int, ...]) -> int:
    """Total stored size in bits per the §IV-C accounting."""
    return int(sum(stored_component_bits(settings, array_shape).values()))


def compression_ratio(
    settings: CompressionSettings,
    array_shape: tuple[int, ...],
    input_bits_per_element: int = 64,
) -> float:
    """Exact compression ratio ``(u · Πs) / stored bits`` for a finite array.

    ``input_bits_per_element`` is ``u`` in the paper's formula — the width of the
    uncompressed elements (64 for FP64 inputs).
    """
    numerator = float(input_bits_per_element) * float(np.prod(array_shape))
    return numerator / float(compressed_size_bits(settings, array_shape))


def asymptotic_compression_ratio(
    settings: CompressionSettings,
    array_shape: tuple[int, ...],
    input_bits_per_element: int = 64,
) -> float:
    """The §IV-C limit ratio ``u Πs / ((f + i ΣP) Π⌈s ⊘ i⌉)``.

    Ignores the per-array constant overhead (type tags, shapes, mask), which the
    exact ratio approaches as the array grows.
    """
    f_bits = settings.float_format.storage_bits
    i_bits = settings.index_dtype.itemsize * 8
    kept = settings.kept_per_block
    n_blocks = settings.n_blocks(array_shape)
    numerator = float(input_bits_per_element) * float(np.prod(array_shape))
    denominator = float(f_bits + i_bits * kept) * float(n_blocks)
    return numerator / denominator


# --------------------------------------------------------------------------- float packing
def pack_floats(values: np.ndarray, fmt: FloatFormat) -> bytes:
    """Pack float64 values into the working format's storage width."""
    wire = _WIRE_FLOATS.get(fmt.name)
    if wire is None:  # pragma: no cover - defensive
        raise ValueError(f"unsupported float format {fmt}")
    values = np.asarray(values, dtype=np.float64).ravel()
    if wire is _BFLOAT16_WIRE:
        bits = values.astype(np.float32).view(np.uint32)
        return (bits >> np.uint32(16)).astype(wire).tobytes()
    return values.astype(wire).tobytes()


def unpack_floats(data: bytes, count: int, fmt: FloatFormat, offset: int = 0) -> np.ndarray:
    """Inverse of :func:`pack_floats`: ``count`` values at ``offset``, as float64."""
    wire = _WIRE_FLOATS.get(fmt.name)
    if wire is None:  # pragma: no cover - defensive
        raise ValueError(f"unsupported float format {fmt}")
    values = np.frombuffer(data, wire, count, offset)
    if wire is _BFLOAT16_WIRE:
        values = (values.astype(np.uint32) << np.uint32(16)).view(np.float32)
    return values.astype(np.float64)


def float_bytes(count: int, fmt: FloatFormat) -> int:
    """Byte length of ``count`` packed values in format ``fmt``."""
    return count * (fmt.storage_bits // 8)


# --------------------------------------------------------------------------- settings packing
# These pieces are shared between the one-shot stream format (v2, below) and the
# chunked :class:`repro.streaming.CompressedStore` format, which interleaves its own
# chunk table but reuses the identical settings encoding.
def pack_type_codes(settings: CompressionSettings, ndim: int) -> bytes:
    """Pack the float/index/transform type codes and dimensionality (4 bytes)."""
    return struct.pack(
        "<BBBB",
        _FLOAT_CODES[settings.float_format.name],
        _INDEX_CODES[settings.index_dtype.name],
        _TRANSFORM_CODES[settings.transform],
        ndim,
    )


def unpack_type_codes(data: bytes, offset: int) -> tuple[FloatFormat, np.dtype, str, int, int]:
    """Inverse of :func:`pack_type_codes`.

    Returns ``(float_format, index_dtype, transform, ndim, new_offset)``.
    """
    float_code, index_code, transform_code, ndim = struct.unpack_from("<BBBB", data, offset)
    return (
        _FLOAT_BY_CODE[float_code],
        _INDEX_BY_CODE[index_code],
        _TRANSFORM_BY_CODE[transform_code],
        ndim,
        offset + 4,
    )


def pack_block_geometry(settings: CompressionSettings) -> bytes:
    """Pack the block shape and pruning mask (the data-independent geometry)."""
    ndim = settings.ndim
    out = struct.pack(f"<{ndim}Q", *settings.block_shape)
    mask_bits = np.packbits(settings.mask.ravel().astype(np.uint8))
    out += struct.pack("<I", mask_bits.size)
    out += mask_bits.tobytes()
    return out


def unpack_block_geometry(
    data: bytes,
    offset: int,
    ndim: int,
    float_format: FloatFormat,
    index_dtype: np.dtype,
    transform: str,
) -> tuple[CompressionSettings, int]:
    """Inverse of :func:`pack_block_geometry`; returns ``(settings, new_offset)``.

    Every chunk of a store repeats the same geometry header, so the (immutable)
    settings are memoised per header bytes: the chunks decoded from one store
    share one settings object instead of each rebuilding and re-validating it.
    """
    (mask_nbytes,) = struct.unpack_from("<I", data, offset + 8 * ndim)
    end = offset + 8 * ndim + 4 + mask_nbytes
    # mask_nbytes goes in explicitly: a truncated header must fail in frombuffer,
    # not unpack as a shorter, zero-padded mask
    settings = _settings_from_geometry(
        bytes(data[offset:end]), ndim, mask_nbytes, float_format, index_dtype, transform
    )
    return settings, end


@lru_cache(maxsize=64)
def _settings_from_geometry(
    geometry: bytes,
    ndim: int,
    mask_nbytes: int,
    float_format: FloatFormat,
    index_dtype: np.dtype,
    transform: str,
) -> CompressionSettings:
    """Build the settings one packed geometry header describes (bounded memo)."""
    block_shape = struct.unpack_from(f"<{ndim}Q", geometry, 0)
    block_size = math.prod(block_shape)
    if mask_nbytes != -(-block_size // 8):
        # checked before unpacking: a corrupt extent must not size the mask
        raise CodecError(
            f"corrupt block geometry: a {mask_nbytes}-byte pruning mask for "
            f"blocks of {block_size} coefficients"
        )
    mask_bits = np.frombuffer(
        geometry, dtype=np.uint8, count=mask_nbytes, offset=8 * ndim + 4
    )
    mask = np.unpackbits(mask_bits, count=block_size).astype(bool).reshape(block_shape)
    return CompressionSettings(
        block_shape=block_shape,
        float_format=float_format,
        index_dtype=index_dtype,
        transform=transform,
        pruning_mask=None if mask.all() else mask,
    )


# --------------------------------------------------------------------------- serialization
def serialize(compressed: CompressedArray) -> bytes:
    """Serialize a compressed array to a self-describing byte string."""
    settings = compressed.settings
    ndim = settings.ndim
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<B", _VERSION)
    header += pack_type_codes(settings, ndim)
    header += struct.pack(f"<{ndim}Q", *compressed.shape)
    header += pack_block_geometry(settings)

    payload = bytearray()
    payload += pack_floats(compressed.maxima, settings.float_format)
    payload += np.ascontiguousarray(
        compressed.indices, dtype=settings.index_dtype.newbyteorder("<")
    ).tobytes()
    return bytes(header) + bytes(payload)


def deserialize(data: bytes) -> CompressedArray:
    """Reconstruct a :class:`CompressedArray` from bytes produced by :func:`serialize`.

    The header — type codes, shape, block geometry — is parsed and checked
    once per distinct header bytes (:func:`_record_layout`); every stream
    repeating it, as the chunk records of one store do, decodes by offsets
    alone.  The returned arrays are fresh copies, owned and writable.
    """
    if data[:_PREFIX_BYTES] != _PREFIX:
        _reject_prefix(data)
    (ndim,) = struct.unpack_from("<B", data, _NDIM_AT)
    mask_at = _NDIM_AT + 1 + 16 * ndim
    (mask_nbytes,) = struct.unpack_from("<I", data, mask_at)
    layout = _record_layout(bytes(data[_PREFIX_BYTES:mask_at + 4 + mask_nbytes]))
    return layout.decode(data)


def _reject_prefix(data: bytes) -> None:
    """Raise the :class:`CodecError` for a stream not opening with ``PBLZ`` v2."""
    if data[:5] == _MAGIC + b"C":
        # the chunked-store magic "PBLZC" shares this format's "PBLZ" prefix;
        # catch it here so the error names the right tool instead of reporting a
        # bogus version number
        raise CodecError(
            "this is a PyBlaz chunked store; open it with "
            "repro.streaming.CompressedStore (CLI: stream-decompress)"
        )
    if data[:4] != _MAGIC:
        raise CodecError("not a PyBlaz compressed stream (bad magic)")
    (version,) = struct.unpack_from("<B", data, len(_MAGIC))
    raise CodecError(f"unsupported stream version {version}")


class _RecordLayout:
    """What one stream header describes, and where its payload lies.

    Parsing the header validates it: the settings are built (and checked) by
    :func:`unpack_block_geometry`, and the shape against them by
    :meth:`CompressionSettings.geometry`, which raises for a dimensionality
    mismatch or a non-positive extent.  Every array :meth:`decode` builds
    then satisfies the :class:`CompressedArray` invariants by construction —
    the maxima are float64 shaped like the block grid, the indices carry the
    settings' dtype shaped ``(n_blocks, kept)`` — so it skips re-checking
    them per record.
    """

    __slots__ = ("settings", "shape", "geometry", "maxima_at", "indices_wire",
                 "indices_at", "indices_shape")

    def __init__(self, header: bytes):
        float_format, index_dtype, transform, ndim, offset = unpack_type_codes(header, 0)
        self.shape = struct.unpack_from(f"<{ndim}Q", header, offset)
        self.settings, end = unpack_block_geometry(
            header, offset + 8 * ndim, ndim, float_format, index_dtype, transform
        )
        self.geometry = self.settings.geometry(self.shape)
        n_blocks = self.geometry.n_blocks
        self.maxima_at = _PREFIX_BYTES + end
        self.indices_wire = index_dtype.newbyteorder("<")
        self.indices_at = self.maxima_at + float_bytes(n_blocks, float_format)
        self.indices_shape = (n_blocks, self.settings.kept_per_block)

    def decode(self, data: bytes) -> CompressedArray:
        """The array one stream with this header holds (payload read by offset)."""
        n_blocks, kept = self.indices_shape
        settings = self.settings
        maxima = unpack_floats(data, n_blocks, settings.float_format, self.maxima_at)
        indices = np.frombuffer(data, self.indices_wire, n_blocks * kept, self.indices_at)
        array = CompressedArray.__new__(CompressedArray)
        # the fields __post_init__ would set, from the header checked once
        vars(array).update(
            settings=settings,
            shape=self.shape,
            maxima=maxima.reshape(self.geometry.grid_shape),
            indices=indices.astype(settings.index_dtype).reshape(n_blocks, kept),
            _geometry=self.geometry,
        )
        return array


@lru_cache(maxsize=256)
def _record_layout(header: bytes) -> _RecordLayout:
    """The parsed, checked :class:`_RecordLayout` of one header (bounded memo).

    ``header`` runs from the type codes through the pruning mask.  A store's
    records share one or two headers (full slabs and a ragged last one), so
    a sweep parses each once; any changed byte is a new key, parsed afresh.
    A header that fails to parse raises and is not memoised.
    """
    return _RecordLayout(header)


def save(compressed: CompressedArray, path) -> None:
    """Write a compressed array to ``path``."""
    with open(path, "wb") as handle:
        handle.write(serialize(compressed))


def load(path) -> CompressedArray:
    """Read a compressed array previously written by :func:`save`."""
    with open(path, "rb") as handle:
        return deserialize(handle.read())
