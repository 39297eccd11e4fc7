"""The :class:`Codec` protocol every compressor in this repository implements.

A codec is the unit the CLI, the experiment harnesses and the benchmarks
program against: something that turns an array into a compressed object,
turns that object into self-describing bytes and back, and reports its compression
ratio.  Capability flags (:class:`CodecCapabilities`) describe what each codec can
handle — dimensionalities, input dtypes, compressed-space operations, losslessness —
so consumers can iterate the registry and skip combinations a codec does not
support instead of special-casing names.

The contract, for a codec ``c`` and a supported array ``x``:

* ``c.decompress(c.from_bytes(c.to_bytes(c.compress(x))))`` reconstructs ``x``
  within ``c.roundtrip_bound(x)`` in L∞ (exactly, for lossless codecs), and the
  bytes trip changes nothing: decompressing the deserialized object equals
  decompressing the original object bit for bit.
* ``to_bytes`` output starts with the codec's :attr:`magic`, so streams are
  self-identifying (:func:`repro.codecs.detect_codec`).
* invalid dtypes/shapes/parameters raise :class:`repro.core.errors.CodecError`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from ..core.exceptions import CodecError

__all__ = ["Codec", "CodecCapabilities"]


@dataclass(frozen=True)
class CodecCapabilities:
    """What a codec supports, for registry consumers to query.

    Parameters
    ----------
    ndims:
        Array dimensionalities the codec accepts.
    dtypes:
        Input dtypes the codec is designed for (informational; integer inputs are
        promoted to float64 by the lossy codecs).
    compressed_ops:
        Names of the operations the codec can perform in compressed space without
        decompressing (empty for codecs that only store).
    lossless:
        Whether decompression reproduces the input bit for bit.
    """

    ndims: tuple[int, ...]
    dtypes: tuple[str, ...] = ("float32", "float64")
    compressed_ops: tuple[str, ...] = field(default=())
    lossless: bool = False

    def describe(self) -> str:
        """One-line human-readable capability summary."""
        ops = ",".join(self.compressed_ops) if self.compressed_ops else "-"
        return (
            f"ndims={','.join(map(str, self.ndims))} "
            f"dtypes={','.join(self.dtypes)} "
            f"lossless={'yes' if self.lossless else 'no'} ops={ops}"
        )


class Codec(abc.ABC):
    """Abstract base for every compressor backend.

    Subclasses set :attr:`name` (the registry key), :attr:`magic` (the 4-byte
    stream prefix emitted by :meth:`to_bytes`) and :attr:`capabilities`, and
    implement the abstract methods.  See the module docstring of
    :mod:`repro.codecs` for how to register a third-party implementation.
    """

    #: Registry key, e.g. ``"zfp"``.
    name: ClassVar[str]
    #: First bytes of every stream :meth:`to_bytes` produces.
    magic: ClassVar[bytes]
    #: What this codec supports.
    capabilities: ClassVar[CodecCapabilities]

    # ------------------------------------------------------------------ protocol
    @abc.abstractmethod
    def compress(self, array: np.ndarray) -> Any:
        """Compress ``array`` into this codec's compressed object."""

    @abc.abstractmethod
    def decompress(self, compressed: Any) -> np.ndarray:
        """Reconstruct an array from a compressed object."""

    @abc.abstractmethod
    def to_bytes(self, compressed: Any) -> bytes:
        """Serialize a compressed object to a self-describing byte string."""

    @classmethod
    @abc.abstractmethod
    def from_bytes(cls, data: bytes) -> Any:
        """Inverse of :meth:`to_bytes`.

        A classmethod on purpose: the stream is self-describing, so no instance
        parameters are needed to decode it (the chunked store relies on this to
        decode its pyblaz chunks).
        """

    @abc.abstractmethod
    def compression_ratio(self, array_shape: tuple[int, ...], input_bits: int = 64) -> float:
        """Nominal (data-independent) compression ratio for ``array_shape``.

        Codecs whose output size depends on the data (entropy coders) return
        ``nan``; use :meth:`measured_ratio` for those.
        """

    @abc.abstractmethod
    def roundtrip_bound(self, array: np.ndarray) -> float:
        """Documented L∞ bound on ``|decompress(compress(array)) - array|``.

        May be loose (each codec's docstring derives its constant) but must hold
        for every supported input; the cross-codec property suite enforces it.
        Lossless codecs return ``0.0``.
        """

    # ------------------------------------------------------------------ shared helpers
    def validate_input(self, array: np.ndarray, *, check_finite: bool = True) -> np.ndarray:
        """Common input validation: reject unsupported ndim/dtype/empty/non-finite.

        Returns ``np.asarray(array)``; raises :class:`CodecError` otherwise.
        """
        array = np.asarray(array)
        if array.dtype.kind not in "fiu":
            raise CodecError(
                f"codec {self.name!r} compresses real numeric arrays, got dtype {array.dtype}"
            )
        if array.ndim not in self.capabilities.ndims:
            raise CodecError(
                f"codec {self.name!r} supports {self.capabilities.ndims}-dimensional "
                f"arrays, got ndim={array.ndim}"
            )
        if array.size == 0:
            raise CodecError("cannot compress an empty array")
        if check_finite and array.dtype.kind == "f" and not np.all(np.isfinite(array)):
            raise CodecError("input contains non-finite values")
        return array

    def measured_ratio(self, array: np.ndarray) -> float:
        """Achieved ratio on concrete data: input bytes over serialized bytes."""
        array = np.asarray(array)
        data = self.to_bytes(self.compress(array))
        return (array.size * array.dtype.itemsize) / len(data)

    def describe(self) -> str:
        """One-line summary used by the CLI ``codecs`` listing."""
        return f"{self.name}: {self.capabilities.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
