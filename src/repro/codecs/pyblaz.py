"""The core PyBlaz pipeline exposed as a registrable :class:`Codec`.

This adapter is a thin wrapper over :class:`repro.core.Compressor` and the
bit-exact stream format of :mod:`repro.core.codec`; it adds nothing numerically.
Its job is to make the core pipeline interchangeable with the baselines: a fixed
interface, a self-describing byte stream, capability flags, and the loose (but
always valid) round-trip bound assembled from the §IV-D error analysis.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..core import codec as core_codec
from ..core.blocking import block_array
from ..core.compressed import CompressedArray
from ..core.compressor import Compressor
from ..core.settings import CompressionSettings
from ..core.transforms import get_transform
from ..numerics import round_to_format
from .base import Codec, CodecCapabilities

__all__ = ["PyBlazCodec"]


class PyBlazCodec(Codec):
    """The paper's compressor behind the uniform codec interface.

    Parameters
    ----------
    settings:
        A full :class:`CompressionSettings`; fixes the dimensionality.  When
        omitted, settings are derived per input from the keyword defaults below,
        with a hypercubic ``(block_extent,) * ndim`` block shape — which is what
        lets one unconfigured instance serve 1- to 4-dimensional arrays.
    block_extent, float_format, index_dtype, transform:
        Per-dimension block extent and the remaining pipeline knobs used when
        ``settings`` is not given.
    backend:
        Kernel backend executing the hot loop (see :mod:`repro.kernels`).
        Overrides ``settings.backend`` when both are given; applies to both
        compression and decompression of this instance.
    """

    name: ClassVar[str] = "pyblaz"
    magic: ClassVar[bytes] = b"PBLZ"
    # the core pipeline handles any dimensionality; 8 covers every realistic
    # scientific-array rank while keeping the capability tuple finite
    capabilities: ClassVar[CodecCapabilities] = CodecCapabilities(
        ndims=(1, 2, 3, 4, 5, 6, 7, 8),
        dtypes=("float32", "float64"),
        compressed_ops=(
            "add", "subtract", "negate", "multiply_scalar", "dot", "mean",
            "variance", "covariance", "l2_norm", "euclidean_distance",
            "cosine_similarity", "structural_similarity", "wasserstein_distance",
        ),
        lossless=False,
    )

    def __init__(
        self,
        settings: CompressionSettings | None = None,
        *,
        block_extent: int = 4,
        float_format: str = "float32",
        index_dtype: str = "int16",
        transform: str = "dct",
        backend: str | None = None,
    ):
        self.settings = settings
        self.backend = str(backend).lower() if backend is not None else None
        self._block_extent = int(block_extent)
        self._defaults = {
            "float_format": float_format,
            "index_dtype": index_dtype,
            "transform": transform,
        }

    def _settings_for(self, ndim: int) -> CompressionSettings:
        if self.settings is not None:
            return self.settings
        return CompressionSettings(
            block_shape=(self._block_extent,) * ndim, **self._defaults
        )

    # ------------------------------------------------------------------ protocol
    def compress(self, array: np.ndarray) -> CompressedArray:
        array = self.validate_input(array)
        return Compressor(self._settings_for(array.ndim), backend=self.backend).compress(array)

    def decompress(self, compressed: CompressedArray) -> np.ndarray:
        # the compressed form carries its settings, so decompression never
        # depends on this instance's configuration — except the kernel
        # backend, a pure execution choice of this instance
        return Compressor(compressed.settings, backend=self.backend).decompress(compressed)

    def to_bytes(self, compressed: CompressedArray) -> bytes:
        return core_codec.serialize(compressed)

    @classmethod
    def from_bytes(cls, data: bytes) -> CompressedArray:
        return core_codec.deserialize(data)

    def compression_ratio(self, array_shape: tuple[int, ...], input_bits: int = 64) -> float:
        settings = self._settings_for(len(array_shape))
        return core_codec.compression_ratio(
            settings, tuple(array_shape), input_bits_per_element=input_bits
        )

    def roundtrip_bound(self, array: np.ndarray) -> float:
        """Loose L∞ bound from the §IV-D analysis, data-dependent via the maxima.

        Per block: each kept coefficient is off by at most the half-bin width
        ``N/(2r)`` plus the rounding of the stored maximum (``ε·N``); each pruned
        coefficient contributes its own magnitude; orthonormal basis amplitudes
        are ≤ 1, so summing per-coefficient errors bounds the per-element error.
        The data-type-conversion step adds ``ε·max|x|``.  A 2× safety factor
        absorbs float64 arithmetic noise.
        """
        array = np.asarray(array, dtype=np.float64)
        settings = self._settings_for(array.ndim)
        fmt = settings.float_format
        eps = fmt.machine_epsilon

        lowered = round_to_format(array, fmt)
        blocked = block_array(lowered, settings.block_shape)
        coefficients = np.abs(
            get_transform(settings.transform, settings.block_shape).forward(blocked)
        )
        per_block = coefficients.reshape(-1, settings.block_size)
        maxima = per_block.max(axis=1)
        mask = settings.mask.ravel()
        pruned_sum = per_block[:, ~mask].sum(axis=1) if not mask.all() else 0.0
        radius = float(settings.index_radius)
        kept = settings.kept_per_block
        binning = kept * maxima * (1.0 / (2.0 * radius) + eps)
        conversion = eps * float(np.max(np.abs(array), initial=0.0)) + fmt.smallest_subnormal
        return 2.0 * (float(np.max(binning + pruned_sum, initial=0.0)) + conversion)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.settings is not None:
            return f"PyBlazCodec({self.settings.describe()})"
        return f"PyBlazCodec(block_extent={self._block_extent}, **{self._defaults})"
