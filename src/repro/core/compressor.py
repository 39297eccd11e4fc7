"""The PyBlaz compression pipeline (§III-A) and its inverse.

Compression consists of five steps:

1. **Data type conversion** — round the input to the working float format
   (bfloat16/float16/float32/float64); see :mod:`repro.numerics`.
2. **Blocking** — zero-pad and reshape into ``(grid..., block...)``;
   see :mod:`repro.core.blocking`.
3. **Orthonormal transform** — DCT (default), Haar or identity applied separably to
   every block; see :mod:`repro.core.transforms`.
4. **Binning** — per-block max-magnitude normalisation to integer bin indices;
   see :mod:`repro.core.binning`.
5. **Pruning** — keep only the coefficient indices selected by the pruning mask and
   flatten them; see :mod:`repro.core.pruning`.

Decompression is the same steps in reverse; only blocking is exactly invertible, the
other steps contribute the error budget analysed in :mod:`repro.core.errors`.

The heavy steps (transform and binning) are expressed as bulk vectorized numpy
operations over all blocks at once — the stand-in for the paper's GPU execution.  The
numeric strategy for that bulk call is a :class:`repro.kernels.KernelBackend`; arrays
too large for one call are compressed slab by slab with
:class:`repro.streaming.ChunkedCompressor`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import get_backend
from ..numerics import round_to_format
from .blocking import block_array, crop_to_shape, unblock_array
from .compressed import CompressedArray
from .exceptions import CodecError
from .pruning import flatten_kept, unflatten_kept
from .settings import CompressionSettings
from .transforms import get_transform

__all__ = ["Compressor"]


class Compressor:
    """Compresses and decompresses arrays under a fixed :class:`CompressionSettings`.

    Parameters
    ----------
    settings:
        The compression configuration.
    backend:
        Optional kernel-backend name (see :mod:`repro.kernels`) overriding
        ``settings.backend``.  Precedence: this argument, then the settings
        field (default ``"reference"``).

    Notes
    -----
    A single :class:`Compressor` may compress arrays of any shape whose
    dimensionality matches the settings' block shape.  Arrays compressed with the
    same settings (and shape) can be combined with the operations in
    :mod:`repro.core.ops`.
    """

    def __init__(
        self,
        settings: CompressionSettings,
        backend: str | None = None,
    ):
        self.settings = settings
        self.transform = get_transform(settings.transform, settings.block_shape)
        self.backend = str(backend).lower() if backend is not None else settings.backend
        self.kernel = get_backend(self.backend)

    # ------------------------------------------------------------------ compression
    def compress(self, array: np.ndarray) -> CompressedArray:
        """Compress ``array`` and return its :class:`CompressedArray` representation."""
        settings = self.settings
        array = np.asarray(array)
        if array.ndim != settings.ndim:
            raise CodecError(
                f"array of dimensionality {array.ndim} cannot be compressed with "
                f"{settings.ndim}-dimensional settings {settings.block_shape}"
            )
        if array.size == 0:
            raise CodecError("cannot compress an empty array")
        # Check finiteness on the input's native dtype — no float64 staging copy;
        # round_to_format below is then the single materialisation of the array.
        if array.dtype.kind not in "fiu":
            array = np.asarray(array, dtype=np.float64)
        if not np.all(np.isfinite(array)):
            raise CodecError(
                "input contains non-finite values; PyBlaz's binning step cannot "
                "represent infinities or NaNs"
            )

        # Step 1: data type conversion (precision lowering).
        lowered = round_to_format(array, settings.float_format)
        if not np.all(np.isfinite(lowered)):
            # e.g. values beyond float16's dynamic range overflow to infinity during
            # the conversion step (§V-B's float16-vs-bfloat16 discussion); refuse to
            # bin infinities rather than silently producing NaN indices
            raise FloatingPointError(
                f"data overflows the {settings.float_format.name} working format; "
                "choose a wider float format (e.g. bfloat16 or float32)"
            )

        # Step 2: blocking (zero-pad + reshape).
        blocked = block_array(lowered, settings.block_shape)

        # Steps 3-4: the fused transform+binning kernel.
        maxima, indices_blocked = self.kernel.transform_and_bin(
            blocked, self.transform, settings
        )

        # The stored per-block maxima live at the working float precision (§IV-C
        # counts f bits per block for N); round them accordingly.
        maxima = round_to_format(maxima, settings.float_format)

        # Step 5: pruning + flattening.
        flattened = flatten_kept(indices_blocked, settings.mask)

        return CompressedArray(
            settings=settings,
            shape=array.shape,
            maxima=maxima,
            indices=flattened,
        )

    # ------------------------------------------------------------------ decompression
    def decompress(self, compressed: CompressedArray) -> np.ndarray:
        """Reconstruct an array from its compressed representation.

        The result is a float64 array with the original shape; its values carry the
        compression error introduced by the lossy pipeline steps.
        """
        settings = compressed.settings
        transform = get_transform(settings.transform, settings.block_shape)

        # Undo pruning: place kept indices back into blocks, zeros elsewhere.
        blocked_indices = unflatten_kept(
            compressed.indices,
            settings.mask,
            compressed.grid_shape,
            fill_value=0,
            dtype=settings.index_dtype,
        )

        # Undo binning: scale indices back to coefficients.
        radius = float(settings.index_radius)
        expand = compressed.maxima.reshape(compressed.maxima.shape + (1,) * settings.ndim)
        coefficients = blocked_indices.astype(np.float64) * (expand / radius)

        # Undo the transform.
        blocked = self.kernel.inverse_transform(coefficients, transform, settings)

        # Undo blocking and padding.
        padded = unblock_array(blocked, settings.block_shape)
        return crop_to_shape(padded, compressed.shape)

    # ------------------------------------------------------------------ conveniences
    def roundtrip(self, array: np.ndarray) -> np.ndarray:
        """Compress then decompress ``array`` (useful for error measurements)."""
        return self.decompress(self.compress(array))

    def compression_error(self, array: np.ndarray) -> np.ndarray:
        """Pointwise error ``decompress(compress(array)) - array`` as float64."""
        return self.roundtrip(array) - np.asarray(array, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Compressor({self.settings.describe()})"
