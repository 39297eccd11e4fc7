"""Binning and unbinning of transform coefficients (§III-A(d)).

Binning coarsens the coefficient space so each coefficient can be stored as a short
integer.  Per block ``k`` the largest coefficient magnitude ``N_k = ||C_k||_inf`` is
recorded; coefficients are then mapped to integer bin indices

    ``I_k = round(r * C_k / N_k)``

where ``r = 2**(bits-1) - 1`` is the index-type radius.  Unbinning multiplies back:
``C_k ≈ I_k * N_k / r``.  The maximum per-coefficient error introduced is
``N_k / (2 r + 1)`` — half a bin width (§IV-D) — which :mod:`repro.core.errors`
exposes as a bound and the tests verify.

All functions operate on blocked arrays shaped ``(grid..., block...)`` and vectorize
over every block simultaneously.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "index_radius",
    "block_maxima",
    "scale_to_indices",
    "bin_coefficients",
    "unbin_indices",
]


def index_radius(index_dtype: np.dtype) -> int:
    """Radius ``r = 2**(bits-1) - 1`` of an integer bin-index type."""
    dtype = np.dtype(index_dtype)
    if dtype.kind != "i":
        raise ValueError(f"bin index type must be a signed integer dtype, got {dtype}")
    bits = dtype.itemsize * 8
    return 2 ** (bits - 1) - 1


def block_maxima(coefficients: np.ndarray, block_ndim: int) -> np.ndarray:
    """Per-block maximum coefficient magnitude ``N_k = ||C_k||_inf``.

    Parameters
    ----------
    coefficients:
        Blocked coefficient array of shape ``(grid..., block...)``.
    block_ndim:
        Number of trailing block axes.

    Returns
    -------
    np.ndarray
        Array of shape ``grid`` holding the maximum absolute coefficient per block.
    """
    coefficients = np.asarray(coefficients)
    if block_ndim < 1 or block_ndim > coefficients.ndim:
        raise ValueError(f"invalid block_ndim {block_ndim} for array of ndim {coefficients.ndim}")
    block_axes = tuple(range(coefficients.ndim - block_ndim, coefficients.ndim))
    return np.abs(coefficients).max(axis=block_axes)


def scale_to_indices(
    coefficients: np.ndarray,
    maxima: np.ndarray,
    block_ndim: int,
    index_dtype: np.dtype,
) -> np.ndarray:
    """Map blocked coefficients to integer bin indices given their block maxima.

    This is the binning core of :func:`bin_coefficients` (the ``reference``
    kernel); the fused ``gemm`` kernel mirrors its divide-first order.
    ``maxima`` must be shaped like the leading (grid) axes of ``coefficients``.
    """
    dtype = np.dtype(index_dtype)
    radius = index_radius(dtype)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    maxima = np.asarray(maxima, dtype=np.float64)
    # Broadcast maxima over the block axes; guard zero maxima against division by zero.
    expand = maxima.reshape(maxima.shape + (1,) * block_ndim)
    safe = np.where(expand == 0.0, 1.0, expand)
    # divide before scaling: |coefficients / safe| <= 1, so the product cannot
    # overflow even for 64-bit radii or subnormal block maxima; every later
    # step works in place on the quotient's buffer
    indices = np.divide(coefficients, safe)
    np.multiply(indices, float(radius), out=indices)
    # round half away from zero would also be acceptable; numpy's rint (round half to
    # even) matches torch.round used by the reference implementation.
    np.rint(indices, out=indices)
    # float64 cannot represent 2**63 - 1 exactly, so clamp int64 indices to the
    # largest exactly-representable value below the radius before casting
    limit = float(radius) if dtype.itemsize < 8 else float(2**63 - 1024)
    np.clip(indices, -limit, limit, out=indices)
    return indices.astype(dtype)


def bin_coefficients(
    coefficients: np.ndarray,
    block_ndim: int,
    index_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin blocked coefficients into integer indices.

    Returns ``(maxima, indices)`` where ``maxima`` has shape ``grid`` and ``indices``
    has the same shape as ``coefficients`` with dtype ``index_dtype``.  Blocks whose
    maximum is zero (all-zero blocks, e.g. pure padding) produce all-zero indices and
    a recorded maximum of zero so that unbinning reproduces the zeros exactly.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    maxima = block_maxima(coefficients, block_ndim)
    indices = scale_to_indices(coefficients, maxima, block_ndim, index_dtype)
    return maxima, indices


def unbin_indices(
    indices: np.ndarray,
    maxima: np.ndarray,
    block_ndim: int,
) -> np.ndarray:
    """Recover (approximate) coefficients from bin indices: ``C ≈ I * N / r``."""
    indices = np.asarray(indices)
    if indices.dtype.kind != "i":
        raise ValueError(f"indices must be an integer array, got dtype {indices.dtype}")
    radius = index_radius(indices.dtype)
    maxima = np.asarray(maxima, dtype=np.float64)
    if maxima.shape != indices.shape[: indices.ndim - block_ndim]:
        raise ValueError(
            f"maxima shape {maxima.shape} does not match block grid "
            f"{indices.shape[: indices.ndim - block_ndim]}"
        )
    expand = maxima.reshape(maxima.shape + (1,) * block_ndim)
    return indices.astype(np.float64) * (expand / float(radius))
