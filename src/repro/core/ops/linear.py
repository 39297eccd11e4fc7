"""Array-valued linear operations in the compressed space (Algorithms 1, 2, 4, 5).

* :func:`negate` — negate the bin indices; exact (no additional error).
* :func:`multiply_scalar` — scale the per-block maxima by ``|x|`` and flip index
  signs when ``x < 0``; exact.
* :func:`add` / :func:`subtract` — sum the specified coefficients and re-bin; the
  re-binning step is the only source of additional error.
* :func:`add_scalar` — shift every block's first (DC) coefficient by
  ``x · Π sqrt(i)`` and re-bin; requires the DC coefficient to be unpruned.

The re-binning operations work on the kept ``(n_blocks, kept)`` coefficient
matrices (:func:`~repro.core.ops.coefficients.kept_coefficients`), which give
the maxima and indices of re-binning the blocked arrays bit for bit.
:func:`rebinned_dc` is ``add``/``subtract`` re-binned only as far as the mean
(Algorithm 7) reads the result: its block maxima and DC column.
"""

from __future__ import annotations

import numpy as np

from ..compressed import CompressedArray
from .coefficients import (kept_coefficients, rebin_kept, rebin_kept_dc,
                           require_compatible, shared_kept_coefficients,
                           shared_kept_difference)

__all__ = ["negate", "add", "subtract", "add_scalar", "multiply_scalar", "rebinned_dc"]


def negate(compressed: CompressedArray) -> CompressedArray:
    """Algorithm 1: the negated array ``{s, i, N, -F}``.

    Because bin indices are proportional to coefficients, negating the indices is
    equivalent to negating every coefficient, and hence every decompressed element.
    Introduces no additional error.
    """
    negated = np.negative(compressed.indices)
    # The most negative representable index has no positive counterpart in two's
    # complement; compression never produces it (indices are clipped to ±r), but a
    # defensively clipped copy keeps the invariant for externally built arrays.
    radius = compressed.settings.index_radius
    np.clip(negated, -radius, radius, out=negated)
    return CompressedArray(
        settings=compressed.settings,
        shape=compressed.shape,
        maxima=compressed.maxima.copy(),
        indices=negated.astype(compressed.settings.index_dtype),
    )


def add(a: CompressedArray, b: CompressedArray) -> CompressedArray:
    """Algorithm 2: element-wise sum of two compressed arrays.

    The specified coefficients of both operands are summed and re-binned against the
    (possibly larger) new per-block maxima; re-binning is the only additional error.
    """
    return rebin_kept(_combined_kept("add", a, b), a)


def subtract(a: CompressedArray, b: CompressedArray) -> CompressedArray:
    """Element-wise difference ``a - b``, i.e. ``add(a, negate(b))`` fused.

    The paper realises differences with negation followed by addition (§V-A); this
    helper fuses the two so only one re-binning happens.
    """
    return rebin_kept(_combined_kept("subtract", a, b), a)


def rebinned_dc(kind: str, a: CompressedArray, b: CompressedArray) -> CompressedArray:
    """``add(a, b)`` or ``subtract(a, b)`` (``kind``) pruned to its DC coefficient.

    The same block maxima and DC indices as the full re-binning, bit for bit,
    without binning the other columns
    (:func:`~repro.core.ops.coefficients.rebin_kept_dc`): all that a ``dc``
    fold reads, so ``dc_partial(rebinned_dc("subtract", a, b))`` has the bits
    of ``dc_partial(subtract(a, b))``.
    """
    return rebin_kept_dc(_combined_kept(kind, a, b), a)


def _combined_kept(kind: str, a: CompressedArray, b: CompressedArray) -> np.ndarray:
    """The kept coefficient sum or difference of ``a`` and ``b``, before re-binning."""
    if kind == "add":
        require_compatible(a, b, "addition")
        return np.add(shared_kept_coefficients(a), shared_kept_coefficients(b))
    require_compatible(a, b, "subtraction")
    return shared_kept_difference(a, b)


def add_scalar(compressed: CompressedArray, scalar: float) -> CompressedArray:
    """Algorithm 4: add ``scalar`` to every element.

    Adding a constant to a block shifts only its mean, i.e. only the first (DC)
    coefficient, by ``scalar · Π sqrt(block extents)``.  The DC coefficient must
    therefore have survived pruning.  The shifted coefficients are re-binned, which
    is the only source of additional error.

    Note: the scalar is added over the *padded* domain as well, exactly as a
    decompress → add → recompress pipeline (with zero padding) would behave.
    """
    if not compressed.settings.first_coefficient_kept:
        raise ValueError(
            "add_scalar requires the first coefficient of each block to be unpruned"
        )
    if not np.isfinite(scalar):
        raise ValueError("scalar must be finite")
    coefficients = kept_coefficients(compressed)
    coefficients[:, 0] += float(scalar) * compressed.settings.dc_scale
    return rebin_kept(coefficients, compressed)


def multiply_scalar(compressed: CompressedArray, scalar: float) -> CompressedArray:
    """Algorithm 5: multiply every element by ``scalar``: ``{s, i, N·|x|, F·sign(x)}``.

    Scaling the per-block maxima scales every reconstructed coefficient by the same
    factor, so the operation is exact (no additional error).  A negative scalar
    additionally negates the indices; a zero scalar produces an exactly-zero array.
    """
    if not np.isfinite(scalar):
        raise ValueError("scalar must be finite")
    scalar = float(scalar)
    maxima = compressed.maxima * abs(scalar)
    if scalar < 0:
        indices = np.negative(compressed.indices)
        radius = compressed.settings.index_radius
        np.clip(indices, -radius, radius, out=indices)
        indices = indices.astype(compressed.settings.index_dtype)
    elif scalar == 0.0:
        indices = np.zeros_like(compressed.indices)
    else:
        indices = compressed.indices.copy()
    return CompressedArray(
        settings=compressed.settings,
        shape=compressed.shape,
        maxima=maxima,
        indices=indices,
    )
