"""Covariance, variance and standard deviation in the compressed space (Algorithms 8, 9).

Covariance is the mean of the element-wise product of *centered* coefficients:
centering an array (subtracting its mean from every element) only changes each
block's first (DC) coefficient, by the global mean scaled by ``Π sqrt(i)`` — which
equals the average of the DC coefficients.  After centering, orthonormality turns the
element-wise product sum into the data-space product sum, and dividing by the padded
element count gives the (population) covariance.

The scalar statistics are thin wrappers over their one-pass partial-fold forms
in :mod:`repro.core.ops.folds`: because centering moves only the DC
coefficients, each block's centered sum splits into ``(dc − μ)`` terms plus its
uncentered AC sum, so one partial (:func:`folds.centered_product_partial` /
:func:`folds.centered_square_partial`) collects the per-block DC coefficients
and AC sums, and the finalizer takes the global DC mean ``μ`` and sums the
centered DC terms and AC sums exactly.  The out-of-core engine
:mod:`repro.streaming.ops` runs the identical fold in one sweep over store
chunks, and the folds are chunking-invariant to the last bit, so the two
layers always agree on identical compressed data.  Error contract: exact in the
compressed space (no error beyond compression; correctly rounded accumulation).

Block-wise variants center each block independently (zeroing its DC coefficient) and
average within blocks, giving per-block covariance/variance maps.

All quantities use the population convention (``ddof=0``) over the padded domain,
matching the reference implementation; tests compare against
``repro.analysis.reference`` with identical conventions.
"""

from __future__ import annotations

import numpy as np

from ..compressed import CompressedArray
from . import folds
from .coefficients import require_compatible, specified_coefficients

__all__ = [
    "covariance",
    "variance",
    "standard_deviation",
    "blockwise_covariance",
    "blockwise_variance",
    "blockwise_standard_deviation",
]


def covariance(a: CompressedArray, b: CompressedArray) -> float:
    """Algorithm 8: covariance of two compressed arrays.

    ``mean(Ĉ1_centered ⊙ Ĉ2_centered)`` over all coefficient slots, which equals the
    population covariance of the decompressed (padded) arrays.  Error contract:
    exact in the compressed space; requires the DC coefficient to be unpruned.
    """
    return folds.evaluate("covariance", a, b)


def variance(compressed: CompressedArray) -> float:
    """Algorithm 9: variance as the covariance of the array with itself.

    Error contract: exact in the compressed space (and always ≥ 0 — the fold
    sums squares); requires the DC coefficient to be unpruned.
    """
    return folds.evaluate("variance", compressed)


def standard_deviation(compressed: CompressedArray) -> float:
    """Standard deviation: the square root of :func:`variance` (same contract)."""
    return folds.evaluate("standard_deviation", compressed)


def _blockwise_centered(compressed: CompressedArray) -> np.ndarray:
    """Coefficients with each block's own mean removed (DC coefficients zeroed)."""
    coefficients = specified_coefficients(compressed)
    ndim = compressed.settings.ndim
    dc_index = (Ellipsis,) + (0,) * ndim
    coefficients[dc_index] = 0.0
    return coefficients


def blockwise_covariance(a: CompressedArray, b: CompressedArray) -> np.ndarray:
    """Per-block covariance map shaped like the block grid.

    Each block is centered on its own mean, then the coefficient products are averaged
    within the block — the block-wise analogue of Algorithm 8 mentioned in §IV-A.
    Error contract: exact in the compressed space.
    """
    require_compatible(a, b, "block-wise covariance")
    ndim = a.settings.ndim
    product = _blockwise_centered(a) * _blockwise_centered(b)
    block_axes = tuple(range(product.ndim - ndim, product.ndim))
    return product.mean(axis=block_axes)


def blockwise_variance(compressed: CompressedArray) -> np.ndarray:
    """Per-block variance map (block-wise covariance of the array with itself).

    Error contract: exact in the compressed space.
    """
    ndim = compressed.settings.ndim
    centered = _blockwise_centered(compressed)
    block_axes = tuple(range(centered.ndim - ndim, centered.ndim))
    return (centered * centered).mean(axis=block_axes)


def blockwise_standard_deviation(compressed: CompressedArray) -> np.ndarray:
    """Per-block standard deviation map (square root of :func:`blockwise_variance`)."""
    return np.sqrt(blockwise_variance(compressed))
