"""Scalar reductions in the compressed space (Algorithms 6, 7, 10).

All reductions exploit orthonormality — dot products of coefficient blocks
equal dot products of the corresponding data blocks — so they require no inverse
transform and introduce no error beyond what compression already produced.

Every function here is a thin wrapper over its partial-fold form in
:mod:`repro.core.ops.folds` (per-chunk partial → associative combine →
finalize), run over a single chunk: the whole array.  The out-of-core engine
:mod:`repro.streaming.ops` runs the identical fold over store chunks, and the
folds are chunking-invariant to the last bit (see the :mod:`folds
<repro.core.ops.folds>` module docstring), so the two layers always agree on
identical compressed data.

Exactness contract: **no additional error** beyond compression — the values are
exact functions of the stored ``{N, F}`` pairs, accumulated with correctly
rounded summation (:func:`repro.core.ops.folds.total`, bit-identical to
:func:`math.fsum`), deterministic across chunkings and slab workers.

Padding semantics: the reductions see the zero-padded block domain.  The dot
product, L2 norm and Euclidean distance are unaffected by zero padding; the mean
is taken over the padded element count, which matches the paper's implementation
(and equals the true mean exactly when the shape is a multiple of the block
shape).  Callers that need the cropped-domain mean can pass ``padded=False``.
"""

from __future__ import annotations

import numpy as np

from ..compressed import CompressedArray
from . import folds

__all__ = ["dot", "mean", "blockwise_mean", "l2_norm", "euclidean_distance"]


def dot(a: CompressedArray, b: CompressedArray) -> float:
    """Algorithm 6: dot product ``Σ (Ĉ1 ⊙ Ĉ2)``.

    Equals the dot product of the two decompressed (padded) arrays because the
    orthonormal transform preserves inner products; padding contributes zeros.
    Error contract: exact in the compressed space (no error beyond compression).
    """
    return folds.evaluate("dot", a, b)


def mean(compressed: CompressedArray, *, padded: bool = True) -> float:
    """Algorithm 7: the array mean from the first coefficient of every block.

    Each block's first coefficient equals the block mean scaled by
    ``c = Π sqrt(block extents)``, so the array mean is the average of first
    coefficients divided by ``c``.  Error contract: exact in the compressed
    space (no error beyond compression).

    Parameters
    ----------
    padded:
        When True (default, the paper's semantics) the mean is over the zero-padded
        domain.  When False the result is rescaled to the original element count,
        giving the true mean of the uncompressed array up to compression error.
    """
    return folds.evaluate("mean", compressed, padded=bool(padded))


def blockwise_mean(compressed: CompressedArray) -> np.ndarray:
    """Block-wise means ``Ĉ[..., first] / c`` shaped like the block grid.

    This is the coarse proxy of the uncompressed array that the approximate
    operations (§IV-B) build on.  Error contract: exact in the compressed space.
    """
    return compressed.blockwise_means()


def l2_norm(compressed: CompressedArray) -> float:
    """Algorithm 10: the L2 (Euclidean) norm ``‖Ĉ‖₂``.

    Orthonormal transforms preserve the 2-norm, so the norm of the kept
    coefficients equals the norm of the decompressed (padded) array; padding
    contributes zeros.  Error contract: exact in the compressed space.
    """
    return folds.evaluate("l2_norm", compressed)


def euclidean_distance(a: CompressedArray, b: CompressedArray) -> float:
    """Euclidean distance ``‖a − b‖₂`` computed directly on the coefficients.

    Orthonormality makes ``Σ (Ĉ1 − Ĉ2)²`` equal the squared distance of the
    decompressed (padded) arrays, so no subtraction-and-rebinning round trip
    (and none of its rebinning error) is needed.  Error contract: exact in the
    compressed space (no error beyond compression).
    """
    return folds.evaluate("euclidean_distance", a, b)
