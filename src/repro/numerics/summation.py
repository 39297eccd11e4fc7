"""Correctly rounded summation of float64 vectors at numpy speed.

:func:`exact_sum` returns the float nearest (ties to even) to the exact real
sum of its inputs — the value :func:`math.fsum` returns — but runs its inner
loops in numpy instead of visiting one Python float at a time.  It uses
error-free vector extraction (Rump, Ogita & Oishi, "Accurate floating-point
summation", SIAM J. Sci. Comput. 2008):

* pick a power of two ``σ ≥ 2^⌈log2(n+2)⌉ · max|p|``;
* split every value as ``q = (p + σ) − σ`` and ``p ← p − q``.  Both steps are
  exact, every ``q`` is a multiple of ``2^-53 σ``, and ``Σ|q| < σ``, so
  ``np.sum(q)`` is exact in any summation order;
* repeat on the residual ``p``, which shrinks by ``2^(53 − ⌈log2(n+2)⌉)`` per
  pass.

The pass totals plus whatever residual is left after the last pass sum exactly
to the input, so one :func:`math.fsum` over those few values returns the
correctly rounded result.  Inputs where the extraction has nothing to win, or
where :func:`math.fsum` has special behaviour (non-finite values, intermediate
overflow, the sign of an all-zero sum), go to :func:`math.fsum` directly.

:func:`exact_parts` returns that short list itself.  Because the list sums
exactly to its vector, lists of several vectors concatenate into a list that
sums exactly to the concatenated vectors: a sharded store persists one list
per shard instead of a per-block vector (:mod:`repro.streaming.sharded`).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["exact_sum", "exact_parts"]

#: Below this many values the extraction passes cost more than ``math.fsum``.
_MIN_VECTORISED = 64
#: Extraction passes before the remaining nonzero residuals go to ``math.fsum``.
_MAX_PASSES = 4
#: Largest ``σ`` exponent: keeps ``p + σ`` finite and the running sums of
#: ``math.fsum`` (bounded by ``Σ|p| < σ``) clear of intermediate overflow.
_MAX_SIGMA_EXPONENT = 1022


def exact_sum(parts: Iterable) -> float:
    """Correctly rounded sum of every value in ``parts`` (an iterable of arrays).

    Bit-identical to ``math.fsum(itertools.chain.from_iterable(parts))``,
    including its result or exception for non-finite inputs and intermediate
    overflow, and independent of how the values are split into parts.
    """
    arrays = [np.asarray(part, dtype=np.float64).ravel() for part in parts]
    if not arrays:
        return 0.0
    if len(arrays) == 1:
        return math.fsum(_extract(arrays[0], owned=False))
    return math.fsum(_extract(np.concatenate(arrays), owned=True))


def exact_parts(values) -> list[float]:
    """A short list of floats whose exact sum is the exact sum of ``values``.

    The extraction's pass totals plus any residual left after its last pass:
    ``math.fsum`` over them is ``exact_sum([values])``, and ``math.fsum`` over
    the concatenated lists of several vectors is ``exact_sum`` of the
    concatenated vectors — so a list can stand in for its vector wherever only
    the vector's sum is read.  Where :func:`exact_sum` hands its input to
    ``math.fsum`` (fewer than 64 values, non-finite values, near-overflow
    magnitudes, all-zero input) the list is the values themselves, so
    ``math.fsum`` meets the same special values.  ``values`` is never written.
    """
    return _extract(np.asarray(values, dtype=np.float64).ravel(), owned=False)


def _extract(values: np.ndarray, owned: bool) -> list[float]:
    """:func:`exact_parts` of a flat float64 vector the caller may let us
    overwrite (``owned``) or not (then the residual is one copy of it)."""
    n = values.size
    if n < _MIN_VECTORISED:
        return values.tolist()
    magnitude = _max_magnitude(values)
    spread = (n + 1).bit_length()  # ⌈log2(n + 2)⌉
    if (
        not math.isfinite(magnitude)
        or magnitude == 0.0
        or math.frexp(magnitude)[1] + spread > _MAX_SIGMA_EXPONENT
    ):
        return values.tolist()

    totals: list[float] = []
    # updated in place, so never the caller's array
    residual = values if owned else values.copy()
    high = np.empty_like(residual)
    for _ in range(_MAX_PASSES):
        sigma = math.ldexp(1.0, math.frexp(magnitude)[1] + spread)
        np.add(residual, sigma, out=high)
        high -= sigma
        residual -= high
        totals.append(float(high.sum()))
        magnitude = _max_magnitude(residual)
        if magnitude == 0.0:
            break
    else:
        totals.extend(residual[residual != 0.0].tolist())
    return totals


def _max_magnitude(values: np.ndarray) -> float:
    """``max|values|`` without allocating ``abs(values)`` (nan if any value is nan)."""
    return max(float(values.max()), -float(values.min()))
