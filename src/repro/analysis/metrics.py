"""Error metrics used to compare compressed-space results against references.

Fig 5 of the paper reports mean absolute error (MAE) and mean relative error of
compressed-space scalar functions relative to their uncompressed counterparts, and
mean compression ratios; Fig 6a reports the maximum L2 deviation between compressed
and uncompressed curves.  The helpers here compute those quantities.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "absolute_error",
    "relative_error",
    "mean_absolute_error",
    "mean_relative_error",
    "max_absolute_error",
]


def absolute_error(measured: float | np.ndarray, reference: float | np.ndarray) -> np.ndarray:
    """Element-wise absolute error ``|measured - reference|``."""
    return np.abs(np.asarray(measured, dtype=np.float64) - np.asarray(reference, dtype=np.float64))


def relative_error(
    measured: float | np.ndarray,
    reference: float | np.ndarray,
    *,
    reference_scale: float | None = None,
) -> np.ndarray:
    """Element-wise relative error ``|measured - reference| / scale``.

    ``reference_scale`` overrides the denominator — Fig 5 reports errors relative to
    the dataset-wide mean FLAIR intensity rather than per-example values.  Without an
    override the per-element ``|reference|`` is used; zero denominators yield ``inf``
    (or 0 where the error is also zero), mirroring the NaN/Inf bookkeeping the paper's
    figure notes ("squares are missing where NaNs occurred").
    """
    err = absolute_error(measured, reference)
    if reference_scale is not None:
        scale = float(reference_scale)
        if scale == 0.0:
            raise ValueError("reference_scale must be non-zero")
        return err / abs(scale)
    denom = np.abs(np.asarray(reference, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = err / denom
    out = np.where((err == 0) & (denom == 0), 0.0, out)
    return out


def mean_absolute_error(measured: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute error over all elements."""
    return float(np.mean(absolute_error(measured, reference)))


def mean_relative_error(
    measured: np.ndarray,
    reference: np.ndarray,
    *,
    reference_scale: float | None = None,
) -> float:
    """Mean relative error over all finite element-wise relative errors."""
    rel = relative_error(measured, reference, reference_scale=reference_scale)
    rel = np.asarray(rel, dtype=np.float64)
    finite = rel[np.isfinite(rel)]
    if finite.size == 0:
        return math.nan
    return float(finite.mean())


def max_absolute_error(measured: np.ndarray, reference: np.ndarray) -> float:
    """Maximum absolute error (the L∞ distance between the two)."""
    return float(np.max(absolute_error(measured, reference)))
