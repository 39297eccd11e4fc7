"""Uncompressed-space reference implementations of the paper's operations.

These are the "plain PyTorch on uncompressed images" functions of §V-B, re-expressed
in numpy.  They use the same conventions as the compressed-space versions so that
differences measured between the two reflect compression error only:

* statistics are population statistics (``ddof=0``);
* SSIM is the global single-window formulation of Algorithm 12;
* the Wasserstein distance is the order-``p`` distance between sorted empirical
  distributions, with the same softmax normalisation rule;
* an optional ``pad_to`` argument evaluates the reference on the zero-padded domain
  that compressed-space reductions see (DESIGN.md §5);
* the dot product and L2 norm sum their elementwise products with the correctly
  rounded :func:`repro.numerics.exact_sum`, not BLAS, so the reference values (and
  the error tables built on them) do not depend on BLAS threading.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..numerics import exact_sum

__all__ = [
    "reference_mean",
    "reference_variance",
    "reference_covariance",
    "reference_dot",
    "reference_l2_norm",
    "reference_cosine_similarity",
    "reference_ssim",
    "reference_wasserstein",
    "pad_like_blocks",
    "blockwise_means",
]


def pad_like_blocks(array: np.ndarray, block_shape: Sequence[int] | None) -> np.ndarray:
    """Zero-pad ``array`` to a multiple of ``block_shape`` (no-op when ``None``)."""
    if block_shape is None:
        return np.asarray(array, dtype=np.float64)
    from ..core.blocking import pad_to_blocks

    return np.asarray(pad_to_blocks(np.asarray(array, dtype=np.float64), block_shape))


def reference_mean(array: np.ndarray, pad_to: Sequence[int] | None = None) -> float:
    """Mean of the array (over the padded domain when ``pad_to`` is given)."""
    return float(pad_like_blocks(array, pad_to).mean())


def reference_variance(array: np.ndarray, pad_to: Sequence[int] | None = None) -> float:
    """Population variance (``ddof=0``)."""
    return float(pad_like_blocks(array, pad_to).var())


def reference_covariance(
    a: np.ndarray, b: np.ndarray, pad_to: Sequence[int] | None = None
) -> float:
    """Population covariance of two equal-shaped arrays."""
    pa = pad_like_blocks(a, pad_to).ravel()
    pb = pad_like_blocks(b, pad_to).ravel()
    if pa.shape != pb.shape:
        raise ValueError("covariance requires equal shapes")
    return float(np.mean((pa - pa.mean()) * (pb - pb.mean())))


def reference_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two equal-shaped arrays (padding is irrelevant: zeros)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("dot requires equal shapes")
    return exact_sum([a * b])


def reference_l2_norm(array: np.ndarray) -> float:
    """Euclidean norm of the flattened array."""
    values = np.asarray(array, dtype=np.float64).ravel()
    return math.sqrt(exact_sum([values * values]))


def reference_cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-shaped arrays."""
    na = reference_l2_norm(a)
    nb = reference_l2_norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroDivisionError("cosine similarity is undefined for zero-norm arrays")
    return reference_dot(a, b) / (na * nb)


def reference_ssim(
    a: np.ndarray,
    b: np.ndarray,
    *,
    data_range: float = 1.0,
    luminance_stabilizer: float | None = None,
    contrast_stabilizer: float | None = None,
    luminance_weight: float = 1.0,
    contrast_weight: float = 1.0,
    structure_weight: float = 1.0,
    pad_to: Sequence[int] | None = None,
) -> float:
    """Global (single-window) SSIM of Algorithm 12 computed on raw arrays."""
    pa = pad_like_blocks(a, pad_to)
    pb = pad_like_blocks(b, pad_to)
    if pa.shape != pb.shape:
        raise ValueError("SSIM requires equal shapes")
    s_l = (0.01 * data_range) ** 2 if luminance_stabilizer is None else float(luminance_stabilizer)
    s_c = (0.03 * data_range) ** 2 if contrast_stabilizer is None else float(contrast_stabilizer)
    mu_a, mu_b = pa.mean(), pb.mean()
    var_a, var_b = pa.var(), pb.var()
    sigma_a, sigma_b = np.sqrt(var_a), np.sqrt(var_b)
    sigma_ab = np.mean((pa - mu_a) * (pb - mu_b))
    luminance = (2 * mu_a * mu_b + s_l) / (mu_a**2 + mu_b**2 + s_l)
    contrast = (2 * sigma_a * sigma_b + s_c) / (var_a + var_b + s_c)
    structure = (sigma_ab + s_c / 2) / (sigma_a * sigma_b + s_c / 2)
    return float(
        np.sign(luminance) * np.abs(luminance) ** luminance_weight
        * np.sign(contrast) * np.abs(contrast) ** contrast_weight
        * np.sign(structure) * np.abs(structure) ** structure_weight
    )


def blockwise_means(array: np.ndarray, block_shape: Sequence[int]) -> np.ndarray:
    """Block-wise means of the zero-padded array — the proxy Algorithm 13 builds on."""
    from ..core.blocking import block_array

    blocked = block_array(np.asarray(array, dtype=np.float64), block_shape)
    ndim = len(block_shape)
    block_axes = tuple(range(blocked.ndim - ndim, blocked.ndim))
    return blocked.mean(axis=block_axes)


def reference_wasserstein(
    a: np.ndarray,
    b: np.ndarray,
    order: float = 1.0,
    *,
    block_shape: Sequence[int] | None = None,
    stable: bool = True,
) -> float:
    """Order-``p`` Wasserstein distance between two arrays, Algorithm-13 conventions.

    With ``block_shape`` given, the distance is computed between the block-wise-mean
    proxies (the same granularity the compressed-space version uses); otherwise it is
    computed element-wise, i.e. the ``block_shape=(1,)*ndim`` exact limit the paper
    mentions.
    """
    order = float(order)
    if order < 1.0:
        raise ValueError("Wasserstein order must be >= 1")
    if block_shape is None:
        pa = np.asarray(a, dtype=np.float64).ravel()
        pb = np.asarray(b, dtype=np.float64).ravel()
    else:
        pa = blockwise_means(a, block_shape).ravel()
        pb = blockwise_means(b, block_shape).ravel()
    if pa.shape != pb.shape:
        raise ValueError("Wasserstein distance requires equal shapes")

    def normalise(values: np.ndarray) -> np.ndarray:
        total = values.sum()
        if np.isclose(total, 1.0, atol=1e-9) and np.all(values >= 0):
            return values
        shifted = values - values.max()
        exp = np.exp(shifted)
        return exp / exp.sum()

    da = np.sort(normalise(pa))
    db = np.sort(normalise(pb))
    diffs = np.abs(da - db)
    n = float(diffs.size)
    if not stable:
        return float((np.sum(diffs**order) / n) ** (1.0 / order))
    max_diff = diffs.max()
    if max_diff == 0.0:
        return 0.0
    inner = np.sum((diffs / max_diff) ** order) / n
    return float(max_diff * inner ** (1.0 / order))
