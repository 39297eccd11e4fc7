"""Similarity measures in the compressed space (Algorithms 11, 12).

* ``cosine_similarity`` — the angle between two arrays viewed as vectors, from
  the compressed-space dot product and L2 norms; a row of
  :data:`repro.core.ops.folds.REDUCTION_SPECS`, its function generated in
  :mod:`repro.core.ops.reductions`.
* :func:`structural_similarity` — the SSIM index built from the compressed-space
  mean, variance and covariance, using the global (single-window) formulation of
  Algorithm 12: a weighted product of luminance, contrast and structure terms with
  stabilizer constants.

Stabilizer defaults follow the standard SSIM constants ``C1 = (k1·L)²`` and
``C2 = (k2·L)²`` with ``k1 = 0.01``, ``k2 = 0.03`` and ``L`` = ``data_range`` (1.0 by
default for data normalised to [0, 1], as in the paper's MRI experiment).  The
structure stabilizer is ``C2 / 2`` as in Algorithm 12.
"""

from __future__ import annotations

import numpy as np

from ..compressed import CompressedArray
from .coefficients import require_compatible
from .reductions import covariance, mean, variance

__all__ = ["structural_similarity"]


def structural_similarity(
    a: CompressedArray,
    b: CompressedArray,
    *,
    data_range: float = 1.0,
    luminance_stabilizer: float | None = None,
    contrast_stabilizer: float | None = None,
    luminance_weight: float = 1.0,
    contrast_weight: float = 1.0,
    structure_weight: float = 1.0,
) -> float:
    """Algorithm 12: the structural similarity index from compressed statistics.

    Parameters
    ----------
    data_range:
        Dynamic range ``L`` of the data; the default 1.0 suits data normalised to
        [0, 1] as in the paper's MRI study.
    luminance_stabilizer, contrast_stabilizer:
        Stabilizers ``s_l`` and ``s_c``; default to ``(0.01·L)²`` and ``(0.03·L)²``.
    luminance_weight, contrast_weight, structure_weight:
        Exponents ``w_l``, ``w_c``, ``w_s`` of the weighted product.

    Notes
    -----
    This is the single-window ("global") SSIM the paper computes — not the windowed
    mean-SSIM of image processing libraries.  With all weights 1, identical inputs
    give exactly 1.0.
    """
    require_compatible(a, b, "structural similarity")
    s_l = (0.01 * data_range) ** 2 if luminance_stabilizer is None else float(luminance_stabilizer)
    s_c = (0.03 * data_range) ** 2 if contrast_stabilizer is None else float(contrast_stabilizer)
    if s_l <= 0 or s_c <= 0:
        raise ValueError("SSIM stabilizers must be positive")

    mu_a = mean(a)
    mu_b = mean(b)
    var_a = variance(a)
    var_b = variance(b)
    sigma_a = np.sqrt(max(var_a, 0.0))
    sigma_b = np.sqrt(max(var_b, 0.0))
    sigma_ab = covariance(a, b)

    luminance = (2.0 * mu_a * mu_b + s_l) / (mu_a * mu_a + mu_b * mu_b + s_l)
    contrast = (2.0 * sigma_a * sigma_b + s_c) / (var_a + var_b + s_c)
    structure = (sigma_ab + s_c / 2.0) / (sigma_a * sigma_b + s_c / 2.0)

    return float(
        np.sign(luminance) * np.abs(luminance) ** luminance_weight
        * np.sign(contrast) * np.abs(contrast) ** contrast_weight
        * np.sign(structure) * np.abs(structure) ** structure_weight
    )
