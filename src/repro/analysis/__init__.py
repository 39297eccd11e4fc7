"""Uncompressed reference operations and error metrics.

Every compressed-space operation in :mod:`repro.core.ops` has an uncompressed-space
counterpart here, implemented directly on raw numpy arrays with matching conventions
(population statistics, global single-window SSIM, sorted-sample 1-D Wasserstein).
The experiment harnesses compare the two to produce the error figures of the paper
(Fig 5, Fig 6), and the test suite uses them as ground truth.

:mod:`repro.analysis.metrics` provides the error metrics used to report comparisons:
absolute error, relative error, mean absolute error, mean relative error and
maximum error.
"""

from .metrics import (
    absolute_error,
    max_absolute_error,
    mean_absolute_error,
    mean_relative_error,
    relative_error,
)
from .reference import (
    reference_cosine_similarity,
    reference_covariance,
    reference_dot,
    reference_l2_norm,
    reference_mean,
    reference_ssim,
    reference_variance,
    reference_wasserstein,
)

__all__ = [
    "reference_mean",
    "reference_variance",
    "reference_covariance",
    "reference_dot",
    "reference_l2_norm",
    "reference_cosine_similarity",
    "reference_ssim",
    "reference_wasserstein",
    "absolute_error",
    "relative_error",
    "mean_absolute_error",
    "mean_relative_error",
    "max_absolute_error",
]
