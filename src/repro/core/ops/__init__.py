"""Compressed-space operations (§IV, Table I, Algorithms 1–13).

Every function in this package operates on :class:`repro.core.CompressedArray`
operands **without decompressing them**.  Array-valued results are returned as new
``CompressedArray`` objects; scalar-valued results are Python floats.

The operations and their error behaviour, following Table I:

=============================  =========  ==========================
Operation                      Result     Source of additional error
=============================  =========  ==========================
:func:`negate`                 array      none
:func:`add` / :func:`subtract` array      rebinning
:func:`add_scalar`             array      rebinning
:func:`multiply_scalar`        array      none
:func:`dot`                    scalar     none
:func:`mean`                   scalar     none
:func:`covariance`             scalar     none
:func:`variance`               scalar     none
:func:`l2_norm`                scalar     none
:func:`euclidean_distance`     scalar     none
:func:`cosine_similarity`      scalar     none
:func:`structural_similarity`  scalar     none
:func:`wasserstein_distance`   scalar     function of block size
=============================  =========  ==========================

"None" means no error beyond what compression already introduced (and ordinary
floating-point rounding).  Scalar reductions are taken over the zero-padded block
domain; when the array shape is a multiple of the block shape they coincide with the
uncompressed-space definitions (see DESIGN.md §5).

Each scalar reduction but SSIM and the Wasserstein distance is one row of
:data:`repro.core.ops.folds.REDUCTION_SPECS` (its partial-fold form:
per-chunk partial → associative combine → finalize), and its function here is
generated from that row by :mod:`repro.core.ops.reductions`.  The one
function takes an in-memory ``CompressedArray`` (the fold over a single chunk)
or a chunked store, sharded store or chunk sequence (the same fold over every
chunk, through :mod:`repro.engine`); :mod:`repro.streaming.ops` re-exports the
same objects.  ``docs/ops.md`` tabulates every operation's error-bound
contract and its in-memory vs store-level availability.
"""

from . import folds
from .approximate import (
    approximate_binary_map,
    approximate_histogram,
    approximate_map,
    approximate_quantile,
    approximate_reduce,
)
from .coefficients import specified_coefficients
from .linear import add, add_scalar, multiply_scalar, negate, subtract
from .reductions import *  # noqa: F401,F403 -- blockwise_mean + one function per row
from .similarity import structural_similarity
from .statistics import (
    blockwise_covariance,
    blockwise_standard_deviation,
    blockwise_variance,
)
from .wasserstein import wasserstein_distance

__all__ = [
    "folds",
    "specified_coefficients",
    "negate",
    "add",
    "subtract",
    "add_scalar",
    "multiply_scalar",
    *folds.REDUCTION_SPECS,
    "blockwise_mean",
    "blockwise_covariance",
    "blockwise_variance",
    "blockwise_standard_deviation",
    "structural_similarity",
    "wasserstein_distance",
    "approximate_map",
    "approximate_binary_map",
    "approximate_reduce",
    "approximate_histogram",
    "approximate_quantile",
]
