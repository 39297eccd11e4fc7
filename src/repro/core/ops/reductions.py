"""Scalar reductions in the compressed space (Algorithms 6–11).

All reductions exploit orthonormality — dot products of coefficient blocks
equal dot products of the corresponding data blocks — so they require no inverse
transform and introduce no error beyond what compression already produced.

Each Table I scalar reduction (``mean``, ``variance``, ``standard_deviation``,
``l2_norm``, ``dot``, ``covariance``, ``euclidean_distance``,
``cosine_similarity``) is one row of
:data:`repro.core.ops.folds.REDUCTION_SPECS`, and this module generates its
public function from the row: the row's docstring, operands positional,
options keyword-only.  There is one function per reduction, whatever the
operands: a :class:`CompressedArray` runs the row's partial-fold form in
memory (:func:`repro.core.ops.folds.evaluate`, over a single chunk — the whole
array); a store, sharded store, chunk iterable or expression node runs the
same row as a one-output plan of the lazy engine (:func:`repro.engine.evaluate`)
over its chunks.  The folds are
chunking-invariant to the last bit (see the :mod:`folds
<repro.core.ops.folds>` module docstring), so both paths agree on identical
compressed data.  :mod:`repro.streaming.ops` re-exports the same objects.

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

from typing import Callable

import numpy as np

from ..compressed import CompressedArray
from . import folds
from .folds import REDUCTION_SPECS, ReductionSpec

__all__ = ["blockwise_mean", *REDUCTION_SPECS]


def _reduction_function(spec: ReductionSpec) -> Callable[..., float]:
    """The public eager function of one reduction row.

    Any :class:`CompressedArray` operand selects the in-memory fold, which
    checks a binary pair under the reduction's name (a non-compressed partner
    raises ``TypeError``); otherwise the operands are chunked sources and the
    function evaluates the row's ``repro.engine.expr`` node.
    """

    def reduction(*operands, **options):
        operands, options = spec.bind(operands, options)
        if any(isinstance(operand, CompressedArray) for operand in operands):
            return folds.evaluate(spec.name, *operands, **dict(options))
        # imported here: the engine imports this package's folds at import time
        from ... import engine
        from ...engine import expr

        return engine.evaluate(getattr(expr, spec.name)(*operands, **dict(options)))

    reduction.__name__ = reduction.__qualname__ = spec.name
    reduction.__module__ = "repro.core.ops"
    reduction.__doc__ = spec.doc
    reduction.__signature__ = spec.signature
    return reduction


globals().update((name, _reduction_function(spec))
                 for name, spec in REDUCTION_SPECS.items())


def blockwise_mean(compressed: CompressedArray) -> np.ndarray:
    """Block-wise means ``Ĉ[..., first] / c`` shaped like the block grid.

    This is the coarse proxy of the uncompressed array that the approximate
    operations (§IV-B) build on.  Error contract: exact in the compressed space.
    """
    return compressed.blockwise_means()
