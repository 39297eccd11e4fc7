"""Out-of-core compressed-domain operations over chunked stores.

This module closes the gap between the in-memory operation set of
:mod:`repro.core.ops` and the chunk-table
:class:`repro.streaming.CompressedStore`: every Table I scalar reduction and
the linear structural operations run here **chunk at a time**, so a store of
any size is reduced — or rewritten — in chunk-sized memory.

The scalar reductions (``mean``, ``variance``, ``standard_deviation``,
``covariance``, ``dot``, ``l2_norm``, ``euclidean_distance``,
``cosine_similarity``) are the *same function objects* as
:mod:`repro.core.ops`, one per :data:`repro.core.ops.folds.REDUCTION_SPECS`
row: given a store, a sharded store or a chunk iterable, each one runs as a
**one-op plan** over :mod:`repro.engine`.  Because the engine folds the same
declarative :data:`repro.core.ops.folds.FOLD_SPECS` partials in the same chunk
order with the same correctly rounded sum :func:`repro.core.ops.folds.total`
(bit-identical to ``math.fsum``), a store-level reduction equals the
reduction of the assembled array **bit for bit** whenever the chunks assemble
bit-identically (stores written under the ``reference`` kernel backend); under
the fast backends the two agree within the backend's documented
``accumulation_tolerance`` (see ``docs/ops.md``).  Callers that want several
reductions should hand them to :func:`repro.engine.plan` and pay one fused
sweep instead of one sweep per call (``docs/engine.md``).

Structural operations (:func:`add`, :func:`subtract`, :func:`scale`,
:func:`negate`) map :mod:`repro.core.ops` over the chunks and append each
result to a new store immediately — lazy, bounded memory, and bit-identical to
running the in-memory operation on the assembled array *and serializing the
result* (rebinning is per-block; persisting rounds the per-block maxima to the
working float format, exactly as ``serialize`` does for the in-memory result).

Memory contract: a scalar reduction holds **one decoded chunk plus one step
buffer of at most the budget per source** (the engine's fold steps,
:data:`repro.streaming.steps.STEP_COEFFICIENTS` kept coefficients), and a
structural operation one chunk (pair) at a time, because its output mirrors
the source chunking; both add one coalesced span per source, or the
prefetcher's bounded readahead window once reads block.
Partial states are one float64 per block per tracked quantity.  Every sweep
reads through the one prefetching chunk reader, so the caller's chunk cache,
retry policy, codec override and read counters always apply.

Sources may be a :class:`CompressedStore` (of a pyblaz-family codec) or any
iterable of chunk :class:`CompressedArray` objects; every scalar reduction is
one sweep, so a single-shot generator of chunks is a valid source too.
"""

from __future__ import annotations

import math

from ..core import ops as core_ops
from ..core.ops.folds import REDUCTION_SPECS
from .sources import aligned_chunks
from .store import CompressedStore, CompressedStoreWriter

__all__ = [*REDUCTION_SPECS, "add", "subtract", "scale", "negate"]

# ---------------------------------------------------------------------- scalar ops
# the very functions of repro.core.ops, one per reduction row
globals().update((name, getattr(core_ops, name)) for name in REDUCTION_SPECS)


# ---------------------------------------------------------------------- structural ops
#: The in-memory chunk transform behind each structural operation.
_STRUCTURAL_OPS = {
    "add": core_ops.add,
    "subtract": core_ops.subtract,
    "scale": core_ops.multiply_scalar,
    "negate": core_ops.negate,
}


def _map_to_store(operation: str, sources: tuple, path,
                  extra: tuple = ()) -> CompressedStore:
    """Apply an in-memory chunk operation chunk-by-chunk into a new store.

    The result store mirrors the source chunking; only one input chunk (pair)
    and its result chunk are alive at a time.  Writing serializes each
    result chunk, which rounds its per-block maxima to the working float
    format — so the output store equals ``deserialize(serialize(op(assembled)))``
    bit for bit (indices are bit-identical outright; maxima after that one
    rounding, the same rounding any persisted in-memory result undergoes).
    Returns the store reopened for reading.

    The input store's records are read in coalesced spans, fetched ahead of
    the transform-and-append loop once a read blocks, so the writer stops
    waiting on slow storage between chunks (``docs/performance.md``).
    """
    transform = _STRUCTURAL_OPS[operation]
    iterator = aligned_chunks(sources)
    try:
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot operate on an empty chunk stream") from None
        result = transform(*first, *extra)
        first = None
        with CompressedStoreWriter(path, result.settings) as writer:
            writer.append(result)
            result = None
            for chunks in iterator:
                writer.append(transform(*chunks, *extra))
                chunks = None
    finally:
        iterator.close()
    return CompressedStore(path)


def negate(source, path) -> CompressedStore:
    """Write the negated array to ``path`` chunk-by-chunk (Algorithm 1; exact).

    Bit-identical to :func:`repro.core.ops.negate` of the assembled array —
    negation touches only indices, so no rebinning occurs.
    """
    return _map_to_store("negate", (source,), path)


def scale(source, factor: float, path) -> CompressedStore:
    """Write ``factor · source`` to ``path`` chunk-by-chunk (Algorithm 5; exact).

    Scaling touches only the per-block maxima (and index signs); the result
    equals the serialized in-memory :func:`repro.core.ops.multiply_scalar` of
    the assembled array bit for bit (persisting rounds the scaled maxima to
    the working float format).  Raises ``ValueError`` for non-finite factors
    before any chunk is written.
    """
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError("scalar must be finite")
    return _map_to_store("scale", (source,), path, extra=(factor,))


def add(a, b, path) -> CompressedStore:
    """Write the element-wise sum to ``path`` chunk-by-chunk (Algorithm 2).

    Error contract: rebinning only (half a bin width of the new per-block
    maxima), exactly as in-memory — rebinning is per-block, so the result
    equals the serialized in-memory :func:`repro.core.ops.add` of the
    assembled arrays bit for bit.
    """
    return _map_to_store("add", (a, b), path)


def subtract(a, b, path) -> CompressedStore:
    """Write the element-wise difference ``a − b`` to ``path`` chunk-by-chunk.

    Same rebinning-only contract (and serialized bit-identity to
    :func:`repro.core.ops.subtract`) as :func:`add`.
    """
    return _map_to_store("subtract", (a, b), path)
