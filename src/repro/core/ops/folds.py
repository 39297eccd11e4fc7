"""Partial-fold forms of the compressed-space reductions (the out-of-core substrate).

Every scalar reduction in this package factors into three pieces:

* a **partial** mapping one chunk (or chunk pair) of a compressed array to a
  small :class:`FoldState` holding per-block partial sums — never the raw
  coefficients;
* the associative, commutative :func:`combine` merging two states;
* a **finalize** turning the accumulated state into the scalar result.

The in-memory operations in :mod:`repro.core.ops` are thin wrappers that run a
fold over a single chunk (the whole array); the out-of-core engine in
:mod:`repro.streaming.ops` runs the *same* fold over the chunks of a
:class:`repro.streaming.CompressedStore`.  The folds are **chunking-invariant
to the last bit** because

1. store chunks are block-aligned slabs, so every chunk covers whole blocks;
2. each per-block partial sum is computed independently per block (a reduction
   over that block's trailing axes only), so it has the same bits whether the
   block arrived in a chunk or in the whole array; and
3. finalization sums the per-block values with :func:`total`, the correctly
   rounded sum of its inputs (bit-identical to :func:`math.fsum`, computed by
   :func:`repro.numerics.exact_sum`) — independent of how they were grouped
   into chunks.

Consequently a store-level reduction equals its in-memory counterpart on the
assembled array *bit for bit* whenever the chunks assemble bit-identically —
the ``reference`` kernel-backend guarantee.  Under the fast backends
(:mod:`repro.kernels`), chunked compression differs from one-shot compression
within the backend's documented ``accumulation_tolerance``, and the reductions
inherit that tolerance — see ``docs/ops.md`` for the per-operation contracts.

The partial state costs one float64 per block and per tracked quantity — a
``Π block_extents``-fold reduction of the data (64× for the default 4³ blocks).
Chunk coefficients are materialised transiently, one chunk (pair) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ...numerics import exact_sum
from ..compressed import CompressedArray
from .coefficients import require_compatible, specified_coefficients

__all__ = [
    "FoldState",
    "FoldSpec",
    "FOLD_SPECS",
    "get_fold_spec",
    "evaluate",
    "combine",
    "combine_all",
    "total",
    "product_partial",
    "square_partial",
    "difference_square_partial",
    "dc_partial",
    "similarity_partial",
    "centered_product_partial",
    "centered_square_partial",
    "dc_grand_mean",
    "finalize_dot",
    "finalize_l2_norm",
    "finalize_euclidean_distance",
    "finalize_mean",
    "finalize_covariance",
    "finalize_variance",
    "finalize_cosine_similarity",
]


@dataclass
class FoldState:
    """Associative partial state of a compressed-space reduction.

    Attributes
    ----------
    sums:
        Named per-block partial-sum vectors, each a list of float64 arrays (one
        array per chunk folded so far, in chunk order).  Which names are
        present depends on the partial that produced the state.
    n_blocks, n_elements, n_padded_elements:
        Accumulated block / element / padded-element counts of the chunks
        folded so far.
    dc_scale:
        The settings' DC scale ``Π sqrt(block extents)`` (needed by the mean
        finalizer); ``None`` for folds that do not touch DC coefficients.
    """

    sums: dict[str, list[np.ndarray]]
    n_blocks: int
    n_elements: int
    n_padded_elements: int
    dc_scale: float | None = field(default=None)


def _check_mergeable(left: FoldState, right: FoldState) -> None:
    """Raise ``ValueError`` unless two states came from the same fold and geometry."""
    if set(left.sums) != set(right.sums):
        raise ValueError(
            f"cannot combine partial states of different folds "
            f"({sorted(left.sums)} vs {sorted(right.sums)})"
        )
    if (
        left.dc_scale is not None
        and right.dc_scale is not None
        and left.dc_scale != right.dc_scale
    ):
        raise ValueError("cannot combine partial states with different block shapes")


def combine(left: FoldState, right: FoldState) -> FoldState:
    """Merge two partial states (associative and commutative up to finalize).

    Per-block vectors are concatenated and counts added; because
    :func:`total` sums them exactly, the *finalized* result does not depend on
    the combination order.  Raises ``ValueError`` when the states came from
    different folds or from incompatible block geometries.
    """
    _check_mergeable(left, right)
    return FoldState(
        sums={key: left.sums[key] + right.sums[key] for key in left.sums},
        n_blocks=left.n_blocks + right.n_blocks,
        n_elements=left.n_elements + right.n_elements,
        n_padded_elements=left.n_padded_elements + right.n_padded_elements,
        dc_scale=left.dc_scale if left.dc_scale is not None else right.dc_scale,
    )


def combine_all(states) -> "FoldState | None":
    """Merge an iterable of partial states in one linear pass.

    Equivalent to left-folding :func:`combine` but extends one accumulator in
    place, so merging ``n`` per-chunk states costs O(n) instead of the O(n²)
    list rebuilding of repeated pairwise combines — the form the streaming
    engine uses over stores with many chunks.  Returns ``None`` for an empty
    iterable (no chunks folded).
    """
    accumulator: FoldState | None = None
    for state in states:
        if accumulator is None:
            accumulator = FoldState(
                sums={key: list(parts) for key, parts in state.sums.items()},
                n_blocks=state.n_blocks,
                n_elements=state.n_elements,
                n_padded_elements=state.n_padded_elements,
                dc_scale=state.dc_scale,
            )
            continue
        _check_mergeable(accumulator, state)
        for key, parts in state.sums.items():
            accumulator.sums[key].extend(parts)
        accumulator.n_blocks += state.n_blocks
        accumulator.n_elements += state.n_elements
        accumulator.n_padded_elements += state.n_padded_elements
        if accumulator.dc_scale is None:
            accumulator.dc_scale = state.dc_scale
    return accumulator


def total(state: FoldState, key: str) -> float:
    """Exact (correctly rounded) sum of one per-block partial-sum vector.

    Correct rounding makes this independent of the chunking that produced the
    parts — the property that lets store-level reductions match their
    in-memory counterparts bit for bit.  :func:`repro.numerics.exact_sum`
    returns the same bits as ``math.fsum`` over the chained parts, in a few
    vectorised passes instead of one Python float at a time.
    """
    return exact_sum(state.sums[key])


# ---------------------------------------------------------------------- helpers
def _readonly_coefficients(chunk: CompressedArray) -> np.ndarray:
    """Specified coefficients for read-only use: the primed cache when present.

    Partials may *read* this array but never write it — operands a partial
    mutates must go through :func:`specified_coefficients`, which returns an
    owned copy.  Skipping the copy for read-only operands saves one memcpy per
    binary partial under the engine's shared-cache sweeps; the bits are
    identical either way.
    """
    cache = getattr(chunk, "coefficients_cache", None)
    if cache is not None:
        return cache
    return specified_coefficients(chunk)


def _per_block_sum(values: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a blocked ``(grid..., block...)`` array within each block, raveled C-order.

    Each block's sum is a reduction over that block's own elements only, so the
    result rows are bitwise independent of which other blocks share the array.
    """
    block_axes = tuple(range(values.ndim - ndim, values.ndim))
    return values.sum(axis=block_axes).ravel()


def _state(chunk: CompressedArray, sums: dict[str, list[np.ndarray]],
           dc_scale: float | None = None) -> FoldState:
    """Wrap one chunk's per-block vectors with its counts."""
    return FoldState(
        sums=sums,
        n_blocks=chunk.n_blocks,
        n_elements=chunk.n_elements,
        n_padded_elements=chunk.n_padded_elements,
        dc_scale=dc_scale,
    )


def _dc_index(ndim: int) -> tuple:
    """Index expression selecting every block's first (DC) coefficient."""
    return (Ellipsis,) + (0,) * ndim


def _require_dc(chunk: CompressedArray, operation: str) -> None:
    """Raise ``ValueError`` unless the DC coefficient survived pruning."""
    if not chunk.settings.first_coefficient_kept:
        raise ValueError(
            f"{operation} requires the first coefficient of each block to be unpruned"
        )


# ---------------------------------------------------------------------- partials
def product_partial(a: CompressedArray, b: CompressedArray) -> FoldState:
    """Per-block sums of ``Ĉa ⊙ Ĉb`` — the partial of :func:`~repro.core.ops.dot`."""
    require_compatible(a, b, "dot product")
    ndim = a.settings.ndim
    products = specified_coefficients(a)
    np.multiply(products, _readonly_coefficients(b), out=products)
    return _state(a, {"product": [_per_block_sum(products, ndim)]})


def square_partial(chunk: CompressedArray) -> FoldState:
    """Per-block sums of ``Ĉ ⊙ Ĉ`` — the partial of :func:`~repro.core.ops.l2_norm`."""
    squares = specified_coefficients(chunk)
    np.multiply(squares, squares, out=squares)
    return _state(chunk, {"square": [_per_block_sum(squares, chunk.settings.ndim)]})


def difference_square_partial(a: CompressedArray, b: CompressedArray) -> FoldState:
    """Per-block sums of ``(Ĉa − Ĉb)²`` — the partial of Euclidean distance."""
    require_compatible(a, b, "euclidean distance")
    difference = specified_coefficients(a)
    np.subtract(difference, _readonly_coefficients(b), out=difference)
    np.multiply(difference, difference, out=difference)
    return _state(a, {"diff_square": [_per_block_sum(difference, a.settings.ndim)]})


def dc_partial(chunk: CompressedArray) -> FoldState:
    """Per-block DC (first) coefficients — the partial of :func:`~repro.core.ops.mean`.

    Raises ``ValueError`` when the DC coefficient was pruned away (the mean is
    then unrecoverable from the compressed form).
    """
    dc = np.array(chunk.first_coefficients(), dtype=np.float64).ravel()
    return _state(chunk, {"dc": [dc]}, dc_scale=chunk.settings.dc_scale)


def similarity_partial(a: CompressedArray, b: CompressedArray) -> FoldState:
    """Per-block product and squared-norm sums — the partial of cosine similarity.

    One pass computes everything :func:`finalize_cosine_similarity` needs:
    ``Σ Ĉa·Ĉb``, ``Σ Ĉa²`` and ``Σ Ĉb²`` per block.
    """
    require_compatible(a, b, "cosine similarity")
    ndim = a.settings.ndim
    ca = specified_coefficients(a)
    cb = specified_coefficients(b)
    product = _per_block_sum(ca * cb, ndim)
    np.multiply(ca, ca, out=ca)
    np.multiply(cb, cb, out=cb)
    return _state(a, {
        "product": [product],
        "square_a": [_per_block_sum(ca, ndim)],
        "square_b": [_per_block_sum(cb, ndim)],
    })


def centered_product_partial(
    a: CompressedArray, b: CompressedArray, dc_mean_a: float, dc_mean_b: float
) -> FoldState:
    """Per-block sums of centered coefficient products — the covariance partial.

    ``dc_mean_a`` / ``dc_mean_b`` are the *global* DC means of the two full
    arrays (pass 1, :func:`dc_grand_mean` over :func:`dc_partial`); subtracting
    them from each block's DC coefficient centers the arrays on their means
    without touching any other coefficient (§IV, Algorithm 8).
    """
    require_compatible(a, b, "covariance")
    _require_dc(a, "covariance/variance")
    ndim = a.settings.ndim
    ca = specified_coefficients(a)
    cb = specified_coefficients(b)
    ca[_dc_index(ndim)] -= dc_mean_a
    cb[_dc_index(ndim)] -= dc_mean_b
    np.multiply(ca, cb, out=ca)
    return _state(a, {"centered_product": [_per_block_sum(ca, ndim)]})


def centered_square_partial(chunk: CompressedArray, dc_mean: float) -> FoldState:
    """Per-block sums of squared centered coefficients — the variance partial."""
    _require_dc(chunk, "covariance/variance")
    ndim = chunk.settings.ndim
    centered = specified_coefficients(chunk)
    centered[_dc_index(ndim)] -= dc_mean
    np.multiply(centered, centered, out=centered)
    return _state(chunk, {"centered_square": [_per_block_sum(centered, ndim)]})


# ---------------------------------------------------------------------- finalizers
def _require_nonempty(state: FoldState) -> None:
    """Guard against folding zero chunks."""
    if state.n_blocks == 0:
        raise ValueError("cannot reduce an empty chunk stream")


def dc_grand_mean(state: FoldState) -> float:
    """The mean DC coefficient over every block (pass 1 of covariance/variance)."""
    _require_nonempty(state)
    return total(state, "dc") / state.n_blocks


def finalize_dot(state: FoldState) -> float:
    """Algorithm 6: the dot product is the exact sum of the per-block products."""
    _require_nonempty(state)
    return total(state, "product")


def finalize_l2_norm(state: FoldState) -> float:
    """Algorithm 10: one square root of the exactly summed squared norm."""
    _require_nonempty(state)
    return float(math.sqrt(total(state, "square")))


def finalize_euclidean_distance(state: FoldState) -> float:
    """Euclidean distance: square root of the summed squared differences."""
    _require_nonempty(state)
    return float(math.sqrt(total(state, "diff_square")))


def finalize_mean(state: FoldState, *, padded: bool = True) -> float:
    """Algorithm 7: average DC coefficient divided by the DC scale.

    With ``padded=True`` (the paper's semantics) the mean is over the
    zero-padded block domain; ``padded=False`` rescales to the original
    element count.
    """
    _require_nonempty(state)
    value = total(state, "dc") / state.n_blocks / state.dc_scale
    if not padded:
        value *= state.n_padded_elements / state.n_elements
    return value


def finalize_covariance(state: FoldState) -> float:
    """Algorithm 8: mean of the centered products over the padded domain."""
    _require_nonempty(state)
    return total(state, "centered_product") / state.n_padded_elements


def finalize_variance(state: FoldState) -> float:
    """Algorithm 9: mean of the squared centered coefficients (always ≥ 0)."""
    _require_nonempty(state)
    return total(state, "centered_square") / state.n_padded_elements


def finalize_cosine_similarity(state: FoldState) -> float:
    """Algorithm 11: ``dot / (‖a‖₂·‖b‖₂)`` from one accumulated state.

    Raises ``ZeroDivisionError`` when either operand has zero norm, for which
    cosine similarity is undefined.
    """
    _require_nonempty(state)
    denominator = math.sqrt(total(state, "square_a")) * math.sqrt(total(state, "square_b"))
    if denominator == 0.0:
        raise ZeroDivisionError("cosine similarity is undefined for zero-norm arrays")
    return total(state, "product") / denominator


# ---------------------------------------------------------------------- fold specs
@dataclass(frozen=True)
class FoldSpec:
    """Declarative description of one fold: the unit the planner schedules.

    A spec names a partial, states what it needs (operand count, DC
    availability, pass-1 DC means for the centered folds) and how to finish it.
    The in-memory operations consume specs through :func:`evaluate`; the lazy
    engine (:mod:`repro.engine`) consumes the same specs to fuse many folds
    into shared sweeps over a store, deduplicating equal ``(name, operands)``
    terms across the requested outputs.

    Attributes
    ----------
    name:
        Registry key, also the natural name of the partial it wraps.
    arity:
        Number of compressed operands the partial folds (1 or 2).
    requires_dc:
        Whether the partial needs each block's first (DC) coefficient unpruned;
        the planner fails fast on store sources whose pruning mask dropped it.
    partial:
        ``(*chunks, *extra) -> FoldState`` — the per-chunk partial.
    finalize:
        ``FoldState -> float`` (possibly with keyword options, e.g. the mean's
        ``padded``) turning the accumulated state into the scalar.
    centered:
        True for the two-pass folds whose ``extra`` arguments are the operands'
        global DC means (one per operand, from a :func:`dc_grand_mean` pass).
    touches_coefficients:
        Whether the partial materialises the full specified-coefficient array
        (everything except the DC-only fold); the engine uses this to decide
        which decoded chunks are worth a shared coefficient cache.
    """

    name: str
    arity: int
    requires_dc: bool
    partial: Callable[..., FoldState]
    finalize: Callable[..., float]
    centered: bool = False
    touches_coefficients: bool = True

    @property
    def n_extra(self) -> int:
        """Number of extra scalar arguments the partial takes (DC means)."""
        return self.arity if self.centered else 0


#: Every fold the operation set factors into, by name.  ``dc`` doubles as the
#: mean fold (finalized with :func:`finalize_mean`) and as pass 1 of the
#: centered folds (finalized with :func:`dc_grand_mean`) — the planner reuses a
#: single accumulated ``dc`` state for both.
FOLD_SPECS: dict[str, FoldSpec] = {
    spec.name: spec
    for spec in (
        FoldSpec("dc", 1, True, dc_partial, finalize_mean,
                 touches_coefficients=False),
        FoldSpec("square", 1, False, square_partial, finalize_l2_norm),
        FoldSpec("product", 2, False, product_partial, finalize_dot),
        FoldSpec("diff_square", 2, False, difference_square_partial,
                 finalize_euclidean_distance),
        FoldSpec("similarity", 2, False, similarity_partial,
                 finalize_cosine_similarity),
        FoldSpec("centered_square", 1, True, centered_square_partial,
                 finalize_variance, centered=True),
        FoldSpec("centered_product", 2, True, centered_product_partial,
                 finalize_covariance, centered=True),
    )
}


def get_fold_spec(name: str) -> FoldSpec:
    """Look up a registered :class:`FoldSpec`; raise ``KeyError`` with the valid set."""
    try:
        return FOLD_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown fold {name!r}; registered folds: {sorted(FOLD_SPECS)}"
        ) from None


def evaluate(name: str, *operands: CompressedArray, extra: tuple = (),
             **finalize_options) -> float:
    """Run one registered fold start-to-finish over in-memory operands.

    The single-chunk path the :mod:`repro.core.ops` wrappers use: one partial
    over the whole array (or array pair), one finalize.  ``extra`` carries the
    centered folds' DC means; ``finalize_options`` are passed to the spec's
    finalizer (e.g. the mean's ``padded``).
    """
    spec = get_fold_spec(name)
    if len(operands) != spec.arity:
        raise ValueError(
            f"fold {name!r} takes {spec.arity} operand(s), got {len(operands)}"
        )
    if len(extra) != spec.n_extra:
        raise ValueError(
            f"fold {name!r} takes {spec.n_extra} extra argument(s) "
            f"(the operands' global DC means), got {len(extra)}"
        )
    return spec.finalize(spec.partial(*operands, *extra), **finalize_options)
