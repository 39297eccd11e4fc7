"""Partial-fold forms of the compressed-space reductions (the out-of-core substrate).

Every scalar reduction in this package factors into three pieces:

* a **partial** mapping one chunk (or chunk pair) of a compressed array to a
  small :class:`FoldState` holding per-block partial sums — never the raw
  coefficients;
* the associative, commutative :func:`combine` merging two states;
* a **finalize** turning the accumulated state into the scalar result.

Each reduction's fold terms, finalizer and options are declared once, as a
row of :data:`REDUCTION_SPECS`.  The in-memory operations in
:mod:`repro.core.ops` run a row through :func:`evaluate` over a single chunk
(the whole array); the out-of-core engine (:mod:`repro.engine`, behind
:mod:`repro.streaming.ops`) runs the *same* row over the chunks of a
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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ...numerics import exact_sum
from ..compressed import CompressedArray
from .coefficients import require_compatible, specified_coefficients

__all__ = [
    "FoldState",
    "FoldSpec",
    "FOLD_SPECS",
    "ReductionSpec",
    "REDUCTION_SPECS",
    "reduction_spec",
    "shared_coefficients",
    "run_terms",
    "evaluate",
    "combine",
    "combine_all",
    "total",
    "product_partial",
    "square_partial",
    "difference_square_partial",
    "dc_partial",
    "centered_product_partial",
    "centered_square_partial",
    "dc_grand_mean",
    "finalize_dot",
    "finalize_l2_norm",
    "finalize_euclidean_distance",
    "finalize_mean",
    "finalize_covariance",
    "finalize_variance",
    "finalize_standard_deviation",
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
        finalizer); ``None`` for every fold but ``dc``.
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


def _dc_vector(chunk: CompressedArray) -> np.ndarray:
    """Every block's DC coefficient as a fresh float64 vector (C-order blocks)."""
    return chunk.first_coefficients().ravel()


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
    return _state(chunk, {"dc": [_dc_vector(chunk)]},
                  dc_scale=chunk.settings.dc_scale)


def centered_product_partial(a: CompressedArray, b: CompressedArray) -> FoldState:
    """Per-block DC coefficients and AC product sums — the covariance partial.

    Centering an array on its mean changes only each block's DC coefficient
    (§IV, Algorithm 8), so per block ``Σ_k (Ca_k − μa·[k=0])(Cb_k − μb·[k=0])
    = (dc_a − μa)(dc_b − μb) + Σ_{k≠0} Ca_k·Cb_k``.  The partial keeps the DC
    coefficients apart and sums only the AC products (DC slot zeroed), so the
    global means enter at finalize time and the fold needs a single sweep.
    """
    require_compatible(a, b, "covariance")
    _require_dc(a, "covariance/variance")
    ndim = a.settings.ndim
    products = specified_coefficients(a)
    products[_dc_index(ndim)] = 0.0
    np.multiply(products, _readonly_coefficients(b), out=products)
    return _state(a, {"dc_a": [_dc_vector(a)], "dc_b": [_dc_vector(b)],
                      "ac_product": [_per_block_sum(products, ndim)]})


def centered_square_partial(chunk: CompressedArray) -> FoldState:
    """Per-block DC coefficients and AC square sums — the variance partial.

    Per block ``Σ_k (C_k − μ·[k=0])² = (dc − μ)² + Σ_{k≠0} C_k²``; the
    partial keeps ``dc`` and ``ac_square`` apart so one sweep suffices.
    """
    _require_dc(chunk, "covariance/variance")
    ndim = chunk.settings.ndim
    squares = specified_coefficients(chunk)
    squares[_dc_index(ndim)] = 0.0
    np.multiply(squares, squares, out=squares)
    return _state(chunk, {"dc": [_dc_vector(chunk)],
                          "ac_square": [_per_block_sum(squares, ndim)]})


# ---------------------------------------------------------------------- finalizers
def _require_nonempty(state: FoldState) -> None:
    """Guard against folding zero chunks."""
    if state.n_blocks == 0:
        raise ValueError("cannot reduce an empty chunk stream")


def dc_grand_mean(state: FoldState, key: str = "dc") -> float:
    """The mean DC coefficient over every block (the centering shift μ).

    ``key`` names the DC vector to average: ``dc`` for the mean and variance
    states, ``dc_a``/``dc_b`` for the two operands of a covariance state.
    """
    _require_nonempty(state)
    return total(state, key) / state.n_blocks


def _dc_deviations(state: FoldState, key: str = "dc") -> np.ndarray:
    """Every block's DC coefficient minus the global DC mean (the centering)."""
    return np.concatenate(state.sums[key]) - dc_grand_mean(state, key)


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
    """Algorithm 8: mean of the centered products over the padded domain.

    Per block the centered product sum is ``(dc_a − μa)(dc_b − μb)`` plus the
    AC product sum, ``μ`` each operand's global DC mean; each block's DC term
    enters the exact sum unrounded by the within-block summation.
    """
    centered = _dc_deviations(state, "dc_a") * _dc_deviations(state, "dc_b")
    return exact_sum([centered] + state.sums["ac_product"]) / state.n_padded_elements


def finalize_variance(state: FoldState) -> float:
    """Algorithm 9: mean of the squared centered coefficients (always ≥ 0).

    Per block ``(dc − μ)²`` plus the AC square sum; every summand is a square,
    so the correctly rounded total is never negative.
    """
    deviations = _dc_deviations(state)
    np.multiply(deviations, deviations, out=deviations)
    return exact_sum([deviations] + state.sums["ac_square"]) / state.n_padded_elements


def finalize_standard_deviation(state: FoldState) -> float:
    """Standard deviation: one square root of :func:`finalize_variance`."""
    return float(math.sqrt(finalize_variance(state)))


def finalize_cosine_similarity(product: FoldState, square_a: FoldState,
                               square_b: FoldState) -> float:
    """Algorithm 11: ``dot / (‖a‖₂·‖b‖₂)`` from the product and square states.

    Raises ``ZeroDivisionError`` when either operand has zero norm, for which
    cosine similarity is undefined.
    """
    _require_nonempty(product)
    denominator = (math.sqrt(total(square_a, "square"))
                   * math.sqrt(total(square_b, "square")))
    if denominator == 0.0:
        raise ZeroDivisionError("cosine similarity is undefined for zero-norm arrays")
    return total(product, "product") / denominator


# ---------------------------------------------------------------------- fold specs
@dataclass(frozen=True)
class FoldSpec:
    """Declarative description of one fold: the unit the planner schedules.

    A spec names a partial and states what it needs (operand count, DC
    availability) and what it emits.  Reductions (:data:`REDUCTION_SPECS`)
    are built from fold terms; the lazy engine (:mod:`repro.engine`) fuses
    many of them into shared sweeps over a store, deduplicating equal
    ``(name, operands)`` terms across the requested outputs.

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
        ``(*chunks) -> FoldState`` — the per-chunk partial.
    outputs:
        The per-block sum keys of the partial's state, in order — also the
        vectors a compiled fused-pass kernel emits for the fold
        (:meth:`repro.kernels.KernelBackend.compile_fused_pass`).
    touches_coefficients:
        Whether the partial materialises the full specified-coefficient array
        (everything except the DC-only fold); the engine uses this to decide
        which decoded chunks are worth a shared coefficient cache.
    label:
        Operation name in a binary fold's operand-compatibility errors.
    """

    name: str
    arity: int
    requires_dc: bool
    partial: Callable[..., FoldState]
    outputs: tuple[str, ...]
    touches_coefficients: bool = True
    label: str = ""


#: Every fold the operation set factors into, by name.  Each is one sweep: the
#: centered folds carry their own per-block DC vectors, so the centering mean
#: is taken at finalize time (:func:`dc_grand_mean`), not in a prior pass.
FOLD_SPECS: dict[str, FoldSpec] = {
    spec.name: spec
    for spec in (
        FoldSpec("dc", 1, True, dc_partial, ("dc",), touches_coefficients=False),
        FoldSpec("square", 1, False, square_partial, ("square",)),
        FoldSpec("product", 2, False, product_partial, ("product",),
                 label="dot product"),
        FoldSpec("diff_square", 2, False, difference_square_partial,
                 ("diff_square",), label="euclidean distance"),
        FoldSpec("centered_square", 1, True, centered_square_partial,
                 ("dc", "ac_square")),
        FoldSpec("centered_product", 2, True, centered_product_partial,
                 ("dc_a", "dc_b", "ac_product"), label="covariance"),
    )
}


# ---------------------------------------------------------------------- reductions
@dataclass(frozen=True)
class ReductionSpec:
    """One Table I scalar reduction: the single place it is declared.

    The engine's planner, the in-memory :func:`evaluate`, the expression
    constructors' arity table, the wire form and the CLI all read this row.

    Attributes
    ----------
    name:
        Reduction name (``expr.<name>`` builds its node; the CLI spells it
        with dashes).
    arity:
        Number of array operands.
    terms:
        ``(fold name, operand picker)`` pairs: the picker lists which of the
        reduction's operands feed the fold, so ``("square", (1,))`` is the
        square sum of the second operand.
    finalizer:
        Name of the module-level ``finalize_*`` function that turns the term
        states (in ``terms`` order) into the scalar.  It is looked up by name
        on every call, so the module attribute stays the one patchable seam.
    options:
        ``(name, default)`` pairs of the finalize keywords the reduction
        accepts; a value must have its default's type.
    """

    name: str
    arity: int
    terms: tuple[tuple[str, tuple[int, ...]], ...]
    finalizer: str
    options: tuple[tuple[str, object], ...] = ()

    def terms_over(self, operands: tuple) -> tuple:
        """The ``(fold name, picked operands)`` terms over concrete operands."""
        return tuple((fold, tuple(operands[index] for index in pick))
                     for fold, pick in self.terms)

    def finalize(self, operands: tuple, states: Mapping, options: Mapping) -> float:
        """The scalar from accumulated states keyed by :meth:`terms_over` terms."""
        finalizer = globals()[self.finalizer]
        return finalizer(*(states[term] for term in self.terms_over(operands)),
                         **options)


#: Every scalar reduction, by name.  Adding a reduction is one row here plus
#: its ``finalize_*`` function (see ``docs/engine.md``).
REDUCTION_SPECS: dict[str, ReductionSpec] = {
    spec.name: spec
    for spec in (
        ReductionSpec("mean", 1, (("dc", (0,)),), "finalize_mean",
                      options=(("padded", True),)),
        ReductionSpec("variance", 1, (("centered_square", (0,)),),
                      "finalize_variance"),
        ReductionSpec("standard_deviation", 1, (("centered_square", (0,)),),
                      "finalize_standard_deviation"),
        ReductionSpec("l2_norm", 1, (("square", (0,)),), "finalize_l2_norm"),
        ReductionSpec("dot", 2, (("product", (0, 1)),), "finalize_dot"),
        ReductionSpec("covariance", 2, (("centered_product", (0, 1)),),
                      "finalize_covariance"),
        ReductionSpec("euclidean_distance", 2, (("diff_square", (0, 1)),),
                      "finalize_euclidean_distance"),
        ReductionSpec("cosine_similarity", 2,
                      (("product", (0, 1)), ("square", (0,)), ("square", (1,))),
                      "finalize_cosine_similarity"),
    )
}


def reduction_spec(name: str, n_operands: int, options: Mapping) -> ReductionSpec:
    """The row for ``name``, checked against an operand count and options.

    Raises ``ValueError`` naming the valid set for an unknown reduction, a
    wrong operand count, an option the row does not take, or an option value
    whose type differs from the row's default.
    """
    spec = REDUCTION_SPECS.get(name)
    if spec is None:
        raise ValueError(f"unknown reduction {name!r}; valid reductions: "
                         f"{sorted(REDUCTION_SPECS)}")
    if n_operands != spec.arity:
        raise ValueError(f"{name} takes {spec.arity} operand(s), got {n_operands}")
    defaults = dict(spec.options)
    for key, value in options.items():
        if key not in defaults:
            raise ValueError(f"{name} takes no option {key!r}; valid options: "
                             f"{sorted(defaults)}")
        if not isinstance(value, type(defaults[key])):
            raise ValueError(f"{name} option {key!r} must be a "
                             f"{type(defaults[key]).__name__}, got {value!r}")
    return spec


# ---------------------------------------------------------------------- one step
@contextmanager
def shared_coefficients(terms, extra_uses=()):
    """Step-scoped coefficient caches for chunks read by two or more consumers.

    Yields ``offer(slot, chunk)``, to be called once each slot's chunk
    exists.  A chunk whose slot feeds two or more coefficient-touching fold
    terms (counting ``extra_uses``, e.g. the engine's ``add``/``subtract``
    operands) gets a primed ``coefficients_cache``: the dense coefficient
    array is materialised once and copied per consumer, bitwise identical
    (:func:`repro.core.ops.coefficients.specified_coefficients`).  The caches
    are dropped on exit — chunks may be caller-owned and must neither retain
    dense coefficients nor serve stale bits to later operations.
    """
    uses = Counter(extra_uses)
    for name, slots in terms:
        if FOLD_SPECS[name].touches_coefficients:
            uses.update(slots)
    primed = []

    def offer(slot, chunk) -> None:
        if uses[slot] >= 2 and getattr(chunk, "coefficients_cache", None) is None:
            chunk.coefficients_cache = chunk.specified_coefficients()
            primed.append(chunk)

    try:
        yield offer
    finally:
        for chunk in primed:
            del chunk.coefficients_cache


def run_terms(values: Mapping, terms) -> list[FoldState]:
    """Every ``(fold name, slots)`` term's partial over ``values`` (slot → chunk)."""
    return [FOLD_SPECS[name].partial(*(values[slot] for slot in slots))
            for name, slots in terms]


def evaluate(name: str, *operands: CompressedArray, **options) -> float:
    """Run one reduction start-to-finish over in-memory operands.

    The single-chunk path the :mod:`repro.core.ops` wrappers use, with the
    engine's recipe: the row's fold terms (operands interned by identity, so
    ``cosine_similarity(a, a)`` folds one square sum), shared coefficient
    caches, one partial per term, then the row's finalizer with ``options``
    (e.g. the mean's ``padded``).  Raises ``ValueError`` for an unknown name,
    a wrong operand count, a bad option or incompatible operands.
    """
    spec = reduction_spec(name, len(operands), options)
    if spec.arity == 2:
        require_compatible(*operands, name.replace("_", " "))
    slots = tuple(next(index for index, other in enumerate(operands)
                       if other is operand) for operand in operands)
    terms = tuple(dict.fromkeys(spec.terms_over(slots)))
    values = dict(zip(slots, operands))
    with shared_coefficients(terms) as offer:
        for slot, chunk in values.items():
            offer(slot, chunk)
        states = dict(zip(terms, run_terms(values, terms)))
    return spec.finalize(slots, states, options)
