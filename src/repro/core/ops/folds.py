"""Partial-fold forms of the compressed-space reductions (the out-of-core substrate).

Every scalar reduction in this package factors into three pieces:

* a **partial** mapping one chunk (or chunk pair) of a compressed array to a
  small :class:`FoldState` holding per-block partial sums — never the raw
  coefficients;
* the associative, commutative :func:`combine` merging two states;
* a **finalize** turning the accumulated state into the scalar result.

Each reduction's fold terms, finalizer and options are declared once, as a
row of :data:`REDUCTION_SPECS`, and the public ``repro.core.ops.<name>``
function is generated from it.  On a ``CompressedArray`` the function runs the
row through :func:`evaluate` over a single chunk (the whole array); on a store
the out-of-core engine (:mod:`repro.engine`) runs the *same* row over the
chunks of a :class:`repro.streaming.CompressedStore`.  The folds are **chunking-invariant
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
The partials work on each chunk's kept ``(n_blocks, kept)`` index matrix ``F``
and never build the blocked, padded coefficient array.  A stored coefficient
is ``F·s`` with one scale ``s = N / r`` per block (Algorithm 3), so a summing
fold is a per-block sum of index products times one scale:

* for ``int8``/``int16`` indices ``|i·j| ≤ 2³⁰``, so ``Σ i·j`` accumulated in
  float64 is the exact integer; each block's value is that sum scaled once by
  ``s_a·s_b`` (the centered folds' AC sums subtract the DC product in the
  integers first), which is the exact value rounded twice;
* ``diff_square``, and ``int32``/``int64`` indices (whose products overflow
  float64's exact range), take a row dot over the scaled kept matrix ``F·s``,
  elementwise the coefficients
  :func:`~repro.core.ops.coefficients.specified_coefficients` would give.

:data:`FOLD_REVISION` names this arithmetic, so per-block vectors persisted by
an earlier one are recognised as stale (:mod:`repro.streaming.sharded`).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ...numerics import exact_sum
from ..compressed import CompressedArray
from .coefficients import (block_scales, fold_step, require_compatible,
                           shared_kept_coefficients, step_memo)

__all__ = [
    "FoldState",
    "FoldSpec",
    "FOLD_SPECS",
    "ReductionSpec",
    "REDUCTION_SPECS",
    "reduction_spec",
    "FOLD_REVISION",
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
        array per chunk or fold step folded so far, in row order).  Which
        names are present depends on the partial that produced the state.
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


#: Revision of the per-block fold arithmetic: 1 is the integer-domain folds.
#: Persisted per-block vectors carry the revision they were computed under.
FOLD_REVISION = 1


# ---------------------------------------------------------------------- helpers
def _row_products(a: CompressedArray, b: CompressedArray, ac: bool) -> np.ndarray:
    """Per-block ``Σ Ĉa·Ĉb`` over the kept coefficients (AC columns with ``ac``).

    ``int8``/``int16`` indices sum exactly in the integers (``Σ i·j`` is
    shared by every partial of the step that needs it) and scale once;
    wider indices take a row dot over the scaled kept matrices.  ``a is b``
    gives the square sum, bit for bit the same values as ``product(a, a)``.
    """
    if a.indices.dtype.itemsize <= 2:
        sums = step_memo(("index_dot", id(a), id(b)), lambda: np.einsum(
            "ij,ij->i", a.indices, b.indices, dtype=np.float64, casting="unsafe"))
        if ac:
            sums = sums - a.indices[:, 0].astype(np.float64) * b.indices[:, 0]
        return sums * (block_scales(a) * block_scales(b))
    first = 1 if ac else 0
    return np.einsum("ij,ij->i", shared_kept_coefficients(a)[:, first:],
                     shared_kept_coefficients(b)[:, first:])


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
    return _state(a, {"product": [_row_products(a, b, ac=False)]})


def square_partial(chunk: CompressedArray) -> FoldState:
    """Per-block sums of ``Ĉ ⊙ Ĉ`` — the partial of :func:`~repro.core.ops.l2_norm`."""
    return _state(chunk, {"square": [_row_products(chunk, chunk, ac=False)]})


def difference_square_partial(a: CompressedArray, b: CompressedArray) -> FoldState:
    """Per-block sums of ``(Ĉa − Ĉb)²`` — the partial of Euclidean distance."""
    require_compatible(a, b, "euclidean distance")
    difference = np.subtract(shared_kept_coefficients(a), shared_kept_coefficients(b))
    return _state(a, {"diff_square": [np.einsum("ij,ij->i", difference, difference)]})


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
    coefficients apart and sums only the AC products, so the global means
    enter at finalize time and the fold needs a single sweep.
    """
    require_compatible(a, b, "covariance")
    _require_dc(a, "covariance/variance")
    return _state(a, {"dc_a": [_dc_vector(a)], "dc_b": [_dc_vector(b)],
                      "ac_product": [_row_products(a, b, ac=True)]})


def centered_square_partial(chunk: CompressedArray) -> FoldState:
    """Per-block DC coefficients and AC square sums — the variance partial.

    Per block ``Σ_k (C_k − μ·[k=0])² = (dc − μ)² + Σ_{k≠0} C_k²``; the
    partial keeps ``dc`` and ``ac_square`` apart so one sweep suffices.
    """
    _require_dc(chunk, "covariance/variance")
    return _state(chunk, {"dc": [_dc_vector(chunk)],
                          "ac_square": [_row_products(chunk, chunk, ac=True)]})


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
        The per-block sum keys of the partial's state, in order.
    label:
        Operation name in a binary fold's operand-compatibility errors.
    """

    name: str
    arity: int
    requires_dc: bool
    partial: Callable[..., FoldState]
    outputs: tuple[str, ...]
    label: str = ""


#: Every fold the operation set factors into, by name.  Each is one sweep: the
#: centered folds carry their own per-block DC vectors, so the centering mean
#: is taken at finalize time (:func:`dc_grand_mean`), not in a prior pass.
FOLD_SPECS: dict[str, FoldSpec] = {
    spec.name: spec
    for spec in (
        FoldSpec("dc", 1, True, dc_partial, ("dc",)),
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

    The engine's planner, the in-memory :func:`evaluate`, the public
    functions ``repro.core.ops.<name>`` (also ``repro.streaming.ops.<name>``)
    and ``repro.engine.expr.<name>`` generated from the row, the wire form
    and the CLI all read this row.

    Attributes
    ----------
    name:
        Reduction name (the generated functions' name; the CLI spells it with
        dashes).
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
    doc:
        The generated functions' docstring: the algorithm, its error contract
        and the operands it accepts.
    """

    name: str
    arity: int
    terms: tuple[tuple[str, tuple[int, ...]], ...]
    finalizer: str
    options: tuple[tuple[str, object], ...] = ()
    doc: str = ""

    @cached_property
    def signature(self) -> inspect.Signature:
        """Signature of the generated functions: positional operands, keyword options."""
        operands = [inspect.Parameter(name, inspect.Parameter.POSITIONAL_ONLY)
                    for name in ("x", "y")[:self.arity]]
        options = [inspect.Parameter(key, inspect.Parameter.KEYWORD_ONLY, default=value)
                   for key, value in self.options]
        return inspect.Signature(operands + options)

    def bind(self, operands: tuple, options: Mapping) -> tuple[tuple, tuple]:
        """Check a call against :attr:`signature`; its operands and options.

        Raises ``TypeError`` for a wrong operand count or an unknown keyword,
        as a hand-written function would, and ``ValueError`` for an option
        value :meth:`check_options` rejects (``padded="False"`` is not a
        bool).  The options come back complete (defaults filled in) and
        sorted by name — the form a :class:`repro.engine.expr.Reduction`
        node stores.
        """
        bound = self.signature.bind(*operands, **options)
        bound.apply_defaults()
        self.check_options(bound.kwargs)
        return bound.args, tuple(sorted(bound.kwargs.items()))

    def check_options(self, options: Mapping) -> None:
        """Raise ``ValueError`` for an unknown option or a mistyped value.

        A value must be an instance of its default's type; nothing is
        converted (``bool("False")`` would be ``True``).
        """
        defaults = dict(self.options)
        for key, value in options.items():
            if key not in defaults:
                raise ValueError(f"{self.name} takes no option {key!r}; valid "
                                 f"options: {sorted(defaults)}")
            if not isinstance(value, type(defaults[key])):
                raise ValueError(f"{self.name} option {key!r} must be a "
                                 f"{type(defaults[key]).__name__}, got {value!r}")

    def terms_over(self, operands: tuple) -> tuple:
        """The ``(fold name, picked operands)`` terms over concrete operands."""
        return tuple((fold, tuple(operands[index] for index in pick))
                     for fold, pick in self.terms)

    def finalize(self, operands: tuple, states: Mapping, options: Mapping) -> float:
        """The scalar from accumulated states keyed by :meth:`terms_over` terms."""
        finalizer = globals()[self.finalizer]
        return finalizer(*(states[term] for term in self.terms_over(operands)),
                         **options)


_ONE_OPERAND = """

        The operand is a :class:`repro.core.CompressedArray`, folded in memory,
        or a chunked source — a :class:`repro.streaming.CompressedStore`, a
        :class:`repro.streaming.ShardedStore`, an iterable of chunk arrays or an
        :mod:`repro.engine.expr` array node — folded in one sweep to the bits of
        the assembled array (stores written under the ``reference`` backend).
        """

_TWO_OPERANDS = """

        The operands are two compatible :class:`repro.core.CompressedArray`
        objects, folded in memory, or two identically chunked sources (stores,
        sharded stores, chunk iterables or :mod:`repro.engine.expr` array
        nodes), folded in one sweep to the bits of the assembled arrays (stores
        written under the ``reference`` backend).  A ``CompressedArray`` paired
        with any other operand raises ``TypeError``.
        """

#: Every scalar reduction, by name.  Adding a reduction is one row here plus
#: its ``finalize_*`` function (see ``docs/engine.md``); ``doc`` is the
#: docstring of the functions generated from the row.
REDUCTION_SPECS: dict[str, ReductionSpec] = {
    spec.name: spec
    for spec in (
        ReductionSpec("mean", 1, (("dc", (0,)),), "finalize_mean",
                      options=(("padded", True),), doc="""
        Algorithm 7: the array mean from the first coefficient of every block.

        Each block's first coefficient equals the block mean scaled by
        ``c = Π sqrt(block extents)``, so the array mean is the average first
        coefficient divided by ``c``.  With ``padded=True`` (the paper's
        semantics) the mean is over the zero-padded block domain;
        ``padded=False`` rescales to the original element count, the true mean
        of the uncompressed array up to compression error.  Error contract:
        exact in the compressed space (no error beyond compression); requires
        the first coefficient to be unpruned.""" + _ONE_OPERAND),
        ReductionSpec("variance", 1, (("centered_square", (0,)),),
                      "finalize_variance", doc="""
        Algorithm 9: the variance, as the covariance of the array with itself.

        Centering moves only each block's DC coefficient, so one sweep folds
        the DC coefficients and the AC square sums and the finalizer centers
        the DC terms on their global mean.  Error contract: exact in the
        compressed space (and always ≥ 0: the fold sums squares); requires the
        first coefficient to be unpruned.""" + _ONE_OPERAND),
        ReductionSpec("standard_deviation", 1, (("centered_square", (0,)),),
                      "finalize_standard_deviation", doc="""
        The standard deviation: one square root of the variance (Algorithm 9).

        Error contract: exact in the compressed space, like the variance;
        requires the first coefficient to be unpruned.""" + _ONE_OPERAND),
        ReductionSpec("l2_norm", 1, (("square", (0,)),), "finalize_l2_norm",
                      doc="""
        Algorithm 10: the L2 (Euclidean) norm ``‖Ĉ‖₂``.

        Orthonormal transforms preserve the 2-norm, so the norm of the kept
        coefficients equals the norm of the decompressed (padded) array;
        padding contributes zeros, and one square root at the end
        reintroduces no per-chunk rounding.  Error contract: exact in the
        compressed space.""" + _ONE_OPERAND),
        ReductionSpec("dot", 2, (("product", (0, 1)),), "finalize_dot", doc="""
        Algorithm 6: the dot product ``Σ (Ĉ1 ⊙ Ĉ2)``.

        Equals the dot product of the two decompressed (padded) arrays because
        the orthonormal transform preserves inner products; padding contributes
        zeros.  Error contract: exact in the compressed space (no error beyond
        compression).""" + _TWO_OPERANDS),
        ReductionSpec("covariance", 2, (("centered_product", (0, 1)),),
                      "finalize_covariance", doc="""
        Algorithm 8: the population covariance of two arrays.

        ``mean(Ĉ1_centered ⊙ Ĉ2_centered)`` over all coefficient slots;
        centering moves only the DC coefficients, so one sweep folds both
        operands' DC coefficients and the AC products and the finalizer
        centers the DC terms.  Error contract: exact in the compressed space;
        requires the first coefficient to be unpruned.""" + _TWO_OPERANDS),
        ReductionSpec("euclidean_distance", 2, (("diff_square", (0, 1)),),
                      "finalize_euclidean_distance", doc="""
        The Euclidean distance ``‖x − y‖₂``, computed on the coefficients.

        Orthonormality makes ``Σ (Ĉ1 − Ĉ2)²`` equal the squared distance of
        the decompressed (padded) arrays, so no subtraction-and-rebinning round
        trip (and none of its rebinning error) and no intermediate store is
        needed.  Error contract: exact in the compressed space.""" + _TWO_OPERANDS),
        ReductionSpec("cosine_similarity", 2,
                      (("product", (0, 1)), ("square", (0,)), ("square", (1,))),
                      "finalize_cosine_similarity", doc="""
        Algorithm 11: ``dot(x, y) / (‖x‖₂ · ‖y‖₂)`` in one pass.

        Folds the dot product's ``product`` sum and each operand's ``square``
        sum.  Error contract: exact in the compressed space (numerator and
        denominator both are).  Raises ``ZeroDivisionError`` if either operand
        has zero norm, for which cosine similarity is undefined.""" + _TWO_OPERANDS),
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
    spec.check_options(options)
    return spec


# ---------------------------------------------------------------------- one step
def run_terms(values: Mapping, terms) -> list[FoldState]:
    """Every ``(fold name, slots)`` term's partial over ``values`` (slot → chunk).

    The partials run as one :func:`~repro.core.ops.coefficients.fold_step`
    (joining the caller's, if any): a row sum two of them need (``Σ i²`` for
    ``square`` and ``centered_square`` of one chunk, ``Σ i·j`` for
    ``product`` and ``centered_product`` of one pair, a scaled kept matrix)
    is computed once and dropped when the step ends.
    """
    with fold_step():
        return [FOLD_SPECS[name].partial(*(values[slot] for slot in slots))
                for name, slots in terms]


def evaluate(name: str, *operands: CompressedArray, **options) -> float:
    """Run one reduction start-to-finish over in-memory operands.

    The single-chunk path of the :mod:`repro.core.ops` reductions, with the
    engine's recipe: the row's fold terms (operands interned by identity, so
    ``cosine_similarity(a, a)`` folds one square sum), one fold step of
    partials (:func:`run_terms`), then the row's finalizer with ``options``
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
    states = dict(zip(terms, run_terms(values, terms)))
    return spec.finalize(slots, states, options)
