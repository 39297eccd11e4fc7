"""Lazy expression nodes over compressed sources (the engine's user surface).

An expression is a small immutable DAG: **array nodes** stand for compressed
arrays that are never materialised (a :class:`Source` wrapping a
:class:`repro.streaming.CompressedStore` or any re-iterable sequence of chunk
:class:`repro.core.CompressedArray` objects, or a structural combination —
:func:`add`, :func:`subtract`, :func:`scale`, :func:`negate` — of other array
nodes), and **reduction nodes** stand for the Table I scalars over an array
node (:func:`mean`, :func:`variance`, :func:`standard_deviation`,
:func:`covariance`, :func:`dot`, :func:`l2_norm`, :func:`euclidean_distance`,
:func:`cosine_similarity`).

Nothing is computed at construction time.  Handing one or more reduction nodes
to :func:`repro.engine.plan` (or :func:`repro.engine.evaluate`) compiles them
into one fused sweep in which every chunk of every source is decoded **once**
no matter how many reductions consume it — see :mod:`repro.engine.plan`
for the planning rules and ``docs/engine.md`` for the fusion matrix.

Node identity is *structural*: two separately built ``dot(x, y)`` nodes over
the same sources compare equal for planning purposes (``Expr.key``), so
repeated subexpressions deduplicate even when the caller does not share node
objects.  Sources are identified by the wrapped object (``id``), which is what
"the same source" means for an open store or a chunk list.

Reduction constructors accept raw sources anywhere an array node is expected —
``expr.mean(store)`` is shorthand for ``expr.mean(expr.source(store))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.ops.folds import REDUCTION_SPECS

__all__ = [
    "Expr",
    "ArrayExpr",
    "Reduction",
    "Source",
    "source",
    "add",
    "subtract",
    "scale",
    "negate",
    "mean",
    "variance",
    "standard_deviation",
    "covariance",
    "dot",
    "l2_norm",
    "euclidean_distance",
    "cosine_similarity",
    "REDUCTION_OPS",
]

#: Scalar reduction node kinds and their arity, derived from the one
#: reduction table :data:`repro.core.ops.folds.REDUCTION_SPECS`.
REDUCTION_OPS: dict[str, int] = {name: spec.arity
                                 for name, spec in REDUCTION_SPECS.items()}


class Expr:
    """Base of all expression nodes.  ``key`` is the structural identity."""

    @property
    def key(self) -> tuple:
        """Hashable structural key; equal keys plan as one node."""
        raise NotImplementedError


class ArrayExpr(Expr):
    """An array-valued node: a source or a structural combination of them."""


@dataclass(frozen=True, eq=False)
class Source(ArrayExpr):
    """Leaf wrapping a concrete chunk source (store or re-iterable of chunks).

    A source may also wrap a bare **catalog name** string — the client-side
    shape of the serving wire form (:mod:`repro.engine.wire`), resolved to a
    store by the server's catalog.
    """

    wrapped: Any

    @property
    def key(self) -> tuple:
        """Identity of the wrapped object — same store/sequence, same node.

        Name strings are identified by their *value*, not their object id:
        two sources naming the same catalog entry are the same source, which
        keeps wire round trips structurally stable.
        """
        if isinstance(self.wrapped, str):
            return ("source", "name", self.wrapped)
        return ("source", id(self.wrapped))

    def __repr__(self) -> str:
        return f"source({self.wrapped!r})"


@dataclass(frozen=True, eq=False)
class Structural(ArrayExpr):
    """A chunk-wise structural combination (never materialised by the engine).

    ``kind`` is one of ``add``/``subtract``/``scale``/``negate``; ``operands``
    are the input array nodes and ``factor`` the scalar of ``scale`` (``None``
    otherwise).  The planner evaluates these per chunk with the in-memory
    :mod:`repro.core.ops` structural operations, feeding the fold partials
    directly — no intermediate store is written.
    """

    kind: str
    operands: tuple[ArrayExpr, ...]
    factor: float | None = None

    @property
    def key(self) -> tuple:
        """Structural key: kind, operand keys, and the scale factor if any."""
        return (self.kind, tuple(op.key for op in self.operands), self.factor)

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.operands))
        if self.factor is not None:
            inner += f", {self.factor!r}"
        return f"{self.kind}({inner})"


@dataclass(frozen=True, eq=False)
class Reduction(Expr):
    """A scalar reduction over one or two array nodes.

    ``options`` holds finalize keywords (only the mean's ``padded`` today;
    :func:`repro.engine.plan` rejects any its table row lacks) and
    participates in the structural key, so ``mean(x)`` and
    ``mean(x, padded=False)`` are distinct outputs that still share the same
    underlying ``dc`` fold term.
    """

    op: str
    operands: tuple[ArrayExpr, ...]
    options: tuple[tuple[str, Any], ...] = ()

    @property
    def key(self) -> tuple:
        """Structural key: op name, operand keys, finalize options."""
        return (self.op, tuple(op.key for op in self.operands), self.options)

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.operands))
        if self.options:
            inner += ", " + ", ".join(f"{k}={v!r}" for k, v in self.options)
        return f"{self.op}({inner})"


def _as_array(operand) -> ArrayExpr:
    """Coerce a raw source into a :class:`Source` node; pass array nodes through."""
    if isinstance(operand, ArrayExpr):
        return operand
    if isinstance(operand, Reduction):
        raise TypeError(
            f"{operand!r} is scalar-valued; structural and reduction nodes "
            "take array-valued operands (sources or add/subtract/scale/negate)"
        )
    return Source(operand)


# ---------------------------------------------------------------- structural nodes
def source(wrapped) -> Source:
    """Wrap a :class:`CompressedStore` or re-iterable chunk sequence as a leaf."""
    return _as_array(wrapped) if isinstance(wrapped, ArrayExpr) else Source(wrapped)


def add(a, b) -> Structural:
    """Lazy element-wise sum of two array nodes (rebinning error, per block)."""
    return Structural("add", (_as_array(a), _as_array(b)))


def subtract(a, b) -> Structural:
    """Lazy element-wise difference ``a − b`` (rebinning error, per block)."""
    return Structural("subtract", (_as_array(a), _as_array(b)))


def scale(a, factor: float) -> Structural:
    """Lazy scalar multiple ``factor · a`` (exact; maxima-only)."""
    return Structural("scale", (_as_array(a),), factor=float(factor))


def negate(a) -> Structural:
    """Lazy negation ``−a`` (exact; indices-only)."""
    return Structural("negate", (_as_array(a),))


# ---------------------------------------------------------------- reduction nodes
def mean(x, *, padded: bool = True) -> Reduction:
    """Lazy store-level mean (Algorithm 7); ``padded`` as in :func:`repro.core.ops.mean`."""
    return Reduction("mean", (_as_array(x),), options=(("padded", bool(padded)),))


def variance(x) -> Reduction:
    """Lazy store-level variance (Algorithm 9) — one sweep, like every reduction."""
    return Reduction("variance", (_as_array(x),))


def standard_deviation(x) -> Reduction:
    """Lazy store-level standard deviation (square root of the variance fold)."""
    return Reduction("standard_deviation", (_as_array(x),))


def covariance(x, y) -> Reduction:
    """Lazy store-level covariance (Algorithm 8) — one sweep, like every reduction."""
    return Reduction("covariance", (_as_array(x), _as_array(y)))


def dot(x, y) -> Reduction:
    """Lazy store-level dot product (Algorithm 6)."""
    return Reduction("dot", (_as_array(x), _as_array(y)))


def l2_norm(x) -> Reduction:
    """Lazy store-level L2 norm (Algorithm 10)."""
    return Reduction("l2_norm", (_as_array(x),))


def euclidean_distance(x, y) -> Reduction:
    """Lazy store-level Euclidean distance ``‖x − y‖₂`` in coefficient space."""
    return Reduction("euclidean_distance", (_as_array(x), _as_array(y)))


def cosine_similarity(x, y) -> Reduction:
    """Lazy store-level cosine similarity (Algorithm 11)."""
    return Reduction("cosine_similarity", (_as_array(x), _as_array(y)))
