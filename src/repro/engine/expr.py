"""Lazy expression nodes over compressed sources (the engine's user surface).

An expression is a small immutable DAG: **array nodes** stand for compressed
arrays that are never materialised (a :class:`Source` wrapping a
:class:`repro.streaming.CompressedStore` or any re-iterable sequence of chunk
:class:`repro.core.CompressedArray` objects, or a structural combination —
:func:`add`, :func:`subtract`, :func:`scale`, :func:`negate` — of other array
nodes), and **reduction nodes** stand for the Table I scalars over an array
node — one constructor per :data:`repro.core.ops.folds.REDUCTION_SPECS` row
(``mean``, ``variance``, ``standard_deviation``, ``covariance``, ``dot``,
``l2_norm``, ``euclidean_distance``, ``cosine_similarity``), generated from the
row with the signature of the eager :mod:`repro.core.ops` function.

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

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable

from ..core.ops.folds import REDUCTION_SPECS, ReductionSpec

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
    *REDUCTION_SPECS,
]


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
    """Lazy scalar multiple ``factor · a`` (exact; maxima-only).

    Raises ``ValueError`` for a non-finite factor, which no chunk could hold.
    """
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError(f"scale factor must be finite, got {factor!r}")
    return Structural("scale", (_as_array(a),), factor=factor)


def negate(a) -> Structural:
    """Lazy negation ``−a`` (exact; indices-only)."""
    return Structural("negate", (_as_array(a),))


# ---------------------------------------------------------------- reduction nodes
def _reduction_constructor(spec: ReductionSpec) -> Callable[..., Reduction]:
    """The lazy node constructor of one reduction row, ``expr.<name>``.

    Same signature as the eager :func:`repro.core.ops` function; every option
    is recorded with its default filled in, so ``mean(x)`` and
    ``mean(x, padded=True)`` share one structural key and wire form.
    """

    def constructor(*operands, **options) -> Reduction:
        operands, options = spec.bind(operands, options)
        return Reduction(spec.name, tuple(map(_as_array, operands)), options)

    constructor.__name__ = constructor.__qualname__ = spec.name
    constructor.__module__ = __name__
    constructor.__doc__ = (f"Lazy ``{spec.name}`` node: what ``repro.core.ops."
                           f"{spec.name}`` computes, once planned.\n\n"
                           + inspect.cleandoc(spec.doc))
    constructor.__signature__ = spec.signature
    return constructor


globals().update((name, _reduction_constructor(spec))
                 for name, spec in REDUCTION_SPECS.items())
