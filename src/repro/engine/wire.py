"""Stable JSON wire form for the expression graph (the serving protocol's core).

An expression built from :mod:`repro.engine.expr` nodes serializes to a plain
JSON-compatible dict — every node becomes ``{"kind": ..., ...}`` — so a client
can describe an arbitrary reduction DAG to a remote evaluator without shipping
code.  Sources serialize as **catalog names** (strings): a client writes
``expr.mean(expr.source("temps"))`` and the server resolves ``"temps"`` to an
open :class:`repro.streaming.CompressedStore` at deserialization time.

Wire layout (version 1, append-only — new node kinds may be added, existing
shapes never change)::

    {"kind": "source", "name": "<catalog name>"}
    {"kind": "add" | "subtract" | "negate", "operands": [<array node>, ...]}
    {"kind": "scale", "operands": [<array node>], "factor": <finite float>}
    {"kind": "<reduction>", "operands": [<array node>, ...]}
    {"kind": "mean", "operands": [...], "options": {"padded": false}}

``<reduction>`` is any :data:`repro.core.ops.folds.REDUCTION_SPECS` row, with
its arity; the row's option defaults fill in any ``options`` left out.

Deserialization interns sources **by name**, so two occurrences of the same
catalog name inside one request become one :class:`~repro.engine.expr.Source`
node — and with a shared ``resolve`` callable (the server's catalog lookup),
one node across *many* requests, which is exactly what lets the planner
deduplicate fold partials between concurrent users (``docs/serving.md``).

Malformed wire objects raise :class:`WireError` (a ``ValueError``) with the
offending fragment named, never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from ..core.ops.folds import REDUCTION_SPECS
from .expr import ArrayExpr, Expr, Reduction, Source, Structural

__all__ = ["WIRE_VERSION", "WireError", "to_wire", "from_wire",
           "request_to_wire", "request_from_wire"]

#: Version tag for the wire layout; embedded in serving handshakes, not in
#: every node (the layout is append-only within a version).
WIRE_VERSION = 1

#: Structural node kinds and their operand arity.
_STRUCTURAL_ARITY = {"add": 2, "subtract": 2, "scale": 1, "negate": 1}


class WireError(ValueError):
    """A wire object does not encode a valid expression."""


# ------------------------------------------------------------------ serialization
def to_wire(expression: Expr, *, name_of: Callable[[Any], str] | None = None) -> dict:
    """Serialize an expression node (and its whole DAG) to the JSON wire form.

    Sources must wrap catalog-name strings — the natural client-side shape,
    ``expr.source("temps")`` — unless ``name_of`` is given to map arbitrary
    wrapped objects (e.g. open stores) back to their catalog names.
    """
    if isinstance(expression, Source):
        wrapped = expression.wrapped
        if name_of is not None:
            name = name_of(wrapped)
        elif isinstance(wrapped, str):
            name = wrapped
        else:
            raise WireError(
                f"source wraps {type(wrapped).__name__}, not a catalog name; "
                "build wire expressions over expr.source('<name>') strings or "
                "pass name_of= to map objects to names"
            )
        if not isinstance(name, str) or not name:
            raise WireError(f"catalog name must be a non-empty string, got {name!r}")
        return {"kind": "source", "name": name}
    if isinstance(expression, Structural):
        node: dict = {
            "kind": expression.kind,
            "operands": [to_wire(operand, name_of=name_of)
                         for operand in expression.operands],
        }
        if expression.kind == "scale":
            node["factor"] = float(expression.factor)
        return node
    if isinstance(expression, Reduction):
        node = {
            "kind": expression.op,
            "operands": [to_wire(operand, name_of=name_of)
                         for operand in expression.operands],
        }
        if expression.options:
            node["options"] = dict(expression.options)
        return node
    raise WireError(
        f"cannot serialize {type(expression).__name__}; expected a source, "
        "structural or reduction expression node"
    )


def request_to_wire(outputs: Mapping[str, Expr], *,
                    name_of: Callable[[Any], str] | None = None) -> dict:
    """Serialize a named mapping of reduction expressions (one request body)."""
    if not outputs:
        raise WireError("a request needs at least one named output expression")
    wired = {}
    for key, expression in outputs.items():
        if not isinstance(key, str) or not key:
            raise WireError(f"output names must be non-empty strings, got {key!r}")
        wired[key] = to_wire(expression, name_of=name_of)
    return wired


# ------------------------------------------------------------------ deserialization
def _expect_node(obj: Any) -> dict:
    """A wire node must be a dict with a string ``kind``."""
    if not isinstance(obj, Mapping):
        raise WireError(f"wire node must be an object, got {type(obj).__name__}: {obj!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise WireError(f"wire node is missing a string 'kind': {dict(obj)!r}")
    return dict(obj)


def _operands(node: dict, arity: int) -> list:
    """Validate a node's operand list length against its kind's arity."""
    operands = node.get("operands")
    if not isinstance(operands, (list, tuple)) or len(operands) != arity:
        raise WireError(
            f"{node['kind']!r} takes {arity} operand(s), got {operands!r}"
        )
    return list(operands)


def from_wire(obj: Any, *, resolve: Callable[[str], Any] | None = None,
              _sources: dict | None = None) -> Expr:
    """Deserialize a wire object back into an expression node.

    ``resolve`` maps catalog names to concrete sources (the server passes its
    catalog's ``get``); without it, sources keep wrapping the bare name string,
    which round-trips through :func:`to_wire` unchanged.  Source nodes are
    interned by name, so one name is one node throughout the deserialized DAG.
    """
    node = _expect_node(obj)
    kind = node["kind"]
    sources = _sources if _sources is not None else {}

    if kind == "source":
        name = node.get("name")
        if not isinstance(name, str) or not name:
            raise WireError(f"source node needs a non-empty string 'name': {node!r}")
        if name not in sources:
            sources[name] = Source(resolve(name) if resolve is not None else name)
        return sources[name]

    def array_operand(operand: Any) -> ArrayExpr:
        child = from_wire(operand, resolve=resolve, _sources=sources)
        if not isinstance(child, ArrayExpr):
            raise WireError(
                f"{kind!r} operands must be array-valued nodes, got a "
                f"{type(child).__name__} ({operand!r})"
            )
        return child

    if kind in _STRUCTURAL_ARITY:
        operands = tuple(array_operand(operand)
                         for operand in _operands(node, _STRUCTURAL_ARITY[kind]))
        if kind == "scale":
            factor = node.get("factor")
            try:
                finite = not isinstance(factor, bool) and math.isfinite(factor)
            except (TypeError, OverflowError):  # not a number, or an int past float
                finite = False
            if not finite:
                raise WireError(f"scale node needs a finite numeric 'factor': {node!r}")
            return Structural("scale", operands, factor=float(factor))
        return Structural(kind, operands)

    if kind in REDUCTION_SPECS:
        spec = REDUCTION_SPECS[kind]
        operands = tuple(array_operand(operand)
                         for operand in _operands(node, spec.arity))
        raw_options = node.get("options", {})
        if not isinstance(raw_options, Mapping):
            raise WireError(f"reduction 'options' must be an object: {node!r}")
        # the expr constructors record every option's default; fill them in
        # so a wire round trip of expr.mean(...) compares structurally equal
        options = dict(spec.options)
        options.update((str(key), value) for key, value in raw_options.items())
        return Reduction(kind, operands, options=tuple(sorted(options.items())))

    valid = sorted(_STRUCTURAL_ARITY) + sorted(REDUCTION_SPECS) + ["source"]
    raise WireError(f"unknown wire node kind {kind!r}; valid kinds: {valid}")


def request_from_wire(obj: Any, *,
                      resolve: Callable[[str], Any] | None = None) -> dict:
    """Deserialize one request body (name → wire expression) into expressions.

    All outputs share one source-interning table, so every occurrence of a
    catalog name across the whole request maps to a single source node — the
    precondition for the planner's partial dedup across outputs.
    """
    if not isinstance(obj, Mapping) or not obj:
        raise WireError(
            f"a request body must be a non-empty object of named expressions, "
            f"got {obj!r}"
        )
    sources: dict = {}
    outputs = {}
    for key, wire_node in obj.items():
        if not isinstance(key, str) or not key:
            raise WireError(f"output names must be non-empty strings, got {key!r}")
        outputs[key] = from_wire(wire_node, resolve=resolve, _sources=sources)
    return outputs
