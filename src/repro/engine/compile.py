"""Lowering fused plan passes into single compiled kernels.

A :class:`~repro.engine.plan.PassGroup` sweep normally interprets each chunk
step: decode, then run every fused fold partial as its own numpy call, each
materialising the dense specified-coefficient array
(:func:`repro.core.ops.coefficients.specified_coefficients`).  For a group
whose terms all read *leaf sources* — no structural ``add``/``scale``/…
nodes, which rebin and genuinely need the interpreter — the whole step can be
*lowered* into one kernel that

1. builds each source's scaled kept-coefficient matrix
   ``S = F.astype(float64) * (N / r)`` **once** (bitwise identical per element
   to ``specified_coefficients``, which computes the very same expression —
   but ``(n_blocks, kept_per_block)`` instead of the dense padded block
   layout, and once per source instead of once per fold);
2. emits every term's per-block partial-sum vectors from those shared
   matrices in a single traversal — a centered term as its sources' DC
   columns plus a row dot over the AC columns ``1:``, exactly the split the
   centered partials make.

The kernel itself comes from the selected :class:`repro.kernels.KernelBackend`
via :meth:`~repro.kernels.KernelBackend.compile_fused_pass` and is cached here
per ``(backend, PassSignature)`` — the signature captures everything the
generated code specialises on (term set, index dtype, block geometry), so a
plan re-executed over new chunks, new stores or new requests with the same
shape reuses the compiled kernel with zero recompilation.  That is what makes
the serving layer's coalesced plans compile once and stay warm across
requests.

Numerics contract
-----------------

``dc`` partial vectors (and the centered folds' DC vectors) are
**bit-identical** to the interpreted fold (same scalar expression per block,
no summation involved), so compiled means equal reference means exactly.
Summing folds (``square``/``product``/``diff_square`` and the centered folds'
AC sums) reassociate the within-block summation (a row dot over kept
coefficients instead of the interpreter's dense block-axis reduction), so
their per-block sums agree with reference within
:meth:`repro.kernels.KernelBackend.fused_fold_tolerance` — see
``docs/engine.md`` ("Compiled plans") for the derivation.  Everything after
the per-block vectors (the exact :func:`repro.core.ops.folds.total` combine,
finalizers) is shared with the
interpreted path, so chunking invariance is preserved per backend.

Fallbacks are always clean: groups that cannot be lowered (structural nodes,
pruned DC with mean-based terms, a backend without a fused-pass compiler) run
the interpreted path; a requested-but-unavailable backend resolves to
``reference`` with the reason recorded in ``Plan.last_execution``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from ..core.ops import folds
from ..core.ops.coefficients import require_compatible
from ..kernels import DEFAULT_BACKEND, get_backend, get_backend_class
from ..streaming.store import CompressedStore

__all__ = [
    "PassSignature",
    "lower_terms",
    "signature_for",
    "get_pass_kernel",
    "run_compiled_step",
    "resolve_backend",
    "kernel_cache_info",
    "clear_kernel_cache",
]


# ------------------------------------------------------------------ lowering
@dataclass(frozen=True)
class _Lowering:
    """Settings-independent lowering of one group's terms.

    Attributes
    ----------
    terms:
        ``(fold name, operand positions)`` per term, where positions index the
        group's decoded chunk tuple (its ``source_slots`` order).
    n_sources:
        Number of sources the group decodes per aligned step.
    """

    terms: tuple
    n_sources: int


@dataclass(frozen=True)
class PassSignature:
    """Everything a fused-pass kernel specialises on — the cache key.

    Two chunk streams with equal signatures are served by the same compiled
    kernel: the term set fixes the generated arithmetic, the index dtype and
    block geometry fix the input layout, and ``index_radius`` fixes the
    descale constant.  Chunk *counts*, shapes and maxima are runtime inputs,
    not signature — that is what lets one kernel serve every chunk of every
    request with the same plan shape.
    """

    terms: tuple
    n_sources: int
    index_dtype: str
    block_shape: tuple
    kept_per_block: int
    index_radius: int


@lru_cache(maxsize=512)
def lower_terms(program: tuple, terms: tuple, source_slots: tuple):
    """Lower one group's terms to source positions, or ``None`` to interpret.

    A group lowers only when every term's operands are all *leaf source*
    program slots — structural nodes (``add``/``subtract``/``scale``/
    ``negate``) rebin coefficients and keep the interpreted path.
    """
    position = {slot: index for index, slot in enumerate(source_slots)}
    lowered = []
    for name, slots in terms:
        if any(program[slot][0] != "source" for slot in slots):
            return None
        lowered.append((name, tuple(position[slot] for slot in slots)))
    return _Lowering(tuple(lowered), len(source_slots))


def signature_for(lowering: _Lowering, settings) -> PassSignature | None:
    """Bind a lowering to concrete chunk settings, or ``None`` to interpret.

    Mean-based terms (``dc`` and the centered folds) assume the DC coefficient
    is kept column 0 of the flattened index layout; when pruning dropped it,
    the interpreted partials own the (error-raising) behavior.
    """
    needs_dc = any(folds.FOLD_SPECS[name].requires_dc
                   for name, _ in lowering.terms)
    if needs_dc and not settings.first_coefficient_kept:
        return None
    return PassSignature(
        terms=lowering.terms,
        n_sources=lowering.n_sources,
        index_dtype=settings.index_dtype.name,
        block_shape=tuple(settings.block_shape),
        kept_per_block=int(settings.kept_per_block),
        index_radius=int(settings.index_radius),
    )


# ------------------------------------------------------------------ kernel cache
#: ``(backend name, signature) -> compiled kernel`` (or ``None`` when the
#: backend declined).  Per process: warmed once per distinct plan shape and
#: reused for every later chunk and every later plan with that shape.
_KERNEL_CACHE: dict[tuple, Callable | None] = {}


def get_pass_kernel(backend_name: str,
                    signature: PassSignature) -> tuple[Callable | None, float]:
    """Fetch (or compile and cache) the fused-pass kernel for a signature.

    Returns ``(kernel, compile_seconds)`` — ``compile_seconds`` is non-zero
    only on a cache miss that actually compiled, which is how callers report
    JIT warm-up separately from steady-state execution.  ``kernel`` is
    ``None`` when the backend has no fused-pass compiler (the caller then
    interprets).
    """
    key = (backend_name, signature)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key], 0.0
    backend = get_backend(backend_name)
    started = time.perf_counter()
    kernel = backend.compile_fused_pass(signature)
    elapsed = time.perf_counter() - started if kernel is not None else 0.0
    _KERNEL_CACHE[key] = kernel
    return kernel, elapsed


def kernel_cache_info() -> dict:
    """Cache introspection for tests and diagnostics."""
    return {
        "size": len(_KERNEL_CACHE),
        "keys": sorted((backend, signature.terms)
                       for backend, signature in _KERNEL_CACHE),
    }


def clear_kernel_cache() -> None:
    """Drop every cached kernel (tests; never needed in production)."""
    _KERNEL_CACHE.clear()


# ------------------------------------------------------------------ execution
def run_compiled_step(kernel: Callable, lowering: _Lowering,
                      chunks: Sequence) -> list:
    """One compiled chunk step: every term's partial state from one kernel call.

    ``chunks`` is the group's aligned decoded chunk tuple in ``source_slots``
    order.  Operand compatibility is checked exactly as the interpreted
    partials would, then the kernel returns each term's per-block float64
    vectors (its fold's :attr:`~repro.core.ops.folds.FoldSpec.outputs`),
    wrapped into :class:`repro.core.ops.folds.FoldState` under the same sum
    keys and counts the interpreted partials produce — so everything
    downstream (combine, finalize) is shared.
    """
    for name, positions in lowering.terms:
        if len(positions) == 2:
            require_compatible(chunks[positions[0]], chunks[positions[1]],
                               folds.FOLD_SPECS[name].label)
    vectors = iter(kernel(chunks))
    states = []
    for name, positions in lowering.terms:
        anchor = chunks[positions[0]]
        states.append(folds.FoldState(
            sums={key: [next(vectors)] for key in folds.FOLD_SPECS[name].outputs},
            n_blocks=anchor.n_blocks,
            n_elements=anchor.n_elements,
            n_padded_elements=anchor.n_padded_elements,
            dc_scale=anchor.settings.dc_scale if name == "dc" else None,
        ))
    return states


# ------------------------------------------------------------------ backend resolution
def _settings_backend(source) -> str | None:
    """The kernel-backend preference carried by a source's settings, if any."""
    if isinstance(source, CompressedStore):
        settings = source.settings
    elif isinstance(source, (list, tuple)) and source:
        settings = getattr(source[0], "settings", None)
    else:
        settings = None
    return getattr(settings, "backend", None)


def resolve_backend(requested: str | None, sources: Sequence) -> tuple[str, str | None]:
    """Resolve the executing backend name; returns ``(name, fallback_reason)``.

    Precedence: an explicit request wins; otherwise, when every
    backend-carrying source's :class:`~repro.core.settings.CompressionSettings`
    agrees on a single non-default backend, that consensus is used (the
    ``CompressionSettings.backend`` plumbing — note the field is never
    serialized, so stores opened from disk default to ``reference``); else
    :data:`repro.kernels.DEFAULT_BACKEND`.

    Unknown names raise :class:`repro.codecs.CodecError` (a caller error);
    a *known but unavailable* backend (numba not installed) falls back to
    ``reference`` with the reason returned for recording — execution always
    proceeds.
    """
    name = requested
    if name is None:
        preferences = {backend for backend in map(_settings_backend, sources)
                       if backend and backend != DEFAULT_BACKEND}
        name = preferences.pop() if len(preferences) == 1 else DEFAULT_BACKEND
    name = str(name).lower()
    cls = get_backend_class(name)  # raises CodecError for unknown names
    if name != DEFAULT_BACKEND and not cls.is_available():
        reason = cls.unavailable_reason() or "backend unavailable"
        return DEFAULT_BACKEND, f"{name} unavailable ({reason}); ran reference"
    return name, None
