"""Optional numba backend: a JIT-compiled fused per-block kernel.

The whole per-block pipeline — Kronecker transform, maxima, scaling, rounding,
clipping — is one ``prange`` loop body, so each block is read once and its
indices written once with no intermediate arrays at all.  This is the closest
CPU analogue of the paper's fused GPU kernels.

numba is an *optional* dependency: when it is absent this module still imports
(the registry lists the backend as unavailable and :func:`repro.kernels.get_backend`
refuses it with a pointed error), and every consumer — the parity suite, the
benchmark harness, the CI smoke job — skips it automatically.

Exactness: the JIT kernel accumulates in float64 but rounds half-up
(``floor(x + 0.5)``) rather than numpy's round-half-to-even, so bin indices can
differ from ``reference`` by one at exact bin midpoints; together with the
compilation's freedom to reassociate this places ``numba`` under the same
documented tolerance contract as ``gemm`` (see
:func:`repro.kernels.base.parity_bound`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import ClassVar

import numpy as np

from ..core.binning import index_radius
from .base import KernelBackend
from .gemm import _operator_t, fused_fold_tolerance

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the usual case in minimal environments
    _numba = None

__all__ = ["NumbaKernel"]


@lru_cache(maxsize=None)
def _compiled_kernels():  # pragma: no cover - requires numba
    """Compile the fused forward and inverse kernels once per process."""

    @_numba.njit(parallel=True, cache=False)
    def forward(flat, op_t, radius, limit, indices_out, maxima_out):
        n_blocks, block_size = flat.shape
        for i in _numba.prange(n_blocks):
            row = np.empty(block_size, np.float64)
            block_max = 0.0
            for j in range(block_size):
                acc = 0.0
                for k in range(block_size):
                    acc += flat[i, k] * op_t[k, j]
                row[j] = acc
                magnitude = abs(acc)
                if magnitude > block_max:
                    block_max = magnitude
            maxima_out[i] = block_max
            # divide by the maximum before scaling so the product cannot
            # overflow for subnormal maxima (radius / block_max can reach inf)
            safe = block_max if block_max != 0.0 else 1.0
            for j in range(block_size):
                value = np.floor((row[j] / safe) * radius + 0.5)
                if value > limit:
                    value = limit
                elif value < -limit:
                    value = -limit
                indices_out[i, j] = int(value)

    @_numba.njit(parallel=True, cache=False)
    def inverse(flat, op_t, out):
        n_blocks, block_size = flat.shape
        for i in _numba.prange(n_blocks):
            for j in range(block_size):
                acc = 0.0
                for k in range(block_size):
                    acc += flat[i, k] * op_t[k, j]
                out[i, j] = acc

    return forward, inverse


def _fused_pass_source(signature) -> str:
    """Generate the specialised fused-pass loop body for one plan signature.

    One ``prange`` over blocks; inside, a single traversal of the kept
    coefficient columns feeds every term's accumulator — each source's index
    row is read once however many folds consume it.  Per-source descale
    constants (``N_i / r``) arrive precomputed in float64 so the per-element
    value ``F[i, j] * c`` is bit-identical to ``specified_coefficients``.
    ``out`` has one row per term's fold ``FoldSpec.outputs`` entry: DC rows
    are column 0 itself, and the centered folds accumulate their AC sums
    over columns ``j > 0`` only.
    """
    loop_terms = [(index, name, positions)
                  for index, (name, positions) in enumerate(signature.terms)
                  if name != "dc"]
    read = sorted({position for _, _, positions in loop_terms
                   for position in positions})
    args = ", ".join(f"idx{k}, scale{k}" for k in range(signature.n_sources))
    lines = [
        f"def fused_pass({args}, out):",
        "    n_blocks = idx0.shape[0]",
        "    kept = idx0.shape[1]",
        "    for i in prange(n_blocks):",
    ]
    lines += [f"        c{k} = scale{k}[i]" for k in range(signature.n_sources)]
    lines += [f"        acc{index} = 0.0" for index, _, _ in loop_terms]
    if loop_terms:
        lines.append("        for j in range(kept):")
        lines += [f"            v{k} = idx{k}[i, j] * c{k}" for k in read]
        for index, name, positions in loop_terms:
            indent = "            "
            if name.startswith("centered_"):
                lines.append(f"{indent}if j > 0:")
                indent += "    "
            if name == "diff_square":
                lines.append(f"{indent}d{index} = "
                             f"v{positions[0]} - v{positions[1]}")
                product = f"d{index} * d{index}"
            else:  # square/product, centered or not
                product = f"v{positions[0]} * v{positions[-1]}"
            lines.append(f"{indent}acc{index} += {product}")
    row = 0
    for index, (name, positions) in enumerate(signature.terms):
        if name == "dc" or name.startswith("centered_"):
            for position in positions:
                lines.append(f"        out[{row}, i] = "
                             f"idx{position}[i, 0] * c{position}")
                row += 1
        if name != "dc":
            lines.append(f"        out[{row}, i] = acc{index}")
            row += 1
    return "\n".join(lines)


@lru_cache(maxsize=None)
def _compiled_pass_kernel(signature):  # pragma: no cover - requires numba
    """JIT-compile (once per process per signature) the generated pass loop."""
    source = _fused_pass_source(signature)
    namespace: dict = {"prange": _numba.prange}
    exec(compile(source, f"<fused-pass {signature.terms}>", "exec"), namespace)
    return _numba.njit(parallel=True, cache=False)(namespace["fused_pass"])


class NumbaKernel(KernelBackend):
    """Fused per-block JIT kernel (requires the optional numba dependency)."""

    name: ClassVar[str] = "numba"
    bit_exact: ClassVar[bool] = False
    summary: ClassVar[str] = (
        "JIT-compiled fully-fused per-block loop (optional; skipped when numba "
        "is not installed)"
    )

    @classmethod
    def is_available(cls) -> bool:
        return _numba is not None

    @classmethod
    def unavailable_reason(cls) -> str | None:
        return None if _numba is not None else "numba is not installed"

    def accumulation_tolerance(self, settings) -> float:
        eps = float(np.finfo(np.float64).eps)
        return 4.0 * float(settings.block_size) ** 1.5 * eps

    def fused_fold_tolerance(self, settings) -> float:
        return fused_fold_tolerance(settings)

    # ------------------------------------------------------------------ fused passes
    def compile_fused_pass(self, signature):  # pragma: no cover - requires numba
        """One generated+JIT-compiled loop per plan signature (see
        :func:`_fused_pass_source`); declines when numba is absent so the
        engine falls back to the interpreter."""
        if _numba is None:
            return None
        from ..core.ops.folds import FOLD_SPECS
        jitted = _compiled_pass_kernel(signature)
        radius = float(signature.index_radius)
        n_outputs = sum(len(FOLD_SPECS[name].outputs) for name, _ in signature.terms)

        def kernel(chunks):
            args = []
            for chunk in chunks:
                args.append(np.ascontiguousarray(chunk.indices))
                args.append(chunk.maxima.reshape(-1) / radius)
            out = np.empty((n_outputs, chunks[0].n_blocks), dtype=np.float64)
            jitted(*args, out)
            return [np.array(row) for row in out]
        return kernel

    # ------------------------------------------------------------------ kernels
    def transform_and_bin(self, blocked, transform, settings):  # pragma: no cover
        ndim = settings.ndim
        block_size = settings.block_size
        blocked = np.asarray(blocked)
        grid_shape = blocked.shape[:-ndim] if blocked.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1

        flat2d = np.ascontiguousarray(blocked, dtype=np.float64).reshape(n_blocks, block_size)
        op_t = _operator_t(transform.name, settings.block_shape, False, "float64")
        dtype = settings.index_dtype
        radius = index_radius(dtype)
        limit = float(radius) if dtype.itemsize < 8 else float(2**63 - 1024)
        indices = np.empty((n_blocks, block_size), dtype=dtype)
        maxima = np.empty(n_blocks, dtype=np.float64)
        forward, _ = _compiled_kernels()
        forward(flat2d, op_t, float(radius), limit, indices, maxima)
        return maxima.reshape(grid_shape), indices.reshape(grid_shape + settings.block_shape)

    def inverse_transform(self, coefficients, transform, settings):  # pragma: no cover
        ndim = settings.ndim
        block_size = settings.block_size
        coefficients = np.asarray(coefficients)
        grid_shape = coefficients.shape[:-ndim] if coefficients.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1

        flat2d = np.ascontiguousarray(coefficients, dtype=np.float64).reshape(
            n_blocks, block_size
        )
        op_t = _operator_t(transform.name, settings.block_shape, True, "float64")
        out = np.empty_like(flat2d)
        _, inverse = _compiled_kernels()
        inverse(flat2d, op_t, out)
        return out.reshape(grid_shape + settings.block_shape)
