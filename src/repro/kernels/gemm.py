"""The GEMM fast path: one BLAS matmul per block grid, fused with binning.

Two ideas make this backend fast where the ``reference`` einsum path is slow:

1. **The separable transform is a single 2-D GEMM.**  A separable orthonormal
   transform over a block is the Kronecker product of its per-axis matrices:
   flattening each block (C order) to a row of length ``B = prod(block_shape)``,
   the whole forward transform of *all* blocks is one ``(n_blocks, B) @ (B, B)``
   matrix product — which numpy hands to BLAS.  The per-axis operator matrices
   are tiny (``B ≤ 1024`` covers every practical block shape), so the Kronecker
   operator stays cache-resident; larger blocks fall back to one 2-D GEMM per
   axis.  ``out=`` buffers are preallocated and the input copy is reused as the
   binning scratch buffer, so the fused transform→maxima→binning pipeline
   allocates two ``(n_blocks, B)`` buffers total — no intermediate float64
   copies like the unfused ``bin_coefficients``/``scale_to_indices`` chain.
2. **Optional low-precision accumulation.**  When the working float format is
   ≤ float32 the whole pipeline (GEMM, maxima, scaling) runs in float32, halving
   memory traffic; the stored maxima are rounded to the working format
   afterwards anyway, so no representable information is lost.

The price is exactness: BLAS reassociates the contraction, so results agree
with ``reference`` only within :func:`accumulation_tolerance` (documented
below, verified by the parity suite in ``tests/property/test_prop_kernels.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import ClassVar

import numpy as np

from ..core.binning import index_radius
from ..core.transforms import transform_matrix
from .base import KernelBackend

__all__ = ["GemmKernel", "accumulation_dtype", "accumulation_tolerance"]

#: Largest block size for which the full Kronecker operator is materialised
#: (a float64 1024×1024 operator is 8 MB); larger blocks use the per-axis path.
MAX_FUSED_OPERATOR = 1024


def accumulation_dtype(settings) -> np.dtype:
    """float32 when the working format is ≤ 32 bits, float64 otherwise."""
    return np.dtype(np.float32 if settings.float_format.storage_bits <= 32 else np.float64)


def accumulation_tolerance(settings) -> float:
    """Documented per-coefficient error bound relative to the block maximum.

    Reassociating a length-``B`` contraction at precision ``ε`` perturbs a
    coefficient by at most ``B·ε·max|x|``; orthonormality gives
    ``max|x| ≤ √B·N`` with ``N`` the block's max coefficient magnitude, so the
    relative-to-``N`` bound is ``B^1.5·ε`` — a 4× factor covers the abs/max/
    scale steps also running at accumulation precision.
    """
    eps = float(np.finfo(accumulation_dtype(settings)).eps)
    return 4.0 * float(settings.block_size) ** 1.5 * eps


@lru_cache(maxsize=None)
def _operator_t(
    name: str, block_shape: tuple[int, ...], inverse: bool, dtype_name: str
) -> np.ndarray:
    """Transposed Kronecker operator so that ``flat2d @ op_t`` applies the transform.

    The forward separable transform flattened over C-ordered blocks is
    ``K = M₁ ⊗ M₂ ⊗ … ⊗ M_k``; its inverse is ``Kᵀ`` (orthonormality), so the
    inverse operator is the untransposed ``K``.
    """
    operator = np.asarray(transform_matrix(name, block_shape[0]))
    for extent in block_shape[1:]:
        operator = np.kron(operator, transform_matrix(name, extent))
    result = operator if inverse else operator.T
    result = np.ascontiguousarray(result, dtype=np.dtype(dtype_name))
    result.setflags(write=False)
    return result


@lru_cache(maxsize=None)
def _clip_limit(index_dtype_name: str, acc_dtype_name: str) -> float:
    """Largest accumulation-dtype value that safely casts into the index dtype.

    ``float(radius)`` may round *up* to a value outside the index type (e.g.
    float32(2³¹−1) = 2³¹), which would wrap on the final integer cast; step
    down to the nearest representable value below the radius instead.
    """
    acc = np.dtype(acc_dtype_name)
    radius = index_radius(np.dtype(index_dtype_name))
    limit = np.asarray(radius, dtype=acc)
    # compare in exact integer space: float(radius) itself already rounds
    # 2⁶³−1 up to 2⁶³, so a float-float comparison would miss the overflow
    if int(limit) > radius:
        limit = np.nextafter(limit, np.asarray(0, dtype=acc))
    return float(limit)


def _apply_per_axis(flat_blocks: np.ndarray, matrices: tuple[np.ndarray, ...]) -> np.ndarray:
    """Contract each block axis via one 2-D GEMM (the large-block fallback).

    ``flat_blocks`` is ``(n_blocks,) + block_shape``; axis ``i+1`` is moved to
    the end, flattened, multiplied by ``Mᵢᵀ`` as a single ``(rest, bᵢ) @ (bᵢ, bᵢ)``
    product, and moved back.
    """
    result = flat_blocks
    for axis, matrix in enumerate(matrices, start=1):
        moved = np.moveaxis(result, axis, -1)
        shape = moved.shape
        flat2d = np.ascontiguousarray(moved).reshape(-1, shape[-1])
        out2d = np.matmul(flat2d, matrix.T.astype(flat2d.dtype, copy=False))
        result = np.moveaxis(out2d.reshape(shape), -1, axis)
    return np.ascontiguousarray(result)


class GemmKernel(KernelBackend):
    """BLAS-backed fused transform+binning with optional float32 accumulation."""

    name: ClassVar[str] = "gemm"
    bit_exact: ClassVar[bool] = False
    summary: ClassVar[str] = (
        "single-GEMM Kronecker transform fused with binning; float32 accumulation "
        "for ≤32-bit working formats"
    )

    def accumulation_tolerance(self, settings) -> float:
        return accumulation_tolerance(settings)

    # ------------------------------------------------------------------ helpers
    def _forward_coefficients(
        self, flat2d: np.ndarray, transform, settings, acc: np.dtype
    ) -> np.ndarray:
        block_size = settings.block_size
        if block_size <= MAX_FUSED_OPERATOR:
            op_t = _operator_t(transform.name, settings.block_shape, False, acc.name)
            coefficients = np.empty_like(flat2d)
            np.matmul(flat2d, op_t, out=coefficients)
            return coefficients
        matrices = tuple(np.asarray(m) for m in transform.matrices)
        blocks = flat2d.reshape((flat2d.shape[0],) + settings.block_shape)
        return _apply_per_axis(blocks, matrices).reshape(flat2d.shape)

    # ------------------------------------------------------------------ kernels
    def transform_and_bin(self, blocked, transform, settings):
        ndim = settings.ndim
        block_size = settings.block_size
        blocked = np.asarray(blocked)
        grid_shape = blocked.shape[:-ndim] if blocked.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1
        acc = accumulation_dtype(settings)

        flat2d = np.ascontiguousarray(blocked, dtype=acc).reshape(n_blocks, block_size)
        coefficients = self._forward_coefficients(flat2d, transform, settings, acc)

        # Fused binning: the input copy is dead after the GEMM, so it doubles as
        # the scratch buffer — abs, scale, round and clip all run in place.
        # (Unless ascontiguousarray returned a view of the caller's array — a
        # contiguous input already at the accumulation dtype — which must not
        # be scribbled over.)
        if block_size > MAX_FUSED_OPERATOR or np.may_share_memory(flat2d, blocked):
            work = np.empty_like(coefficients)
        else:
            work = flat2d
        np.abs(coefficients, out=work)
        maxima_acc = work.max(axis=1)

        dtype = settings.index_dtype
        radius = index_radius(dtype)
        safe = np.where(maxima_acc == 0, acc.type(1), maxima_acc)
        # One per-row reciprocal + one per-element multiply is much cheaper
        # than a per-element division, but radius/safe overflows the
        # accumulation dtype for tiny block maxima.  Compute the per-row scale
        # in float64 and only fall back to the divide-first order of
        # binning.scale_to_indices (|c/safe| <= 1, so the product cannot
        # overflow) when any row's scale would not survive the downcast.
        scale = float(radius) / safe.astype(np.float64)
        if np.all(scale <= 0.5 * np.finfo(acc).max):
            np.multiply(coefficients, scale.astype(acc)[:, None], out=work)
        else:
            np.divide(coefficients, safe[:, None], out=work)
            np.multiply(work, acc.type(radius), out=work)
        np.rint(work, out=work)
        limit = _clip_limit(dtype.name, acc.name)
        np.clip(work, -limit, limit, out=work)
        indices = work.astype(dtype)

        maxima = maxima_acc.astype(np.float64).reshape(grid_shape)
        return maxima, indices.reshape(grid_shape + settings.block_shape)

    def inverse_transform(self, coefficients, transform, settings):
        ndim = settings.ndim
        block_size = settings.block_size
        coefficients = np.asarray(coefficients)
        grid_shape = coefficients.shape[:-ndim] if coefficients.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1
        acc = accumulation_dtype(settings)

        flat2d = np.ascontiguousarray(coefficients, dtype=acc).reshape(n_blocks, block_size)
        if block_size <= MAX_FUSED_OPERATOR:
            op_t = _operator_t(transform.name, settings.block_shape, True, acc.name)
            out = np.empty_like(flat2d)
            np.matmul(flat2d, op_t, out=out)
        else:
            matrices = tuple(np.asarray(m.T) for m in transform.matrices)
            blocks = flat2d.reshape((n_blocks,) + settings.block_shape)
            out = _apply_per_axis(blocks, matrices).reshape(n_blocks, block_size)
        return out.astype(np.float64).reshape(grid_shape + settings.block_shape)
