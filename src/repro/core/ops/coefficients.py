"""Shared coefficient-space helpers for the compressed-space operations.

Two properties of the compression pipeline make compressed-space operation possible
(§IV-A): (1) each block of stored indices ``F`` is proportional to the block's
transform coefficients, so scaling ``F`` by ``N`` recovers the *specified*
coefficients exactly as they will appear at decompression time; and (2) the
orthonormal transform preserves dot products, so summative quantities (means,
norms, covariances) can be computed from coefficients directly.

:func:`specified_coefficients` implements Algorithm 3 on the blocked, padded
array.  :func:`kept_coefficients` is the same on the kept ``(n_blocks, kept)``
matrix, and :func:`rebin_kept` is the converse: given a kept coefficient
matrix produced by some operation (e.g. the sum of two arrays' coefficients),
re-derive the ``{N, F}`` pair, which is where the "rebinning" error of Table I
comes from.  Pruned positions hold zeros, which neither change a block's
maximum magnitude nor bin to anything but zero, so rebinning the kept matrix
gives the ``{N, F}`` of rebinning the blocked array bit for bit — without
building it.

The float kept matrices are *coefficient-major*: each column (one kept
coefficient of every block) is contiguous, whatever the layout of the index
matrix they came from (:func:`column_major_float`), so a per-block maximum or
row sum runs as ``kept`` full-length vector operations.

Within a :func:`fold_step` scope, the operations one step of the engine runs
(structural ``add``/``subtract`` and the fold partials) share what they derive
from the same chunk — its scaled kept matrix, a pair's kept difference, an
index row sum — through :func:`step_memo`: computed once, dropped when the
scope ends.  :func:`rebin_kept_dc` re-bins only as far as a ``dc`` fold reads:
the block maxima and the DC column.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .. import binning
from ..binning import bin_coefficients
from ..compressed import CompressedArray
from ..settings import CompressionSettings

__all__ = ["specified_coefficients", "block_scales", "column_major_float",
           "kept_coefficients", "shared_kept_coefficients",
           "shared_kept_difference", "rebin_kept", "rebin_kept_dc",
           "fold_step", "step_memo", "require_compatible"]

#: What the operations of the fold step being run share, keyed by the
#: identity of the step's arrays (see :func:`fold_step`); ``None`` outside one.
_STEP_SHARED: ContextVar["dict | None"] = ContextVar("step_shared", default=None)


@contextmanager
def fold_step() -> Iterator[None]:
    """Scope one fold step: its operations compute a shared value once.

    The step's arrays stay alive for the whole scope, so the identities
    keying :func:`step_memo` stay unique, and the shared values are dropped
    with it — nothing outlives the step or answers for a later mutation.  A
    nested scope joins the enclosing one.
    """
    if _STEP_SHARED.get() is not None:
        yield
        return
    token = _STEP_SHARED.set({})
    try:
        yield
    finally:
        _STEP_SHARED.reset(token)


def step_memo(key: tuple, compute: Callable[[], object]) -> object:
    """``compute()``, once per :func:`fold_step` scope for ``key`` (every call outside one)."""
    shared = _STEP_SHARED.get()
    if shared is None:
        return compute()
    value = shared.get(key)
    if value is None:
        value = shared[key] = compute()
    return value


def specified_coefficients(compressed: CompressedArray) -> np.ndarray:
    """Algorithm 3: recover the kept coefficients ``Ĉ = N ⊙ F ⊘ r``.

    Returns a blocked float64 array shaped ``(grid..., block...)`` with zeros at
    pruned positions, owned by the caller.
    """
    return compressed.specified_coefficients()


def block_scales(compressed: CompressedArray) -> np.ndarray:
    """Every block's ``s = N / r`` (C-order blocks), the factor Algorithm 3 applies to ``F``.

    Taken once per fold step (:func:`step_memo`); callers only read it.
    """
    return step_memo(("scales", id(compressed)), lambda: compressed.maxima.reshape(-1)
                     / float(compressed.settings.index_radius))


#: Coefficients per tile when :func:`column_major_float` converts a
#: block-major matrix: a tile's source and target rows stay in cache.
_TILE_COEFFICIENTS = 1 << 14


def column_major_float(indices: np.ndarray) -> np.ndarray:
    """A fresh float64 copy of a kept ``(n_blocks, kept)`` matrix, coefficient-major.

    The one place a float kept matrix takes its layout: Fortran order, each
    column contiguous.  A matrix whose columns already are (a fold step's,
    :mod:`repro.streaming.steps`) is one cast.  A block-major one (an
    in-memory array, a chunk over the step budget) is cast a tile of rows at
    a time, because a strided cast of the whole matrix is a naive transpose.
    """
    if indices.strides[0] == indices.itemsize:
        return indices.astype(np.float64, order="F")
    values = np.empty(indices.shape, np.float64, order="F")
    rows = max(1, _TILE_COEFFICIENTS // indices.shape[1])
    for start in range(0, len(indices), rows):
        values[start:start + rows] = indices[start:start + rows]
    return values


def kept_coefficients(compressed: CompressedArray) -> np.ndarray:
    """Algorithm 3 on the kept matrix: ``F ⊙ s`` with ``s = N / r`` per block.

    Returns a fresh coefficient-major float64 ``(n_blocks, kept)`` array
    (:func:`column_major_float`), elementwise the kept positions of
    :func:`specified_coefficients` (the same expression per element), without
    the padded block layout.
    """
    values = column_major_float(compressed.indices)
    np.multiply(values, block_scales(compressed)[:, None], out=values)
    return values


def shared_kept_coefficients(compressed: CompressedArray) -> np.ndarray:
    """:func:`kept_coefficients`, taken once per fold step; callers only read it."""
    return step_memo(("kept", id(compressed)), lambda: kept_coefficients(compressed))


def shared_kept_difference(a: CompressedArray, b: CompressedArray) -> np.ndarray:
    """``kept(a) − kept(b)``, taken once per fold step; callers only read it.

    A structural ``subtract(a, b)`` and the ``diff_square`` partial of the
    same pair both start from it.
    """
    return step_memo(("kept_difference", id(a), id(b)), lambda: np.subtract(
        shared_kept_coefficients(a), shared_kept_coefficients(b)))


def rebin_kept(values: np.ndarray, like: CompressedArray) -> CompressedArray:
    """Quantize a kept ``(n_blocks, kept)`` coefficient matrix into ``{N, F}``.

    Re-binning the blocked, padded coefficient array of an array with the
    settings and shape of ``like`` gives the same maxima and indices, bit for
    bit.  The indices keep the layout of ``values``.
    """
    maxima, indices = bin_coefficients(values, 1, like.settings.index_dtype)
    return CompressedArray(settings=like.settings, shape=like.shape,
                           maxima=maxima.reshape(like.grid_shape), indices=indices)


@lru_cache(maxsize=64)
def _first_coefficient_settings(settings: CompressionSettings) -> CompressionSettings:
    """``settings`` with every coefficient but the first (DC) pruned."""
    mask = np.zeros(settings.block_shape, dtype=bool)
    mask[(0,) * settings.ndim] = True
    return settings.with_(pruning_mask=mask)


def rebin_kept_dc(values: np.ndarray, like: CompressedArray) -> CompressedArray:
    """:func:`rebin_kept` pruned to its first coefficient: all a ``dc`` fold reads.

    The maxima are the row maxima of all of ``values``, as in
    :func:`rebin_kept`, but only the DC column (kept column 0) is scaled to
    indices, by the same elementwise expression — so its DC coefficients are
    bit for bit those of ``rebin_kept(values, like)``, without binning the
    other columns.  The result carries ``like``'s settings with every other
    coefficient pruned.  A mask that pruned the DC leaves no column to keep:
    that array is re-binned in full, so the ``dc`` fold raises its usual error.
    """
    if not like.settings.first_coefficient_kept:
        return rebin_kept(values, like)
    maxima = binning.block_maxima(values, 1)
    indices = binning.scale_to_indices(values[:, :1], maxima, 1,
                                       like.settings.index_dtype)
    return CompressedArray(settings=_first_coefficient_settings(like.settings),
                           shape=like.shape, maxima=maxima.reshape(like.grid_shape),
                           indices=indices)


def require_compatible(a: CompressedArray, b: CompressedArray, operation: str) -> None:
    """Raise ``ValueError`` unless ``a`` and ``b`` may be combined by ``operation``."""
    if not isinstance(a, CompressedArray) or not isinstance(b, CompressedArray):
        raise TypeError(f"{operation} requires CompressedArray operands")
    if a.shape != b.shape:
        raise ValueError(
            f"{operation} requires equal shapes, got {a.shape} and {b.shape}"
        )
    if not a.settings.is_compatible_with(b.settings):
        raise ValueError(
            f"{operation} requires compatible compression settings "
            f"({a.settings.describe()} vs {b.settings.describe()})"
        )
