"""Shared coefficient-space helpers for the compressed-space operations.

Two properties of the compression pipeline make compressed-space operation possible
(§IV-A): (1) each block of stored indices ``F`` is proportional to the block's
transform coefficients, so scaling ``F`` by ``N`` recovers the *specified*
coefficients exactly as they will appear at decompression time; and (2) the
orthonormal transform preserves dot products, so summative quantities (means,
norms, covariances) can be computed from coefficients directly.

:func:`specified_coefficients` implements Algorithm 3.  :func:`rebin_coefficients`
is the converse: given a blocked array of coefficients produced by some operation
(e.g. the sum of two arrays' coefficients), re-derive the ``{N, F}`` pair, which is
where the "rebinning" error of Table I comes from.

:func:`kept_coefficients` and :func:`rebin_kept` are the same pair on the kept
``(n_blocks, kept)`` matrix instead of the blocked, padded array.  Pruned
positions hold zeros, which neither change a block's maximum magnitude nor
bin to anything but zero, so rebinning the kept matrix gives the ``{N, F}``
of rebinning the blocked array bit for bit — without building it.

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
from ..pruning import flatten_kept
from ..settings import CompressionSettings

__all__ = ["specified_coefficients", "rebin_coefficients", "block_scales",
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
    """Every block's ``s = N / r`` (C-order blocks), the factor Algorithm 3 applies to ``F``."""
    return compressed.maxima.reshape(-1) / float(compressed.settings.index_radius)


def kept_coefficients(compressed: CompressedArray) -> np.ndarray:
    """Algorithm 3 on the kept matrix: ``F ⊙ s`` with ``s = N / r`` per block.

    Returns a fresh float64 ``(n_blocks, kept)`` array, elementwise the kept
    positions of :func:`specified_coefficients` (the same expression per
    element), without the padded block layout.
    """
    values = compressed.indices.astype(np.float64)
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

    The kept-matrix form of :func:`rebin_coefficients` for an array with the
    settings and shape of ``like``: the same maxima and indices, bit for bit.
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


def rebin_coefficients(
    coefficients: np.ndarray,
    settings: CompressionSettings,
    shape: tuple[int, ...],
) -> CompressedArray:
    """Quantize a blocked coefficient array back into a :class:`CompressedArray`.

    This is the final step of every compressed-space operation whose result is an
    array but whose coefficients are no longer exactly expressible with the input
    ``{N, F}`` pairs (element-wise addition, scalar addition).  The error introduced
    here is the "rebinning" error of Table I: at most half a bin width of the *new*
    per-block maxima.

    Coefficients at pruned positions are discarded (they are zero for all operations
    defined in this package, since inputs have zeros there and the operations are
    element-wise in coefficient space).
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    expected_grid = settings.block_grid_shape(shape)
    if coefficients.shape != expected_grid + settings.block_shape:
        raise ValueError(
            f"coefficient array shape {coefficients.shape} does not match "
            f"grid {expected_grid} + block {settings.block_shape}"
        )
    maxima, indices_blocked = bin_coefficients(
        coefficients, settings.ndim, settings.index_dtype
    )
    flattened = flatten_kept(indices_blocked, settings.mask)
    return CompressedArray(
        settings=settings, shape=shape, maxima=maxima, indices=flattened
    )


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
