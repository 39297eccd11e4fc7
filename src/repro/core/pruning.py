"""Pruning masks and flattening of specified coefficient indices (§III-A(e)).

Pruning selects which coefficient indices (and hence which spatial frequencies) are
kept in the compressed representation.  A pruning mask is a boolean array shaped like
the block shape; ``True`` marks kept indices.  After pruning, the kept indices of
every block are flattened into a dense sequence ``F`` (one row per block); because
the mask is saved with the compressed array, the sequence can be unflattened with
zeros in place of the pruned indices.

Besides the low-level flatten/unflatten operations this module provides the mask
constructors used throughout the paper and experiments:

* :func:`keep_all_mask` — no pruning (the Fig 5 configuration).
* :func:`low_frequency_mask` — keep the low-frequency hyper-triangle (a generalised
  "keep the top-left corner" rule), parameterised by the fraction kept.
* :func:`corner_pruning_mask` — drop a hyper-rectangle at the high-frequency corner,
  the rule the original Blaz uses (drop the 6×6 square of an 8×8 block).
* :func:`top_k_mask` — keep the ``k`` lowest-frequency indices in zigzag order.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "keep_all_mask",
    "low_frequency_mask",
    "corner_pruning_mask",
    "top_k_mask",
    "flatten_kept",
    "unflatten_kept",
    "validate_mask",
]


def validate_mask(mask: np.ndarray, block_shape: Sequence[int]) -> np.ndarray:
    """Validate and normalise a pruning mask: boolean, block-shaped, keeps >= 1 index."""
    mask = np.asarray(mask, dtype=bool)
    expected = tuple(int(b) for b in block_shape)
    if mask.shape != expected:
        raise ValueError(f"pruning mask shape {mask.shape} must equal block shape {expected}")
    if not mask.any():
        raise ValueError("pruning mask must keep at least one coefficient")
    return mask


def keep_all_mask(block_shape: Sequence[int]) -> np.ndarray:
    """Mask keeping every coefficient (no pruning)."""
    return np.ones(tuple(int(b) for b in block_shape), dtype=bool)


def _frequency_index_sum(block_shape: Sequence[int]) -> np.ndarray:
    """Array whose entry at index ``(i0, i1, ...)`` is ``i0 + i1 + ...``.

    With the DCT the coefficient at multi-index ``i`` corresponds to spatial
    frequency growing with each coordinate, so the sum of coordinates is a natural
    "total frequency" ordering used by the low-frequency and top-k masks.
    """
    shape = tuple(int(b) for b in block_shape)
    grids = np.meshgrid(*[np.arange(extent) for extent in shape], indexing="ij")
    total = np.zeros(shape, dtype=np.int64)
    for grid in grids:
        total = total + grid
    return total


def low_frequency_mask(block_shape: Sequence[int], keep_fraction: float) -> np.ndarray:
    """Keep approximately ``keep_fraction`` of coefficients, lowest total frequency first.

    The DC coefficient is always kept.  ``keep_fraction`` must lie in ``(0, 1]``.
    The actual kept count is ``max(1, round(keep_fraction * block size))``.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    shape = tuple(int(b) for b in block_shape)
    size = int(np.prod(shape))
    kept = max(1, int(round(keep_fraction * size)))
    return top_k_mask(shape, kept)


def top_k_mask(block_shape: Sequence[int], k: int) -> np.ndarray:
    """Keep the ``k`` coefficients with the lowest total frequency (ties broken by index).

    ``k`` is clipped to ``[1, block size]``.  The DC coefficient (index all-zeros)
    always has the lowest total frequency and is therefore always kept.
    """
    shape = tuple(int(b) for b in block_shape)
    size = int(np.prod(shape))
    k = int(np.clip(k, 1, size))
    total = _frequency_index_sum(shape).ravel()
    # stable ordering: total frequency, then flat index
    order = np.lexsort((np.arange(size), total))
    mask = np.zeros(size, dtype=bool)
    mask[order[:k]] = True
    return mask.reshape(shape)


def corner_pruning_mask(block_shape: Sequence[int], drop_shape: Sequence[int]) -> np.ndarray:
    """Drop a hyper-rectangle of size ``drop_shape`` at the high-index corner.

    This generalises Blaz's rule of dropping the 6×6 square in the high-frequency
    corner of each 8×8 block: ``corner_pruning_mask((8, 8), (6, 6))``.
    """
    shape = tuple(int(b) for b in block_shape)
    drop = tuple(int(d) for d in drop_shape)
    if len(drop) != len(shape):
        raise ValueError("drop_shape must have the same dimensionality as block_shape")
    for d, s in zip(drop, shape):
        if d < 0 or d > s:
            raise ValueError(f"drop extents {drop} must lie within block shape {shape}")
    mask = np.ones(shape, dtype=bool)
    if all(d > 0 for d in drop):
        corner = tuple(slice(s - d, s) for s, d in zip(shape, drop))
        mask[corner] = False
    if not mask.any():
        raise ValueError("corner pruning would drop every coefficient")
    return mask


def flatten_kept(blocked: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Flatten the kept (mask-True) entries of every block into a 2-D array.

    Parameters
    ----------
    blocked:
        Array of shape ``(grid..., block...)``.
    mask:
        Boolean array of the block shape.

    Returns
    -------
    np.ndarray
        Array of shape ``(n_blocks, kept_per_block)`` whose rows hold each block's
        kept entries in C order of the block indices.
    """
    blocked = np.asarray(blocked)
    mask = np.asarray(mask, dtype=bool)
    block_ndim = mask.ndim
    if blocked.shape[-block_ndim:] != mask.shape:
        raise ValueError(
            f"trailing axes {blocked.shape[-block_ndim:]} do not match mask shape {mask.shape}"
        )
    grid_shape = blocked.shape[:-block_ndim]
    n_blocks = math.prod(grid_shape)
    flat_blocks = blocked.reshape(n_blocks, -1)
    if mask.all():
        # keep-everything masks make the boolean gather an identity; skip the
        # full-array fancy-indexing copy (the common unpruned configuration)
        return flat_blocks
    return flat_blocks[:, mask.ravel()]


def unflatten_kept(
    flat: np.ndarray,
    mask: np.ndarray,
    grid_shape: Sequence[int],
    fill_value: float = 0,
    dtype: np.dtype | None = None,
) -> np.ndarray:
    """Inverse of :func:`flatten_kept`: rebuild blocked data with ``fill_value`` where pruned.

    Parameters
    ----------
    flat:
        Array of shape ``(n_blocks, kept_per_block)``.
    mask:
        Boolean array of the block shape (same one used for flattening).
    grid_shape:
        Shape of the block grid.
    fill_value:
        Value written at pruned positions (0 — pruning rounds them to zero).
    dtype:
        Output dtype; defaults to ``flat.dtype``.
    """
    flat = np.asarray(flat)
    mask = np.asarray(mask, dtype=bool)
    grid_shape = tuple(int(g) for g in grid_shape)
    n_blocks = math.prod(grid_shape)
    kept = int(np.count_nonzero(mask))
    if flat.shape != (n_blocks, kept):
        raise ValueError(
            f"flat array shape {flat.shape} does not match (n_blocks={n_blocks}, kept={kept})"
        )
    out_dtype = dtype if dtype is not None else flat.dtype
    if kept == mask.size:
        # nothing was pruned: every position is filled from flat, so the
        # scatter is a reshape (plus at most a dtype cast)
        return flat.astype(out_dtype, copy=False).reshape(grid_shape + mask.shape)
    blocks = np.full((n_blocks, mask.size), fill_value, dtype=out_dtype)
    blocks[:, mask.ravel()] = flat
    return blocks.reshape(grid_shape + mask.shape)
