"""Slab stacking: consecutive block-aligned chunks as one compressed array.

A store's chunks are slabs along axis 0, and every slab but the last
covers whole block rows.  Consecutive slabs' ``maxima`` and ``indices``
therefore stack along axis 0 into the compressed form of their rows, bit for
bit.  This module is the one place that rule lives:

* :meth:`ReadSurface.load_compressed
  <repro.streaming.store.ReadSurface.load_compressed>` stacks a whole store
  as one step;
* the plan engine (:mod:`repro.engine.plan`) stacks runs of small chunks into
  *fold steps*, so each fold partial runs once per step instead of once per
  chunk.  Per-block partials are block-local and the fold total is correctly
  rounded, so every answer keeps its bits whatever the step size.

A step closes when the next chunk would overflow the budget, after a ragged
slab (a row count that is not a multiple of the block's first extent), or
when the settings or trailing shape change.  A chunk larger than the budget
is its own step and is not copied, so a one-block budget is the
chunk-at-a-time sweep.

The step buffer is *coefficient-major*: it holds the kept indices as
``(kept, n_blocks)``, and a step's ``indices`` is its transpose, still a
``(n_blocks, kept)`` array, whose every column (one kept coefficient of every
block) is contiguous.  The per-block reductions of the folds — a row max, a
row dot over the kept coefficients — then run as ``kept`` full-length vector
operations instead of one short inner loop per block.  A chunk over the
budget keeps the block-major layout it was decoded in;
:func:`~repro.core.ops.coefficients.column_major_float` gives either layout
the same coefficient-major float matrix, and the row dots sum in one fixed
order (:mod:`repro.core.ops.folds`), so no answer depends on which layout a
block arrived in.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..core.compressed import CompressedArray

__all__ = ["STEP_COEFFICIENTS", "SlabStack", "fold_steps"]

#: Kept coefficients one fold step holds per source: 8192 blocks of 4×4.
#: ``docs/performance.md`` ("Batched fold steps") has the sweep behind it.
STEP_COEFFICIENTS = 1 << 17


class SlabStack:
    """One source's step buffer: consecutive slabs copied along axis 0.

    The buffer is allocated at the first :meth:`push` and reused by every
    later step; its indices are coefficient-major, ``(kept, capacity)``.
    :meth:`take` returns a :class:`CompressedArray` whose arrays are *views*
    of it, valid until the next :meth:`push`; nothing derived from a step may
    keep them.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity  # kept coefficients
        self._maxima: np.ndarray | None = None
        self._indices: np.ndarray | None = None
        self._settings = None
        self._tail: tuple[int, ...] = ()
        self.rows = 0
        self._blocks = 0

    def fits(self, chunk: CompressedArray) -> bool:
        """Whether ``chunk`` may join the open step."""
        settings = chunk.settings
        return ((settings is self._settings or settings == self._settings)
                and chunk.shape[1:] == self._tail
                and self._blocks * self._indices.shape[0] + chunk.indices.size
                <= self.capacity)

    def push(self, chunk: CompressedArray) -> bool:
        """Copy ``chunk`` onto the step; whether the step must close after it.

        The stack keeps no reference to ``chunk``, so a caller dropping its
        own releases the decoded chunk.
        """
        indices = chunk.indices
        n_blocks, kept = indices.shape
        if not self.rows:
            self._settings, self._tail = chunk.settings, chunk.shape[1:]
            buffer = self._indices
            if buffer is None or buffer.dtype != indices.dtype or buffer.shape[0] != kept:
                self._indices = np.empty((kept, self.capacity // kept), indices.dtype)
                self._maxima = np.empty(self.capacity // kept)
        start, self._blocks = self._blocks, self._blocks + n_blocks
        self._indices[:, start:self._blocks] = indices.T
        self._maxima[start:self._blocks] = chunk.maxima.reshape(-1)
        self.rows += chunk.shape[0]
        return chunk.shape[0] % chunk.settings.block_shape[0] != 0

    def take(self) -> CompressedArray:
        """The open step as one compressed array; the stack starts a new step."""
        shape = (self.rows,) + self._tail
        step = CompressedArray(
            settings=self._settings,
            shape=shape,
            maxima=self._maxima[:self._blocks].reshape(
                self._settings.block_grid_shape(shape)),
            indices=self._indices[:, :self._blocks].T,
        )
        self.rows = self._blocks = 0
        return step


def fold_steps(chunk_tuples: Iterable[tuple],
               capacity: int | None = None) -> Iterator[tuple]:
    """Stack aligned chunk tuples into steps of at most ``capacity`` per source.

    ``capacity`` counts kept coefficients per source and defaults to
    :data:`STEP_COEFFICIENTS`.  Each yielded tuple holds one array per source
    (see :class:`SlabStack` for how long a stacked one stays valid).  A
    tuple with a chunk over the capacity is yielded as it came.
    """
    if capacity is None:
        capacity = STEP_COEFFICIENTS
    stacks: list[SlabStack] = []
    for chunks in chunk_tuples:
        if not stacks:
            stacks = [SlabStack(capacity) for _ in chunks]
        oversized = any(chunk.indices.size > capacity for chunk in chunks)
        if stacks[0].rows and (oversized or not all(map(SlabStack.fits, stacks, chunks))):
            yield tuple(stack.take() for stack in stacks)
        if oversized:
            yield chunks
            continue
        closes = [stack.push(chunk) for stack, chunk in zip(stacks, chunks)]
        chunks = None  # each decoded chunk is released once it is copied
        if any(closes):
            yield tuple(stack.take() for stack in stacks)
    if stacks and stacks[0].rows:
        yield tuple(stack.take() for stack in stacks)
