"""Slab-by-slab compression that is bit-identical to one-shot compression.

The pipeline's blocking step pads and tiles each axis independently, and every
later step (transform, binning, pruning, flattening) treats blocks independently
with grid axis 0 outermost in C order.  Consequently an array cut into slabs along
axis 0 at block-extent multiples compresses to exactly the rows of the one-shot
result: per-slab ``maxima`` concatenate along grid axis 0 and per-slab flattened
``indices`` concatenate along their block axis.  :class:`ChunkedCompressor` is the
bookkeeping around that fact — slab re-alignment, validation, optional process
fan-out, and assembly — with all numerics delegated to the one-shot
:class:`repro.core.Compressor` running the bit-exact ``reference`` kernel
backend (the default; see the ``backend`` parameter for the faster, not
bit-identical alternatives).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Iterator

import numpy as np

from ..core.compressed import CompressedArray
from ..core.compressor import Compressor
from ..core.settings import CompressionSettings
from ..kernels import DEFAULT_BACKEND
from ..reliability import faults
from ..reliability.errors import WorkerCrashError
from .store import CompressedStore, CompressedStoreWriter

__all__ = ["ChunkedCompressor"]


def _compress_slab(
    settings: CompressionSettings, backend: str, slab: np.ndarray
) -> CompressedArray:
    """Picklable per-slab work unit for the process fan-out."""
    return Compressor(settings, backend=backend).compress(slab)


def _pool_failure(exc: BaseException, index: int | None, n_jobs: int) -> WorkerCrashError:
    """Build the documented :class:`WorkerCrashError` for a broken pool.

    When a worker dies, *every* outstanding future fails at once, so ``index``
    is the first job observed to fail — the crash may have happened in any
    concurrently running job.
    """
    detail = (
        "its payload failed to pickle" if isinstance(exc, PicklingError)
        else "a worker process died"
    )
    where = (
        f"at job {index} of {n_jobs}" if index is not None
        else f"dispatching {n_jobs} jobs"
    )
    return WorkerCrashError(
        f"process pool failed {where}: {detail} ({exc}); the batch is lost — "
        "retry it, or rerun without a process pool",
        job_index=index,
        n_jobs=n_jobs,
    )


def _crash_worker() -> None:
    """Picklable job the fault harness swaps in to kill a worker mid-batch."""
    os._exit(13)  # a hard worker death, not an exception the pool can catch


def _armed_jobs(fn, jobs):
    """Yield ``(fn, args)`` per pooled job, applying active worker-crash rules.

    Yields every job unchanged in the normal case (no plan installed); a job
    a ``worker_crash`` rule selects by its index becomes :func:`_crash_worker`.
    Lazy, so the streamed slabs are armed one job at a time.  Only called on
    the pooled path — slabs compressed in the calling thread must never arm a
    crash, which would kill the caller.
    """
    plan = faults.active_plan()
    for index, args in enumerate(jobs):
        if plan is not None and plan.take_worker_crash(index):
            yield _crash_worker, ()
        else:
            yield fn, tuple(args)


class ChunkedCompressor:
    """Compress an array in block-aligned slabs along axis 0.

    Parameters
    ----------
    settings:
        The compression configuration (shared with the one-shot compressor).
    slab_rows:
        Target slab height in rows.  Rounded up to the nearest multiple of the
        block extent along axis 0 so slab boundaries always fall on block edges
        (which is what makes the result exact); the default is 64 block rows.
    n_workers:
        When > 1, slabs are compressed concurrently in worker processes with a
        bounded number in flight, so memory stays proportional to
        ``n_workers × slab size`` even for generator input.
    backend:
        Kernel backend compressing each slab (see :mod:`repro.kernels`).
        Defaults to ``"reference"`` — deliberately ignoring ``settings.backend``
        — because only the bit-exact backend guarantees the chunked result is
        bit-identical to one-shot compression for every slab size (BLAS kernel
        choice depends on batch size, so the fast backends do not).  Pass
        ``backend="gemm"`` explicitly to trade that invariant for throughput;
        results then agree with one-shot only within the backend's documented
        tolerance.  With ``n_workers > 1`` the backend is resolved by name
        inside each worker process, so third-party backends must be registered
        at import time of their module, not just in the parent interpreter.

    The input to :meth:`compress` / :meth:`compress_to_store` may be an in-memory
    array, a ``np.memmap`` (slabs are materialised one at a time), or any iterable
    of arrays covering the full trailing shape — slab boundaries in the input need
    not be block-aligned; they are re-buffered internally.
    """

    def __init__(
        self,
        settings: CompressionSettings,
        slab_rows: int | None = None,
        n_workers: int = 1,
        backend: str | None = None,
    ):
        self.settings = settings
        self.backend = str(backend).lower() if backend is not None else DEFAULT_BACKEND
        block_rows = settings.block_shape[0]
        if slab_rows is None:
            slab_rows = 64 * block_rows
        slab_rows = int(slab_rows)
        if slab_rows < 1:
            raise ValueError("slab_rows must be positive")
        # round up to a whole number of block rows: exactness requires slab
        # boundaries on block edges, so a ragged request just gets a taller slab
        self.slab_rows = -(-slab_rows // block_rows) * block_rows
        self.n_workers = int(n_workers)
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        self._compressor = Compressor(settings, backend=self.backend)

    # ------------------------------------------------------------------ slab plumbing
    def _validate_slab(self, slab: np.ndarray, tail_shape: tuple[int, ...] | None):
        """Check one input slab's dimensionality and trailing shape."""
        slab = np.asarray(slab)
        if slab.ndim != self.settings.ndim:
            raise ValueError(
                f"slab of dimensionality {slab.ndim} cannot feed "
                f"{self.settings.ndim}-dimensional settings {self.settings.block_shape}"
            )
        if tail_shape is not None and slab.shape[1:] != tail_shape:
            raise ValueError(
                f"slab trailing shape {slab.shape[1:]} does not match earlier "
                f"slabs' trailing shape {tail_shape}"
            )
        return slab

    def aligned_slabs(self, source) -> Iterator[np.ndarray]:
        """Yield block-aligned slabs of ``slab_rows`` rows (last may be shorter).

        Accepts an array / memmap (sliced lazily) or an iterable of row chunks
        (re-buffered so emitted slab boundaries are block-aligned regardless of
        input boundaries).
        """
        if isinstance(source, np.ndarray):
            source = self._validate_slab(source, None)
            for start in range(0, source.shape[0], self.slab_rows):
                yield source[start : start + self.slab_rows]
            return

        pending: list[np.ndarray] = []
        pending_rows = 0
        tail_shape: tuple[int, ...] | None = None
        for piece in source:
            piece = self._validate_slab(piece, tail_shape)
            tail_shape = piece.shape[1:]
            if piece.shape[0] == 0:
                continue
            pending.append(piece)
            pending_rows += piece.shape[0]
            while pending_rows >= self.slab_rows:
                merged = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=0)
                yield merged[: self.slab_rows]
                remainder = merged[self.slab_rows :]
                pending = [remainder] if remainder.shape[0] else []
                pending_rows = remainder.shape[0]
        if pending_rows:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending, axis=0)

    def _compressed_slabs(self, source) -> Iterator[CompressedArray]:
        """Compress aligned slabs in order, optionally fanning out across processes.

        A dead slab worker (or a slab that fails to pickle) raises
        :class:`repro.reliability.WorkerCrashError` naming the first slab
        observed to fail.
        """
        slabs = self.aligned_slabs(source)
        if self.n_workers == 1:
            for slab in slabs:
                yield self._compressor.compress(slab)
            return
        jobs = _armed_jobs(_compress_slab, (
            (self.settings, self.backend, np.ascontiguousarray(slab))
            for slab in slabs
        ))
        index: int | None = None
        submitted = 0
        try:
            with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                in_flight: deque = deque()
                for fn, args in jobs:
                    index = submitted
                    submitted += 1
                    in_flight.append((index, pool.submit(fn, *args)))
                    # bound memory: keep at most 2 slabs per worker pending
                    while len(in_flight) >= 2 * self.n_workers:
                        index, future = in_flight.popleft()
                        yield future.result()
                while in_flight:
                    index, future = in_flight.popleft()
                    yield future.result()
        except (BrokenProcessPool, PicklingError) as exc:
            raise _pool_failure(exc, index, submitted) from exc

    # ------------------------------------------------------------------ compression
    def compress(self, source) -> CompressedArray:
        """Compress ``source`` slab by slab into one :class:`CompressedArray`.

        The result's ``maxima`` and ``indices`` are bit-identical
        (``np.array_equal``) to ``Compressor(settings).compress`` on the fully
        materialised input, for every slab size.
        """
        maxima_parts: list[np.ndarray] = []
        indices_parts: list[np.ndarray] = []
        rows = 0
        tail_shape: tuple[int, ...] | None = None
        for chunk in self._compressed_slabs(source):
            maxima_parts.append(chunk.maxima)
            indices_parts.append(chunk.indices)
            rows += chunk.shape[0]
            tail_shape = chunk.shape[1:]
        if not maxima_parts:
            raise ValueError("cannot compress an empty array")
        return CompressedArray(
            settings=self.settings,
            shape=(rows,) + tail_shape,
            maxima=np.concatenate(maxima_parts, axis=0),
            indices=np.concatenate(indices_parts, axis=0),
        )

    def compress_to_store(self, source, path) -> CompressedStore:
        """Compress ``source`` slab by slab directly into a chunked store file.

        Unlike :meth:`compress` this never holds more than the in-flight slabs'
        compressed form in memory — the out-of-core path.  Returns the store
        reopened for reading.
        """
        wrote = False
        with CompressedStoreWriter(path, self.settings) as writer:
            for chunk in self._compressed_slabs(source):
                writer.append(chunk)
                wrote = True
            if not wrote:
                raise ValueError("cannot compress an empty array")
        return CompressedStore(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedCompressor(slab_rows={self.slab_rows}, n_workers={self.n_workers}, "
            f"backend={self.backend}, {self.settings.describe()})"
        )
