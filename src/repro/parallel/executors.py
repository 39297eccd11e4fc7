"""Execution backends for the transform/binning stages of the compressor.

The compressor's hot loop is "for every block: transform, then bin".  The
executors here realise that loop in different *scheduling* strategies (one
vectorized call, a thread pool, a process pool, a per-block Python loop), while
the *numeric* strategy — how each chunk's transform+binning is actually
computed — is delegated to a :class:`repro.kernels.KernelBackend` (see the
module docstring of :mod:`repro.kernels` for the backend catalogue and the
exactness-vs-speed contract).  Scheduling and numerics compose freely: any
executor can drive any kernel backend.  Under the bit-exact ``reference``
backend every executor produces bit-identical results, which lets the
benchmarks isolate the cost of execution strategy from the cost of the
algorithm — the same distinction the paper draws between GPU PyBlaz and
single-threaded Blaz.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.settings import CompressionSettings
from ..core.transforms import Transform, get_transform
from ..kernels import DEFAULT_BACKEND, get_backend
from ..reliability import faults
from ..reliability.errors import WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels import KernelBackend

__all__ = [
    "BlockExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "LoopExecutor",
    "chunk_slices",
    "MIN_CHUNK_ELEMENTS",
]

#: Minimum number of array elements per chunk before fanning out is worthwhile:
#: below this the pool dispatch overhead dwarfs the numpy work, so executors
#: reduce their chunk count (down to one, i.e. serial in the calling thread).
MIN_CHUNK_ELEMENTS = 1 << 16


def chunk_slices(n_items: int, n_chunks: int) -> Iterator[slice]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous, near-equal slices.

    Deterministic: chunk boundaries depend only on the two arguments, so chunked and
    unchunked execution orders produce identical floating-point results (each block's
    computation is independent).
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    n_chunks = min(n_chunks, max(n_items, 1))
    base, extra = divmod(n_items, n_chunks)
    start = 0
    for index in range(n_chunks):
        length = base + (1 if index < extra else 0)
        if length == 0:
            continue
        yield slice(start, start + length)
        start += length


class BlockExecutor(abc.ABC):
    """Interface the compressor uses to run the per-block pipeline stages.

    Every executor accepts an optional ``backend`` name at construction and an
    optional ``kernel`` instance per call (the compressor passes its own).  The
    constructor backend wins when both are given, so an explicitly configured
    executor keeps its numeric strategy regardless of which compressor drives it.
    """

    def __init__(self, backend: str | None = None):
        self.backend = str(backend).lower() if backend is not None else None
        if self.backend is not None:
            get_backend(self.backend)  # fail fast on unknown/unavailable names

    def _resolve_kernel(self, kernel: "KernelBackend | None") -> "KernelBackend":
        if self.backend is not None:
            return get_backend(self.backend)
        if kernel is not None:
            return kernel
        return get_backend(DEFAULT_BACKEND)

    @abc.abstractmethod
    def transform_and_bin(
        self,
        blocked: np.ndarray,
        transform: Transform,
        settings: CompressionSettings,
        kernel: "KernelBackend | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(maxima, blocked_indices)`` for a blocked data array."""

    @abc.abstractmethod
    def inverse_transform(
        self,
        coefficients: np.ndarray,
        transform: Transform,
        settings: CompressionSettings,
        kernel: "KernelBackend | None" = None,
    ) -> np.ndarray:
        """Return the blocked data reconstructed from blocked coefficients."""


class SerialExecutor(BlockExecutor):
    """Vectorized single-call execution over the whole block grid (the default path)."""

    def transform_and_bin(self, blocked, transform, settings, kernel=None):
        return self._resolve_kernel(kernel).transform_and_bin(blocked, transform, settings)

    def inverse_transform(self, coefficients, transform, settings, kernel=None):
        return self._resolve_kernel(kernel).inverse_transform(coefficients, transform, settings)


def _kernel_chunk(
    kernel: "KernelBackend",
    transform_name: str,
    block_shape: tuple[int, ...],
    settings: CompressionSettings,
    inverse: bool,
    chunk: np.ndarray,
):
    """Picklable work unit shared by the pool executors.

    The kernel instance itself crosses the process boundary (backends are
    stateless, and pickling resolves the class by module path, so third-party
    backends registered only in the parent process still work); the transform
    is rebuilt from its name — cached per process, a dictionary hit after the
    first chunk.
    """
    transform = get_transform(transform_name, block_shape)
    if inverse:
        return kernel.inverse_transform(chunk, transform, settings)
    return kernel.transform_and_bin(chunk, transform, settings)


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
    Lazy, so a streamed job source (the chunked compressor's slabs) is armed
    one job at a time.  Only called on genuinely pooled paths — work that
    degrades to the calling thread must never arm a crash, which would kill
    the caller.
    """
    plan = faults.active_plan()
    for index, args in enumerate(jobs):
        if plan is not None and plan.take_worker_crash(index):
            yield _crash_worker, ()
        else:
            yield fn, tuple(args)


class _ChunkingExecutor(BlockExecutor):
    """Shared machinery for executors that flatten the grid and process chunks.

    Per-chunk execution is safe for *every* kernel backend: each block's
    computation is independent, and the per-block maxima/indices of a chunk are
    exactly the corresponding rows of the whole-grid result (bit-identical for
    ``reference``; within the same documented tolerance for the fast backends).
    """

    def __init__(self, n_chunks: int, backend: str | None = None):
        super().__init__(backend)
        if n_chunks < 1:
            raise ValueError("n_chunks must be positive")
        self.n_chunks = int(n_chunks)

    def _effective_chunks(self, flat: np.ndarray) -> int:
        """Chunk count scaled down so each chunk keeps ≥ MIN_CHUNK_ELEMENTS work.

        Small arrays degrade to a single chunk — executed serially in the
        calling thread with no pool at all — so wrapping a small compression in
        a pooled executor never costs more than the serial path.
        """
        by_size = max(1, flat.size // MIN_CHUNK_ELEMENTS)
        return max(1, min(self.n_chunks, by_size))

    def _map_chunks(self, jobs: "list[tuple[slice, tuple]]", write) -> None:
        """Run ``_kernel_chunk(*args)`` for each ``(slice, args)`` job and hand
        ``(slice, result)`` to ``write``.  Subclasses choose the scheduling."""
        raise NotImplementedError

    def transform_and_bin(self, blocked, transform, settings, kernel=None):
        kernel_obj = self._resolve_kernel(kernel)
        ndim = settings.ndim
        grid_shape = blocked.shape[:-ndim] if blocked.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1
        flat = np.ascontiguousarray(blocked).reshape((n_blocks,) + settings.block_shape)
        maxima = np.empty(n_blocks, dtype=np.float64)
        indices = np.empty(flat.shape, dtype=settings.index_dtype)

        jobs = [
            (sl, (kernel_obj, transform.name, transform.block_shape, settings, False, flat[sl]))
            for sl in chunk_slices(n_blocks, self._effective_chunks(flat))
        ]

        def write(sl: slice, result) -> None:
            chunk_maxima, chunk_indices = result
            maxima[sl] = chunk_maxima
            indices[sl] = chunk_indices

        self._map_chunks(jobs, write)
        return maxima.reshape(grid_shape), indices.reshape(grid_shape + settings.block_shape)

    def inverse_transform(self, coefficients, transform, settings, kernel=None):
        kernel_obj = self._resolve_kernel(kernel)
        ndim = settings.ndim
        grid_shape = coefficients.shape[:-ndim] if coefficients.ndim > ndim else ()
        n_blocks = int(np.prod(grid_shape)) if grid_shape else 1
        flat = np.ascontiguousarray(coefficients).reshape((n_blocks,) + settings.block_shape)
        out = np.empty(flat.shape, dtype=np.float64)

        jobs = [
            (sl, (kernel_obj, transform.name, transform.block_shape, settings, True, flat[sl]))
            for sl in chunk_slices(n_blocks, self._effective_chunks(flat))
        ]

        def write(sl: slice, result) -> None:
            out[sl] = result

        self._map_chunks(jobs, write)
        return out.reshape(grid_shape + settings.block_shape)


class ThreadedExecutor(_ChunkingExecutor):
    """Thread-pool execution over chunks of the block grid.

    Parameters
    ----------
    n_workers:
        Number of worker threads (and maximum chunks).  The actual chunk count
        is derived from the array size (see :data:`MIN_CHUNK_ELEMENTS`), so
        small arrays run serially in the calling thread instead of paying pool
        dispatch for sub-millisecond chunks.
    backend:
        Optional kernel-backend name fixed for this executor.
    """

    def __init__(self, n_workers: int = 4, backend: str | None = None):
        super().__init__(n_chunks=n_workers, backend=backend)
        self.n_workers = int(n_workers)

    def _map_chunks(self, jobs, write):
        if len(jobs) <= 1:
            for sl, args in jobs:
                write(sl, _kernel_chunk(*args))
            return
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = {pool.submit(_kernel_chunk, *args): sl for sl, args in jobs}
            for future, sl in futures.items():
                write(sl, future.result())


class ProcessExecutor(_ChunkingExecutor):
    """Process-pool execution over chunks of the block grid.

    Unlike :class:`ThreadedExecutor` this sidesteps the GIL entirely, at the price
    of pickling each chunk across the process boundary — worthwhile for large
    blocks where the transform dominates the copy.  Under the ``reference``
    backend results are bit-identical to the serial path.

    Parameters
    ----------
    n_workers:
        Number of worker processes (and maximum chunks).
    backend:
        Optional kernel-backend name fixed for this executor.
    """

    def __init__(self, n_workers: int = 4, backend: str | None = None):
        super().__init__(n_chunks=n_workers, backend=backend)
        self.n_workers = int(n_workers)

    def _map_chunks(self, jobs, write):
        """Run the chunk jobs in worker processes, writing results in order.

        A worker crash or a payload that fails to pickle surfaces as
        :class:`WorkerCrashError` naming the first job observed to fail
        (``None`` when submission itself failed), instead of the raw pool
        internals.
        """
        if len(jobs) <= 1:
            for sl, args in jobs:
                write(sl, _kernel_chunk(*args))
            return
        armed = _armed_jobs(_kernel_chunk, (
            args[:-1] + (np.ascontiguousarray(args[-1]),) for _, args in jobs
        ))
        index: int | None = None
        try:
            with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
                futures = [pool.submit(fn, *args) for fn, args in armed]
                for index, ((sl, _), future) in enumerate(zip(jobs, futures)):
                    write(sl, future.result())
        except (BrokenProcessPool, PicklingError) as exc:
            raise _pool_failure(exc, index, len(jobs)) from exc


class LoopExecutor(_ChunkingExecutor):
    """Pure-Python per-block loop — the deliberately slow single-threaded reference.

    Used by the backend ablation benchmark to quantify what bulk vectorized execution
    buys, mirroring the paper's PyBlaz-vs-Blaz comparison on equal algorithmic terms.
    """

    def __init__(self, backend: str | None = None):
        super().__init__(n_chunks=1, backend=backend)

    def _effective_chunks(self, flat: np.ndarray) -> int:
        # one chunk per block: the whole point is to measure the per-block loop
        return flat.shape[0]

    def _map_chunks(self, jobs, write):
        for sl, args in jobs:
            write(sl, _kernel_chunk(*args))
