"""Block-chunked execution backends (scheduling), composed with kernel backends.

The paper's implementation relies on GPU-powered PyTorch to process all blocks of an
array simultaneously; its performance argument (Fig 2, Fig 7) is the contrast between
bulk block-parallel execution and a per-block serial loop (the original Blaz).  This
subpackage provides the analogous execution substrate for the numpy backend:

* :class:`SerialExecutor` — processes the block grid in one vectorized call (the
  default behaviour of :class:`repro.core.Compressor` even without an executor);
  useful as an explicit baseline.
* :class:`ThreadedExecutor` — splits the block grid into chunks dispatched to a
  thread pool.  numpy releases the GIL inside its inner loops, so large arrays gain
  real concurrency.  The chunk count is derived from the array size (at least
  :data:`~repro.parallel.executors.MIN_CHUNK_ELEMENTS` elements per chunk), so
  small arrays degrade to serial execution instead of paying pool overhead.
* :class:`ProcessExecutor` — dispatches chunks to worker processes, sidestepping
  the GIL at the cost of pickling chunks across the process boundary.  A dead
  worker surfaces as :class:`repro.reliability.WorkerCrashError`, as it does
  for the slab pool of :class:`repro.streaming.ChunkedCompressor`.
* :class:`LoopExecutor` — a deliberately slow pure-Python per-block loop, used by the
  ablation benchmarks as the "single-threaded Blaz-style" reference point.

Executors decide *where and in what order* chunks run; the numeric strategy for
each chunk — bit-exact einsum, fused BLAS GEMM, or JIT — is a
:class:`repro.kernels.KernelBackend`, selected per executor (the ``backend``
constructor argument) or inherited from the driving compressor.  See
:mod:`repro.kernels` for the backend catalogue and the exactness-vs-speed
contract.  Under the default ``reference`` backend every executor produces
bit-identical results.

All executors implement the two hooks the compressor calls:
``transform_and_bin(blocked, transform, settings, kernel=None)`` and
``inverse_transform(coefficients, transform, settings, kernel=None)``.
"""

from .executors import (
    MIN_CHUNK_ELEMENTS,
    BlockExecutor,
    LoopExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
    chunk_slices,
)

__all__ = [
    "BlockExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "LoopExecutor",
    "chunk_slices",
    "MIN_CHUNK_ELEMENTS",
]
