"""Typed errors for the reliability layer.

:class:`IntegrityError` itself lives in :mod:`repro.core.exceptions` (a leaf
module) so that :mod:`repro.streaming.store` can raise it without importing
this package; it is re-exported here because "reliability" is where users are
documented to look for the fault-handling surface.

The two new types deliberately do **not** subclass :class:`CodecError`:

* :class:`WorkerCrashError` — a process worker died mid-job.  The *inputs*
  were fine; the environment failed.  Retrying (or rerunning without a
  process pool) is legitimate, whereas a :class:`CodecError` means retrying
  the same bytes cannot help.
* :class:`DeadlineError` — a time budget ran out.  Also not a data problem.
"""

from __future__ import annotations

from ..core.exceptions import CodecError, IntegrityError

__all__ = ["CodecError", "IntegrityError", "WorkerCrashError", "DeadlineError"]


class WorkerCrashError(RuntimeError):
    """A process-pool worker died (or its payload failed to pickle) mid-job.

    Raised by the compressor's process pool — the slab pool of
    :class:`repro.streaming.ChunkedCompressor` (``stream-compress --workers
    N``) — in place of the raw ``concurrent.futures.process.BrokenProcessPool``
    / ``PicklingError`` so callers can react with one documented type.  When a
    pool breaks, *every* outstanding future fails at once, so
    :attr:`job_index` names the first job whose failure was observed — the
    crash itself may have happened in any concurrently running job.

    Attributes
    ----------
    job_index:
        Index (into the submitted jobs, in submission order) of the first job
        observed to fail, or ``None`` when submission itself failed.
    n_jobs:
        Number of jobs in the batch; for the streamed slab pool, the number
        of slabs submitted before the failure surfaced.
    """

    def __init__(self, message: str, *, job_index: int | None = None,
                 n_jobs: int | None = None):
        super().__init__(message)
        self.job_index = job_index
        self.n_jobs = n_jobs


class DeadlineError(RuntimeError):
    """An operation exceeded its deadline budget.

    Raised by :func:`repro.reliability.retry_call` when the next retry would
    start after the deadline, and by :class:`repro.serving.QueryClient` when a
    per-call deadline elapses while waiting on the server.
    """
