"""Deterministic fault injection at the storage / process-pool boundaries.

A :class:`FaultPlan` is a seedable list of :class:`FaultRule`\\ s installed
process-wide (via :func:`install` or the :func:`inject` context manager).
Production code calls the cheap module-level hooks at well-defined seams —
:meth:`repro.streaming.CompressedStore` before and after every record read,
and the compressor process pool (the :class:`repro.streaming.ChunkedCompressor`
slab pool) when submitting jobs — and each hook is a
no-op unless a plan is active, so the hot path pays one global read.

The supported fault kinds (the "fault matrix" in ``docs/reliability.md``):

============== =================================================================
kind            effect at the seam
============== =================================================================
``bit_flip``    one byte of the chunk record is XOR-flipped after the read
``short_read``  the chunk record is truncated to half its length
``os_error``    the read raises ``OSError(EIO)`` before touching the bytes
``latency``     the read sleeps ``delay_seconds`` first
``worker_crash`` the pooled job calls ``os._exit`` — a hard worker death
============== =================================================================

Every rule fires a bounded number of ``times`` (default 1), optionally gated
by a ``probability`` drawn from the plan's seeded RNG, so chaos tests are
bit-for-bit reproducible: with the same seed and the same workload, the same
reads fail on the same attempt.
"""

from __future__ import annotations

import contextlib
import errno
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FAULT_KINDS",
    "install",
    "uninstall",
    "active_plan",
    "inject",
]

FAULT_KINDS = (
    "bit_flip",
    "short_read",
    "os_error",
    "latency",
    "worker_crash",
)


@dataclass(frozen=True)
class FaultRule:
    """One fault to inject: what kind, where, how often.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    path:
        For read faults, a substring the store path must contain (``None``
        matches every store).
    chunk_index:
        For read faults, the chunk record to hit (``None`` matches any).
    job_index:
        For ``worker_crash``, the index of the compressor process-pool job
        to kill — a :class:`repro.streaming.ChunkedCompressor` slab
        (``None`` matches any).
    times:
        How many times this rule fires before becoming inert.  The default of
        1 models a transient fault: the retry after it sees good bytes.
    probability:
        Chance each matching event actually fires, drawn from the plan's
        seeded RNG.  1.0 = always.
    delay_seconds:
        Sleep duration for ``latency`` faults.
    """

    kind: str
    path: Optional[str] = None
    chunk_index: Optional[int] = None
    job_index: Optional[int] = None
    times: int = 1
    probability: float = 1.0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


class FaultPlan:
    """A seeded, thread-safe set of fault rules plus a record of what fired.

    ``plan.fired`` is a :class:`collections.Counter` keyed by fault kind —
    chaos tests assert on it to prove the fault actually happened (a test that
    "passes" because its fault never triggered proves nothing).
    """

    def __init__(self, *rules: FaultRule, seed: int = 0):
        import random

        self._rules = [(rule, rule.times) for rule in rules]
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.fired: Counter = Counter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = [rule.kind for rule, _ in self._rules]
        return f"FaultPlan(rules={kinds}, fired={dict(self.fired)})"

    def _take(self, kind: str, *, path: Optional[str] = None,
              chunk_index: Optional[int] = None,
              job_index: Optional[int] = None) -> Optional[FaultRule]:
        """Consume and return one firing rule matching the event, if any."""
        with self._lock:
            for i, (rule, remaining) in enumerate(self._rules):
                if rule.kind != kind or remaining <= 0:
                    continue
                if rule.path is not None and (path is None or rule.path not in path):
                    continue
                if rule.chunk_index is not None and rule.chunk_index != chunk_index:
                    continue
                if rule.job_index is not None and rule.job_index != job_index:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._rules[i] = (rule, remaining - 1)
                self.fired[kind] += 1
                return rule
            return None

    # -- hooks called from production seams ---------------------------------

    def before_chunk_read(self, path: str, chunk_index: int) -> None:
        """Called before a store record read: may sleep or raise ``OSError``."""
        rule = self._take("latency", path=path, chunk_index=chunk_index)
        if rule is not None:
            time.sleep(rule.delay_seconds)
        if self._take("os_error", path=path, chunk_index=chunk_index) is not None:
            raise OSError(errno.EIO, f"injected I/O error reading chunk {chunk_index}", path)

    def corrupt_record(self, path: str, chunk_index: int, data: bytes) -> bytes:
        """Called on the bytes of a record read: may flip a bit or truncate."""
        if self._take("bit_flip", path=path, chunk_index=chunk_index) is not None and data:
            middle = len(data) // 2
            data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]
        if self._take("short_read", path=path, chunk_index=chunk_index) is not None:
            data = data[: len(data) // 2]
        return data

    def take_worker_crash(self, job_index: int) -> bool:
        """True when pooled job ``job_index`` should hard-exit its worker."""
        return self._take("worker_crash", job_index=job_index) is not None


_active: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active fault plan."""
    global _active
    _active = plan


def uninstall() -> None:
    """Remove any active fault plan."""
    global _active
    _active = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None`` (the normal state)."""
    return _active


@contextlib.contextmanager
def inject(*rules: FaultRule, seed: int = 0) -> Iterator[FaultPlan]:
    """Install a fresh :class:`FaultPlan` for the duration of a ``with`` block.

    >>> from repro.reliability import faults
    >>> with faults.inject(faults.FaultRule("os_error", chunk_index=0)) as plan:
    ...     ...  # one read of chunk 0 raises OSError, retries see good bytes
    """
    plan = FaultPlan(*rules, seed=seed)
    install(plan)
    try:
        yield plan
    finally:
        uninstall()
