"""Request, latency and coalescing metrics for the query service.

One :class:`ServiceMetrics` instance per server aggregates everything the
stats endpoint reports: request counts, per-request latency quantiles over a
sliding window, and the *coalescing ledger* — how many fused plans were
executed for how many requests, which is the observable proof that N
concurrent users shared sweeps (``plans.executed`` ≪ ``requests.served``
under overlapping load).  Cache and store-read counters are pulled live from
the attached :class:`repro.serving.StoreCatalog` (and its
:class:`repro.serving.ChunkCache`) at snapshot time.

All record methods are thread-safe (the scheduler and every connection handler
may touch them concurrently through the executor thread).
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["ServiceMetrics"]

#: Sliding latency window: enough samples for stable p99 at bench scale
#: without unbounded memory in a long-lived server.
_LATENCY_WINDOW = 8192


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty sample."""
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class ServiceMetrics:
    """Thread-safe counters + latency reservoir behind the stats endpoint."""

    def __init__(self, latency_window: int = _LATENCY_WINDOW, catalog=None):
        self.catalog = catalog
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self.requests_received = 0
        self.requests_served = 0
        self.requests_failed = 0
        self.requests_overloaded = 0
        self.requests_deadline_exceeded = 0
        self.plans_executed = 0
        self.plan_seconds_total = 0.0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0

    # ------------------------------------------------------------------ recording
    def record_received(self) -> None:
        """An evaluate request arrived (before validation)."""
        with self._lock:
            self.requests_received += 1

    def record_failed(self) -> None:
        """An evaluate request ended in an error response."""
        with self._lock:
            self.requests_failed += 1

    def record_overloaded(self) -> None:
        """An evaluate request was rejected by max-in-flight backpressure."""
        with self._lock:
            self.requests_failed += 1
            self.requests_overloaded += 1

    def record_deadline_exceeded(self) -> None:
        """An evaluate request timed out waiting for its batch's results."""
        with self._lock:
            self.requests_failed += 1
            self.requests_deadline_exceeded += 1

    def record_served(self, latency_seconds: float) -> None:
        """An evaluate request got its results; latency measured at the server."""
        with self._lock:
            self.requests_served += 1
            self._latencies.append(float(latency_seconds))

    def record_batch(self, n_requests: int, n_plans: int, seconds: float) -> None:
        """One scheduler tick executed ``n_plans`` plan(s) for ``n_requests``."""
        with self._lock:
            self.batches += 1
            self.batched_requests += n_requests
            self.max_batch = max(self.max_batch, n_requests)
            self.plans_executed += n_plans
            self.plan_seconds_total += float(seconds)

    # ------------------------------------------------------------------ reporting
    def snapshot(self) -> dict:
        """Everything the stats endpoint returns, as one JSON-ready dict."""
        with self._lock:
            ordered = sorted(self._latencies)
            latency = {
                "count": len(ordered),
                "p50": _quantile(ordered, 0.50) if ordered else None,
                "p99": _quantile(ordered, 0.99) if ordered else None,
                "mean": (sum(ordered) / len(ordered)) if ordered else None,
            }
            batches = self.batches
            snapshot = {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": {
                    "received": self.requests_received,
                    "served": self.requests_served,
                    "failed": self.requests_failed,
                },
                "plans": {
                    "executed": self.plans_executed,
                    "seconds_total": self.plan_seconds_total,
                    "batches": batches,
                    "batched_requests": self.batched_requests,
                    "max_batch": self.max_batch,
                    "mean_batch": (self.batched_requests / batches) if batches else 0.0,
                },
                "latency_seconds": latency,
                "reliability": {
                    "overloaded": self.requests_overloaded,
                    "deadline_exceeded": self.requests_deadline_exceeded,
                },
            }
        if self.catalog is not None:
            snapshot["reliability"]["store_read_retries"] = sum(
                store.read_retries for store in self.catalog.open_stores()
            )
            if self.catalog.cache is not None:
                snapshot["cache"] = self.catalog.cache.snapshot()
        return snapshot
