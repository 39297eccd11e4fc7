"""Query serving over catalogs of compressed stores.

This package turns the lazy engine into a long-lived service: clients submit
wire-form reduction requests (:mod:`repro.engine.wire`) against a named
:class:`StoreCatalog`, and the :class:`QueryService` scheduler coalesces every
request queued within one window into **a single fused plan** — N concurrent
users asking overlapping statistics over shared stores cost barely more than
one user, because the planner dedups their fold partials and decode sweeps.

Layers:

- :class:`ChunkCache` — process-wide byte-budgeted LRU over decoded chunk
  records, shared by every store the catalog opens.
- :class:`StoreCatalog` — name → store mapping with lazy single-open handles
  (the identity the planner's cross-request source dedup keys on).
- :class:`ServiceMetrics` — request/latency/coalescing counters behind the
  stats endpoint.
- :class:`QueryService` / :class:`ThreadedQueryService` — the asyncio server
  and its embed-in-a-thread wrapper.
- :class:`QueryClient` — small synchronous client for the line protocol.

See ``docs/serving.md`` for the protocol and an end-to-end walkthrough, and
``benchmarks/bench_serving.py`` for coalesced-vs-naive throughput numbers.
"""

from .cache import DEFAULT_CACHE_BYTES, ChunkCache
from .catalog import StoreCatalog
from .client import QueryClient, ServerError
from .metrics import ServiceMetrics
from .server import DEFAULT_TICK_SECONDS, QueryService, ThreadedQueryService

__all__ = [
    "ChunkCache",
    "DEFAULT_CACHE_BYTES",
    "StoreCatalog",
    "ServiceMetrics",
    "QueryService",
    "ThreadedQueryService",
    "QueryClient",
    "ServerError",
    "DEFAULT_TICK_SECONDS",
]
