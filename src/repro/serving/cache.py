"""Process-wide decoded-chunk LRU cache with a byte budget.

A plan sweep decodes each chunk once and drops it, which is the right
lifetime for a single sweep but wastes work in a long-lived server where
consecutive plans keep re-reading the same hot stores.  :class:`ChunkCache`
is a **process-wide tier**: decoded chunk objects (pyblaz
:class:`repro.core.CompressedArray` records) are kept under an LRU policy bounded by a byte budget, keyed by
``(store path, chunk index)``.

Attach a cache to a store by assigning
:attr:`repro.streaming.CompressedStore.chunk_cache` (the serving catalog does
this for every store it opens); ``read_chunk`` then consults the cache before
re-parsing the record.  The cache stores *decoded records*, not decompressed
arrays — typically 10-60× smaller than the dense chunk, so a modest budget
covers a whole working set.

Thread safety: all operations take an internal lock, so concurrent readers
(the serving plan thread, benchmark clients) can share one cache.  Entries
are shared objects, so no reader may write to one.  A plan sweep never
does: fold steps copy stacked chunks into their own step buffers
(:class:`repro.streaming.steps.SlabStack`), partials and structural
operations only read their operands, and the serving scheduler runs plans on
one thread, one batch at a time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

__all__ = ["ChunkCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget: enough for the decoded records of a few hundred
#: typical chunks without threatening a small container's memory.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


def _estimate_nbytes(chunk: Any) -> int:
    """Approximate resident bytes of a decoded chunk object.

    Sums the numpy buffers and byte strings reachable from the object's
    attributes (``maxima``/``indices`` for a pyblaz chunk); unknown
    attribute types cost nothing.  A
    floor of 1 byte keeps pathological objects from being free.
    """
    total = 0
    state = getattr(chunk, "__dict__", None)
    values = state.values() if isinstance(state, dict) else ()
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (bytes, bytearray)):
            total += len(value)
    return max(total, 1)


class ChunkCache:
    """Byte-budgeted, thread-safe LRU over decoded store chunks.

    Parameters
    ----------
    max_bytes:
        Total budget for cached chunk records.  Inserting past the budget
        evicts least-recently-used entries; a single record larger than the
        whole budget is simply not cached.

    Attributes
    ----------
    hits, misses, evictions:
        Monotonic counters (also surfaced by :meth:`snapshot`), which the
        serving metrics expose — a fused plan whose sweep hits the cache does
        no record parsing at all, so the hit rate is the decode-saving rate.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ access
    def get(self, key: Hashable) -> Any | None:
        """Return the cached chunk for ``key`` (marking it recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, chunk: Any) -> None:
        """Insert a decoded chunk, evicting LRU entries past the byte budget."""
        nbytes = _estimate_nbytes(chunk)
        if nbytes > self.max_bytes:
            return  # larger than the whole budget: caching it would just thrash
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._current_bytes -= old[1]
            self._entries[key] = (chunk, nbytes)
            self._current_bytes += nbytes
            while self._current_bytes > self.max_bytes and self._entries:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._current_bytes -= evicted_bytes
                self.evictions += 1

    def invalidate(self, prefix: str | None = None) -> int:
        """Drop entries whose key's first element equals ``prefix`` (a store
        path), or everything when ``prefix`` is None; returns the drop count."""
        with self._lock:
            if prefix is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._current_bytes = 0
                return dropped
            doomed = [key for key in self._entries
                      if isinstance(key, tuple) and key and key[0] == prefix]
            for key in doomed:
                _, nbytes = self._entries.pop(key)
                self._current_bytes -= nbytes
            return len(doomed)

    # ------------------------------------------------------------------ introspection
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes currently held (approximate, via the insertion estimates)."""
        with self._lock:
            return self._current_bytes

    def snapshot(self) -> dict:
        """Counters and occupancy as one JSON-ready dict (for the stats endpoint)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes": self._current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                # read by perfbench; delete when it next changes
                "prefetch_issued": 0,
                "prefetch_used": 0,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChunkCache(entries={len(self)}, bytes={self.current_bytes}/"
                f"{self.max_bytes}, hits={self.hits}, misses={self.misses})")
