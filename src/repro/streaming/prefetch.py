"""The chunk reader: store chunk indices in, decoded chunks out, in order.

This module is the only code that turns chunk indices into decoded chunks.
One pipeline does it — :func:`_segment_tasks` splits the indices per
underlying store file, :func:`coalesce_spans` groups adjacent records into
**payload spans** (one ``os.pread`` each, split in memory), :func:`_fetch_span`
resolves a span from the chunk cache or the file, and :func:`_consume` decodes,
caches and counts each chunk in request order.  Two callers drive it:

* :class:`ChunkPrefetcher` — the sweep reader (``iter_chunks``, fused plan
  passes, streaming ops, sharded sweeps).  It reads spans inline, exactly as
  :func:`read_inline` does, until a span's fetch blocks; from then on a small
  thread pool fetches the remaining spans a bounded window ahead while the
  consumer thread decodes, so the CPU and the disk overlap and every fold
  stays bit-identical to the serial loop.  The per-chunk ``read_chunk``
  loop (one pread per chunk) is the reference it is measured against
  (``Plan.execute(prefetch=False)``).
* :func:`read_inline` — the inline phase on its own, never handing off to a
  pool; ``load_region`` uses it on both store kinds (a pool costs more than
  it hides on a short window).

Both fill the store's attached chunk cache with the misses they decode, as
``read_chunk`` does.

Division of labour, chosen by measurement rather than symmetry:

* **Inline until a read blocks.**  A span served from the chunk cache, or
  read from the page cache, costs less than handing it to a worker thread
  and back: on warm stores a pool per sweep was measured slower than the
  serial loop.  So a sweep fetches each span on the consumer thread, and
  hands its *remaining* spans to the pool only after a span that read
  records from the file took longer to fetch than its chunks took to
  consume (decode, plus whatever the caller did with them).  That is the
  point where overlap pays: the disk, not the CPU, is the bottleneck.
  Cache-served spans never start a pool.  The rule has no constant to tune.
* **Workers fetch, the consumer decodes.**  Record reads release the GIL
  (``os.pread``, CRC-32), so fetching in threads overlaps genuinely with
  decode/fold work.  Chunk *decoding* is dominated by GIL-held Python-object
  work (stream parsing, settings reconstruction), so decoding in workers just
  contends with the consumer — measured slower than serial.  Keeping decode on
  the consumer thread also preserves the strict single-decode discipline the
  engine's memory contract relies on.
* **Spans, not single chunks.**  Submitting one future per chunk costs more
  handoff than a small read saves; adjacent records within
  :data:`DEFAULT_SPAN_BYTES` (capped at :data:`DEFAULT_SPAN_CHUNKS`) merge
  into one positional read and one future.

Fault tolerance matches the serial loop: span fetches run through
:meth:`repro.streaming.CompressedStore.read_payload_span`, where the
fault-injection hooks fire per chunk, version-3 CRCs are verified per chunk,
and a failed span falls back to the per-chunk
:meth:`~repro.streaming.CompressedStore.read_payload` seam with its full retry
policy.  A chunk whose read still fails keeps its error, and the error is
raised at that chunk's position: every chunk before it in request order is
yielded first, exactly as the serial loop yields them, before or after the
hand-off alike.

Accounting: span reads count their payloads into ``chunks_prefetched`` when
the read completes; ``chunks_read`` counts only chunks actually *consumed*
(yielded or cache-served), so an aborted pipeline leaves
``chunks_prefetched > chunks_read`` instead of silently inflating the read
counters that pass-count tests assert on.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import chain
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ChunkPrefetcher",
    "coalesce_spans",
    "read_inline",
    "DEFAULT_PREFETCH_WORKERS",
    "DEFAULT_SPAN_BYTES",
    "DEFAULT_SPAN_CHUNKS",
    "READAHEAD_SPANS",
]

#: Fetch threads per prefetcher.  Two is enough to hide one read behind one
#: decode on the measured workloads; more threads add GIL handoffs, not speed.
DEFAULT_PREFETCH_WORKERS = 2

#: Coalescing budget: adjacent chunk records are merged into one positional
#: read while their combined size stays under this many bytes.
DEFAULT_SPAN_BYTES = 1 << 20

#: Cap on records per coalesced span, so tiny-chunk stores still pipeline at a
#: useful granularity instead of fetching everything in one giant span.
DEFAULT_SPAN_CHUNKS = 8

#: Coalesced span fetches in flight once a sweep's readahead pool engages:
#: two per fetch thread, so each worker has its next span queued.
READAHEAD_SPANS = 2 * DEFAULT_PREFETCH_WORKERS


def coalesce_spans(extents: Sequence[tuple], *,
                   max_bytes: int = DEFAULT_SPAN_BYTES,
                   max_chunks: int = DEFAULT_SPAN_CHUNKS) -> list[list[tuple]]:
    """Group ``(index, offset, n_bytes, ...)`` records into contiguous read spans.

    A span extends while the next record starts exactly where the previous one
    ended (chunk records are written back to back, so any gap means the caller
    skipped a chunk), the span stays within ``max_bytes``, and it holds at
    most ``max_chunks`` records.  Every record lands in exactly one span, in
    input order; a single record larger than ``max_bytes`` gets its own span.
    Fields after ``n_bytes`` ride along untouched.
    """
    spans: list[list[tuple]] = []
    current: list[tuple] = []
    current_bytes = 0
    for record in extents:
        offset, n_bytes = record[1], record[2]
        if current:
            contiguous = offset == current[-1][1] + current[-1][2]
            fits = (current_bytes + n_bytes <= max_bytes
                    and len(current) < max_chunks)
            if not (contiguous and fits):
                spans.append(current)
                current = []
                current_bytes = 0
        current.append(record)
        current_bytes += n_bytes
    if current:
        spans.append(current)
    return spans


def _segment_tasks(store, indices: Iterable[int]) -> Iterator[tuple[object, list[int]]]:
    """Split global chunk ``indices`` into per-underlying-store runs.

    Plain :class:`~repro.streaming.CompressedStore` sources yield one segment.
    Sharded stores yield one segment per run of consecutive indices living in
    the same shard — shards are opened lazily, only when their segment is
    consumed, preserving the sharded store's lazy-open contract.
    """
    locate = getattr(store, "locate", None)
    if locate is None:
        run = list(indices)
        if run:
            yield store, run
        return
    run_shard: int | None = None
    run: list[int] = []
    for index in indices:
        shard_index, local = locate(index)
        if run and shard_index != run_shard:
            yield store.shard(run_shard), run
            run = []
        run_shard = shard_index
        run.append(local)
    if run:
        yield store.shard(run_shard), run


def _spans(store, indices: Iterable[int]) -> Iterator[tuple[object, list[int]]]:
    """Yield ``(underlying store, local indices)`` coalesced fetch units lazily."""
    for real, locals_ in _segment_tasks(store, indices):
        extents = [(local, *real._record_extent(local)) for local in locals_]
        for span in coalesce_spans(extents):
            yield real, [record[0] for record in span]


def _fetch_span(real, locals_: list[int]) -> list[tuple[str, object]]:
    """Resolve one span's chunks from cache or disk, one item per local index.

    Items are ``("chunk", decoded)`` for a cache hit and ``("payload",
    bytes)`` for a record read — or ``("payload", exc)`` when that record's
    read failed for good, which :func:`_consume` raises at the chunk's
    position.  The single cache lookup per chunk here replaces (not
    duplicates) the one ``read_chunk`` would have done, so cache hit/miss
    counters stay identical to the serial loop.  Payloads count into
    ``chunks_prefetched`` as soon as the span read completes.
    """
    cache = real.chunk_cache
    path = str(real.path)
    hits = [cache.get((path, local)) if cache is not None else None
            for local in locals_]
    misses = [local for local, chunk in zip(locals_, hits) if chunk is None]
    payloads = {}
    if misses:
        payloads = real.read_payload_span(misses)
        real._note_prefetched(len(misses))
    return [("chunk", chunk) if chunk is not None else ("payload", payloads[local])
            for local, chunk in zip(locals_, hits)]


def _consume(real, local: int, item: tuple[str, object]):
    """Decode one fetched item, cache it and count the logical read.

    A stored read error is raised here, at the chunk's position.
    """
    kind, value = item
    if kind == "chunk":
        chunk = value
    elif isinstance(value, Exception):
        raise value
    else:
        chunk = real._chunk_from_payload(local, value)
        cache = real.chunk_cache
        if cache is not None:
            cache.put((str(real.path), local), chunk)
    real._note_read()
    return chunk


class _BlockedTime(threading.local):
    """Seconds the current thread has spent blocked on chunk fetches."""

    seconds = 0.0


#: Fetch waits per consumer thread.  A lockstep multi-source sweep runs its
#: sources' readers on one thread, so a reader's consume time would include
#: its siblings' blocking reads; subtracting the waits logged here meanwhile
#: leaves the consumer's own work.
_blocked = _BlockedTime()


def _read_spans(spans: Iterator[tuple[object, list[int]]], *,
                until_blocked: bool = False) -> Iterator:
    """Fetch and consume ``spans`` on the calling thread, in order.

    The inline phase shared by :func:`read_inline` and
    :class:`ChunkPrefetcher`.  With ``until_blocked``, it stops after the
    first span that read records from the file and whose fetch took longer
    than consuming its chunks did, and returns the next, unread span so the
    caller can fetch the rest ahead.  Consuming runs from the fetch's end
    until the consumer asks for the chunk after the span's last, less the
    time the thread spent blocked on other fetches meanwhile.  Otherwise it
    drains ``spans`` and returns ``None``.
    """
    blocked = False
    for span in spans:
        if blocked:
            return span
        real, locals_ = span
        started = time.perf_counter()
        items = _fetch_span(real, locals_)
        fetched = time.perf_counter()
        _blocked.seconds += fetched - started
        waited = _blocked.seconds
        for local, item in zip(locals_, items):
            yield _consume(real, local, item)
        consumed = time.perf_counter() - fetched - (_blocked.seconds - waited)
        blocked = (until_blocked and fetched - started > consumed
                   and any(kind == "payload" for kind, _ in items))
    return None


def read_inline(store, indices: Iterable[int]) -> Iterator:
    """Yield ``indices``'s decoded chunks in order, fetching each span inline.

    The thread-free caller of the reader (``load_region`` uses it): no pool,
    no window — a span is fetched when the consumer reaches it, so at most
    one span's payloads are resident and memory stays chunk-bounded.
    """
    yield from _read_spans(_spans(store, indices))


def _shutdown_pool(pool: ThreadPoolExecutor) -> None:
    """Finalizer body: stop the fetch pool, dropping any queued spans."""
    pool.shutdown(wait=True, cancel_futures=True)


def _absorb_exception(future: Future) -> None:
    """Retrieve an abandoned future's exception so it is never logged as lost.

    Consumed futures re-raise through ``result()`` regardless; this only
    silences the interpreter's "exception was never retrieved" warning for
    spans dropped by an aborted pipeline.
    """
    if not future.cancelled():
        future.exception()


class ChunkPrefetcher:
    """Inline-first span reader over a store's chunks, reading ahead when reads block.

    Iterating a prefetcher yields the same decoded chunk objects, in the same
    order, as ``store.read_chunk(i) for i in indices``.  Coalesced spans are
    fetched inline on the consumer thread until one blocks — it read records
    from the file and its fetch outlasted the consumption of its chunks.  The
    remaining spans are then fetched up to :data:`READAHEAD_SPANS` spans
    ahead on a pool of :data:`DEFAULT_PREFETCH_WORKERS` threads, created at
    that point, so the consumer's decode/fold work overlaps the I/O.
    :attr:`readahead` tells whether the pool engaged.

    Parameters
    ----------
    store:
        An open :class:`~repro.streaming.CompressedStore` or
        :class:`~repro.streaming.ShardedStore`.
    indices:
        Global chunk indices to yield, in order (default: every chunk).

    A prefetcher is **single-use**: iterate it once, then :meth:`close` it
    (closing is automatic when the iteration ends, is abandoned, or the
    prefetcher is garbage-collected — a ``weakref.finalize`` guarantees the
    pool's threads are joined, so aborted pipelines leak nothing).
    """

    def __init__(self, store, indices: Iterable[int] | None = None):
        self.store = store
        self.indices = (list(range(store.n_chunks)) if indices is None
                        else [int(index) for index in indices])
        self.readahead = False
        self._pool: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    def __iter__(self) -> Iterator:
        """Yield decoded chunks in request order: inline, then ahead once blocked."""
        spans = _spans(self.store, self.indices)
        try:
            rest = yield from _read_spans(spans, until_blocked=True)
            if rest is not None:
                yield from self._read_ahead(chain([rest], spans))
        finally:
            self.close()

    def _read_ahead(self, spans: Iterator[tuple[object, list[int]]]) -> Iterator:
        """Fetch the remaining ``spans``, :data:`READAHEAD_SPANS` ahead, on the pool."""
        self.readahead = True
        self._pool = ThreadPoolExecutor(
            max_workers=DEFAULT_PREFETCH_WORKERS,
            thread_name_prefix="repro-prefetch",
        )
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        window: deque[tuple[object, list[int], Future]] = deque()

        def submit_next() -> bool:
            """Move one span from the plan into the in-flight window."""
            try:
                real, locals_ = next(spans)
            except StopIteration:
                return False
            future = self._pool.submit(_fetch_span, real, locals_)
            future.add_done_callback(_absorb_exception)
            window.append((real, locals_, future))
            return True

        for _ in range(READAHEAD_SPANS):
            if not submit_next():
                break
        while window:
            real, locals_, future = window.popleft()
            submit_next()  # keep the window full before blocking
            waiting = time.perf_counter()
            items = future.result()
            _blocked.seconds += time.perf_counter() - waiting
            for local, item in zip(locals_, items):
                yield _consume(real, local, item)

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop the fetch pool and join its threads (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "ChunkPrefetcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChunkPrefetcher(chunks={len(self.indices)})"
