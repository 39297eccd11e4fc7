"""Shared chunk-source plumbing for the out-of-core operation layers.

Both :mod:`repro.streaming.ops` (one-op sweeps, structural store writers) and
the lazy plan engine (:mod:`repro.engine.plan`) consume the same two source
kinds — an open :class:`CompressedStore` (or sharded store), or any iterable
of chunk :class:`repro.core.CompressedArray` objects — and need the same
guarantees about them: aligned chunking across sources and matching store
geometry.  Those checks live here, in the streaming layer, so
the engine depends downward on streaming (never the reverse).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..core.compressed import CompressedArray
from .sharded import ShardedStore
from .store import CompressedStore

__all__ = [
    "STORE_TYPES",
    "source_chunks",
    "aligned_chunks",
    "check_stores",
]

#: The open-store source kinds every layer treats interchangeably: a single
#: chunked store file, or a sharded store directory presenting the same
#: surface.  ``isinstance(source, STORE_TYPES)`` is the one idiom for "this
#: source is a reopenable on-disk store" across ops, engine and serving.
STORE_TYPES = (CompressedStore, ShardedStore)


def source_chunks(source) -> Iterator[CompressedArray]:
    """Iterate a source's chunks: a store's records or an iterable's items.

    Store sources read through :meth:`CompressedStore.iter_chunks
    <repro.streaming.CompressedStore.iter_chunks>`.
    """
    if isinstance(source, STORE_TYPES):
        return source.iter_chunks()
    return iter(source)


def aligned_chunks(sources: tuple) -> Iterator[tuple]:
    """Yield aligned chunk tuples across sources, enforcing identical chunking.

    Every store source reads through its own
    :class:`~repro.streaming.ChunkPrefetcher`, which hands off to a
    readahead pool once its reads block; the lockstep zip
    below consumes them jointly, so multi-source sweeps (dot, covariance,
    structural binaries) can pipeline all their inputs at once.  Abandoning
    or closing this generator closes every source iterator, which shuts the
    prefetchers' fetch pools down promptly.
    """
    iterators = [source_chunks(source) for source in sources]
    sentinel = object()
    try:
        while True:
            chunks = tuple(next(iterator, sentinel) for iterator in iterators)
            if all(chunk is sentinel for chunk in chunks):
                return
            if any(chunk is sentinel for chunk in chunks):
                raise ValueError(
                    "binary compressed-domain ops require identically chunked "
                    "sources (one ran out of chunks early)"
                )
            shapes = {tuple(chunk.shape) for chunk in chunks}
            if len(shapes) > 1:
                raise ValueError(
                    f"chunk shapes differ ({' vs '.join(map(str, shapes))}); "
                    "recompress with matching slab_rows"
                )
            yield chunks
            chunks = None  # release the previous chunk tuple before decoding the next
    finally:
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def check_stores(sources: Sequence) -> None:
    """Cheap upfront geometry checks across every open-store source."""
    stores = [source for source in sources if isinstance(source, STORE_TYPES)]
    if len(stores) < 2:
        return
    first = stores[0]
    for other in stores[1:]:
        if other.shape != first.shape:
            raise ValueError(
                f"stores have different shapes ({first.shape} vs {other.shape})"
            )
        if other.chunk_rows != first.chunk_rows:
            raise ValueError(
                f"stores are chunked differently (chunk rows {first.chunk_rows} "
                f"vs {other.chunk_rows}); recompress with matching slab_rows"
            )
