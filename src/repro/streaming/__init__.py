"""Out-of-core streaming compression (the scaling substrate of the ROADMAP).

The core :class:`repro.core.Compressor` requires the whole array in memory.  This
subpackage removes that restriction by exploiting the pipeline's block independence:
every step after blocking (transform, binning, pruning) treats blocks independently,
so an array split into *block-aligned slabs along axis 0* can be compressed slab by
slab and the per-slab results concatenated into a representation **bit-identical**
to one-shot compression — the streaming analogue of the block-decomposed speedups
of the related SOM-acceleration work (PAPERS.md).

Three layers:

* :class:`ChunkedCompressor` — consumes an in-memory array, a ``np.memmap``, or a
  generator of slabs, re-aligns slab boundaries to block multiples, compresses each
  slab with the existing :class:`repro.core.Compressor` (optionally fanned out
  across worker processes), and assembles an exact :class:`repro.core.CompressedArray`.
* :class:`CompressedStore` / :class:`CompressedStoreWriter` — an on-disk format
  with a chunk table, so slabs append incrementally and sub-regions decompress
  selectively (:func:`load_region`) without materialising the whole index array.
  A store holds PyBlaz chunks only, in format v3 (checksummed records);
  :meth:`ChunkedCompressor.compress_to_store` is its writer.
* :class:`ShardedStore` (:mod:`repro.streaming.sharded`) — a manifest over N
  immutable store shards with append support and persisted per-shard fold
  partials, so reductions over a growing store are O(new chunks); it presents
  the single-store surface, and :func:`open_store` dispatches on the path kind
  (``docs/sharding.md``).
* :mod:`repro.streaming.ops` — the out-of-core compressed-domain operations:
  every Table I scalar reduction (``mean``, ``variance``,
  ``standard_deviation``, ``covariance``, ``dot``, ``l2_norm``,
  ``euclidean_distance``, ``cosine_similarity``), the same functions as
  :mod:`repro.core.ops`, each a one-op plan over a store on the lazy engine
  (:mod:`repro.engine`) folding the declarative
  :data:`repro.core.ops.folds.FOLD_SPECS` partials chunk-by-chunk, plus
  structural ``add``/``subtract``/``scale``/``negate`` that write new stores
  one chunk at a time.  Results match the in-memory :mod:`repro.core.ops` on the
  assembled array bit for bit (see ``docs/ops.md``); to evaluate *several*
  reductions in fused sweeps, use :func:`repro.engine.plan` directly
  (``docs/engine.md``).
* :mod:`repro.streaming.prefetch` — the one chunk reader
  (``docs/performance.md``): coalesced record spans in, decoded chunks out in
  index order.  :class:`ChunkPrefetcher` runs it inline and, once a read
  blocks, a bounded window ahead of the consumer on a small thread pool
  (every ``iter_chunks`` sweep: plans, streaming ops, sharded sweeps and
  serving; it takes no setting), and ``load_region`` runs it inline.  Both
  fill the store's attached chunk cache as they decode.  Chunk order, values
  and counters stay bit-identical to the serial loop.
"""

from . import ops
from .chunked import ChunkedCompressor
from .prefetch import ChunkPrefetcher, coalesce_spans
from .sharded import (
    ShardedStore,
    append_shard,
    init_sharded_store,
    is_sharded_store,
    open_store,
    refresh_partials,
)
from .store import CompressedStore, CompressedStoreWriter, load_region

__all__ = [
    "ChunkPrefetcher",
    "ChunkedCompressor",
    "CompressedStore",
    "CompressedStoreWriter",
    "ShardedStore",
    "coalesce_spans",
    "append_shard",
    "init_sharded_store",
    "is_sharded_store",
    "load_region",
    "open_store",
    "ops",
    "refresh_partials",
]
