"""Property: every read path hands back the same chunks with the same counters.

One reader (:mod:`repro.streaming.prefetch`) serves every way a store's chunk
indices become decoded chunks.  This differential test draws 1–3-D data, a
ragged chunking (shards of different row counts, a ragged final chunk), a
single or sharded layout, a chunk cache or none, and either an index subset
or a region, then drives every caller of the reader:

* the per-chunk ``read_chunk`` reference loop, and ``iter_chunks`` /
  :class:`ChunkPrefetcher`;
* a prefetcher sweep whose record reads are slowed by a ``latency`` fault
  from a drawn chunk index onward, so it hands its remaining spans to the
  readahead pool wherever that index falls (``prefetcher-slow``);
* :func:`read_inline`, ``load_region`` and ``load``;
* :func:`warm_store_cache` followed by a sweep.

Every path must decode the reference loop's bytes, count the same
``chunks_read`` and make the same cache lookups, hit for hit and miss for
miss (a warmed sweep hits on every lookup instead).  Each path runs twice on
one handle, so the second run exercises the cache when one is attached.
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import CompressionSettings
from repro.reliability import FaultRule, inject
from repro.serving import ChunkCache
from repro.streaming import (
    ChunkPrefetcher,
    CompressedStore,
    CompressedStoreWriter,
    ShardedStore,
    append_shard,
    init_sharded_store,
    warm_store_cache,
)
from repro.streaming.prefetch import read_inline
from repro.streaming.sharded import shard_filename

#: Chunk-sequence read paths: name -> (store, indices) -> decoded chunks.
CHUNK_PATHS = {
    "read_chunk": lambda store, indices: map(store.read_chunk, indices),
    "prefetcher": ChunkPrefetcher,
    "inline": read_inline,
}


#: Per-record delay of the slowed reads: far above decoding a tiny chunk.
SLOW_READ_SECONDS = 0.001


def _slow_from(store, first: int) -> list[FaultRule]:
    """Latency rules delaying every read of global chunk ``first`` onward."""
    rules = []
    for index in range(first, store.n_chunks):
        path, local = None, index
        if isinstance(store, ShardedStore):
            shard_index, local = store.locate(index)
            path = shard_filename(shard_index)
        rules.append(FaultRule("latency", path=path, chunk_index=local,
                               delay_seconds=SLOW_READ_SECONDS, times=10**6))
    return rules


@st.composite
def read_case(draw):
    """Shard arrays, settings, slab rows, and an index subset or a region."""
    ndim = draw(st.integers(1, 3))
    extents = {1: (2,), 2: (2, 4), 3: (2, 2, 4)}[ndim]
    block = draw(st.sampled_from([extents, tuple(reversed(extents))]))
    block_rows = block[0]
    tail = tuple(draw(st.integers(1, 7)) for _ in range(ndim - 1))
    slab_rows = draw(st.integers(1, 3)) * block_rows
    settings = CompressionSettings(block_shape=block, float_format="float32",
                                   index_dtype="int16")
    # every shard but the last stays block-aligned; the last may be ragged
    row_counts = [draw(st.integers(1, 4)) * block_rows
                  for _ in range(draw(st.integers(0, 2)))]
    row_counts.append(draw(st.integers(1, 3 * block_rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    arrays = [np.cumsum(rng.standard_normal((rows,) + tail), axis=0) * 0.05
              for rows in row_counts]
    kind = draw(st.sampled_from(["all", "subset", "region"]))
    region = draw(_regions(sum(row_counts), tail)) if kind == "region" else None
    return arrays, settings, slab_rows, kind, region


@st.composite
def _regions(draw, n_rows, tail):
    """A basic-indexing region: an axis-0 row or stepped slice, trailing slices."""
    if draw(st.booleans()):
        first = draw(st.integers(-n_rows, n_rows - 1))
    else:
        start = draw(st.integers(0, n_rows))
        first = slice(start, draw(st.integers(start, n_rows)), draw(st.integers(1, 3)))
    trailing = []
    for extent in tail[: draw(st.integers(0, len(tail)))]:
        start = draw(st.integers(0, extent - 1))
        trailing.append(slice(start, draw(st.integers(start + 1, extent))))
    return (first, *trailing)


def _region_chunks(chunk_rows, region) -> list[int]:
    """Chunks holding at least one of ``region``'s axis-0 rows."""
    n_rows = sum(chunk_rows)
    first = region[0]
    rows = ([first % n_rows] if isinstance(first, int)
            else range(*first.indices(n_rows)))
    owner = np.repeat(np.arange(len(chunk_rows)), chunk_rows)
    return sorted({int(owner[row]) for row in rows})


@contextmanager
def _layouts(arrays, settings, slab_rows):
    """Paths of a sharded store and of a single store with the same records."""
    with tempfile.TemporaryDirectory(prefix="read_paths_") as tmp:
        sharded = Path(tmp) / "grown.shards"
        init_sharded_store(sharded, arrays[0], settings, slab_rows=slab_rows).close()
        for array in arrays[1:]:
            append_shard(sharded, array, slab_rows=slab_rows).close()
        single = Path(tmp) / "single.pblzc"
        with ShardedStore(sharded) as source, \
                CompressedStoreWriter(single, settings) as writer:
            for index in range(source.n_chunks):
                writer.append(source.read_chunk(index))
        yield {"single": (CompressedStore, single), "sharded": (ShardedStore, sharded)}


def _observe(opener, path, cached, run):
    """Run ``run(store)`` twice on a fresh handle; return output and counters."""
    with opener(path) as store:
        cache = ChunkCache() if cached else None
        store.chunk_cache = cache
        outputs = [run(store) for _ in range(2)]
        counters = (store.chunks_read,
                    (cache.hits, cache.misses) if cached else None)
    assert all(np.array_equal(outputs[0], other) for other in outputs[1:])
    return outputs[0], counters


def _decoded(store, chunks) -> np.ndarray:
    """Concatenated decompressed bytes of a chunk sequence (empty allowed)."""
    return np.frombuffer(b"".join(store.decompress_chunk(chunk).tobytes()
                                  for chunk in chunks), dtype=np.uint8)


class TestEveryReadPathAgrees:
    @given(case=read_case(), data=st.data())
    @hyp_settings(max_examples=30, deadline=None)
    def test_bytes_and_counters_match_the_reference_loop(self, case, data):
        arrays, settings, slab_rows, kind, region = case
        with _layouts(arrays, settings, slab_rows) as layouts:
            opener, path = layouts["single"]
            with opener(path) as reference:
                n_chunks = reference.n_chunks
                full = reference.load()
                if kind == "region":
                    indices = _region_chunks(reference.chunk_rows, region)
                elif kind == "subset":
                    indices = data.draw(st.lists(st.integers(0, n_chunks - 1),
                                                 unique=True).map(sorted))
                else:
                    indices = None
                wanted = list(range(n_chunks)) if indices is None else indices
                reference_bytes = _decoded(reference, map(reference.read_chunk, wanted))
            first_slow = data.draw(st.integers(0, n_chunks), label="first_slow")

            def slow_sweep(store, indices):
                with inject(*_slow_from(store, first_slow)):
                    yield from ChunkPrefetcher(store, indices)

            for layout, (opener, path) in layouts.items():
                for cached in (False, True):
                    observed = {}
                    readers = dict(CHUNK_PATHS, **{"prefetcher-slow": slow_sweep})
                    for name, reader in readers.items():
                        observed[name] = _observe(
                            opener, path, cached,
                            lambda store: _decoded(store, reader(store, wanted)))
                    if indices is None:
                        observed["iter_chunks"] = _observe(
                            opener, path, cached,
                            lambda store: _decoded(store, store.iter_chunks()))

                    def warm_then_sweep(store):
                        warm_store_cache(store, indices)
                        return _decoded(store, ChunkPrefetcher(store, wanted))

                    warmed, warmed_counters = _observe(opener, path, cached,
                                                       warm_then_sweep)
                    expected_counters = observed["read_chunk"][1]
                    for name, (output, counters) in observed.items():
                        assert np.array_equal(output, reference_bytes), (layout, name)
                        assert counters == expected_counters, (layout, cached, name)
                    assert np.array_equal(warmed, reference_bytes)
                    assert expected_counters == (
                        2 * len(wanted),
                        (len(wanted), len(wanted)) if cached else None)
                    # the warm path probes silently: every sweep lookup hits
                    assert warmed_counters == (
                        2 * len(wanted), (2 * len(wanted), 0) if cached else None)

                    if kind == "region":
                        region_out, region_counters = _observe(
                            opener, path, cached,
                            lambda store: store.load_region(region))
                        assert np.array_equal(region_out, full[region])
                        assert region_counters == expected_counters
                    loaded, load_counters = _observe(opener, path, cached,
                                                     lambda store: store.load())
                    assert np.array_equal(loaded, full)
                    assert load_counters == (
                        2 * n_chunks, (n_chunks, n_chunks) if cached else None)
