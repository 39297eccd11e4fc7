"""Unit tests for the pipelined chunk I/O layer (repro.streaming.prefetch).

The invariant under test everywhere: a prefetched sweep yields the same
chunks, in the same order, decoding to the same bytes, with the same
``chunks_read`` accounting as the serial loop — only the physical read
pattern (``preads``) and the overlap change.

Sweeps read spans inline until a read blocks, so the tests that exercise
the readahead pool slow every record read down with a ``latency`` fault
rule and check that a ``repro-prefetch`` thread really ran.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import CompressionSettings
from repro.engine import expr, plan
from repro.streaming import (
    ChunkedCompressor,
    ChunkPrefetcher,
    CompressedStore,
    ShardedStore,
    append_shard,
    coalesce_spans,
    init_sharded_store,
    load_region,
    resolve_depth,
    warm_store_cache,
)
from repro.reliability import FaultRule, IntegrityError, inject
from repro.serving import ChunkCache
from repro.streaming.prefetch import DEFAULT_PREFETCH_WORKERS, DEFAULT_SPAN_CHUNKS
from repro.streaming.sources import aligned_chunks

from tests.conftest import smooth_field


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


@pytest.fixture
def field() -> np.ndarray:
    return smooth_field((96, 20), seed=11)


@pytest.fixture
def store(tmp_path, settings, field) -> CompressedStore:
    with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
        field, tmp_path / "field.pblzc"
    ) as opened:
        yield opened


def _chunk_bytes(store, *, prefetch):
    """Every chunk's decoded bytes, in order, via ``iter_chunks``."""
    return [store.decompress_chunk(chunk).tobytes()
            for chunk in store.iter_chunks(prefetch=prefetch)]


#: Per-record read delay that makes every span's fetch outlast its decode.
SLOW_READ_SECONDS = 0.005


def _slow_reads(*chunk_indices, path=None):
    """Latency rules delaying every read of ``chunk_indices`` (all if none)."""
    return [FaultRule("latency", path=path, chunk_index=index,
                      delay_seconds=SLOW_READ_SECONDS, times=10**6)
            for index in (chunk_indices or (None,))]


def _pool_running() -> bool:
    """Whether a readahead pool thread is alive right now."""
    return any(thread.name.startswith("repro-prefetch")
               for thread in threading.enumerate())


def _sweep_watching_pool(chunks):
    """Drain ``chunks``; return them and, per chunk, whether the pool was up."""
    yielded, pooled = [], []
    for chunk in chunks:
        yielded.append(chunk)
        pooled.append(_pool_running())
    return yielded, pooled


class TestResolveDepth:
    def test_none_is_auto(self):
        assert resolve_depth(None) == 2 * DEFAULT_PREFETCH_WORKERS

    def test_auto_disables_for_tiny_stores(self):
        assert resolve_depth(None, n_chunks=2) == 0
        assert resolve_depth(None, n_chunks=3) == 0
        assert resolve_depth(None, n_chunks=4) > 0

    def test_zero_and_explicit(self):
        assert resolve_depth(0) == 0
        assert resolve_depth(0, n_chunks=1000) == 0
        assert resolve_depth(7, n_chunks=2) == 7  # explicit beats tiny-store
        assert resolve_depth(7, n_chunks=1) == 0  # nothing to overlap

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_depth(-1)


class TestCoalesceSpans:
    def test_adjacent_records_merge(self):
        extents = [(0, 0, 100), (1, 100, 50), (2, 150, 25)]
        assert coalesce_spans(extents) == [extents]

    def test_gap_splits(self):
        extents = [(0, 0, 100), (1, 200, 50)]
        assert coalesce_spans(extents) == [[extents[0]], [extents[1]]]

    def test_byte_budget_splits(self):
        extents = [(0, 0, 60), (1, 60, 60)]
        assert coalesce_spans(extents, max_bytes=100) == [[extents[0]],
                                                          [extents[1]]]

    def test_chunk_budget_splits(self):
        extents = [(index, index * 10, 10) for index in range(5)]
        spans = coalesce_spans(extents, max_chunks=2)
        assert [len(span) for span in spans] == [2, 2, 1]

    def test_oversized_record_gets_own_span(self):
        extents = [(0, 0, 10), (1, 10, 500), (2, 510, 10)]
        spans = coalesce_spans(extents, max_bytes=100)
        assert spans == [[extents[0]], [extents[1]], [extents[2]]]

    def test_empty(self):
        assert coalesce_spans([]) == []


class TestBitIdentity:
    def test_iter_chunks_identical_across_depths(self, store):
        serial = _chunk_bytes(store, prefetch=0)
        for depth in (None, 1, 2, 8, 64):
            assert _chunk_bytes(store, prefetch=depth) == serial

    def test_prefetcher_reads_fewer_times(self, tmp_path, settings, field):
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "serial.pblzc"
        ) as serial_store:
            list(serial_store.iter_chunks(prefetch=0))
            serial_preads = serial_store.preads
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "piped.pblzc"
        ) as piped_store:
            list(piped_store.iter_chunks(prefetch=4))
            piped_preads = piped_store.preads
        assert piped_preads < serial_preads

    def test_plan_values_identical(self, store):
        x = expr.source(store)
        outputs = {"mean": expr.mean(x), "l2": expr.l2_norm(x),
                   "var": expr.variance(x)}
        serial = plan(outputs).execute(prefetch=0)
        piped = plan(outputs).execute(prefetch=4)
        assert serial == piped  # exact equality: bit-identical folds

    def test_aligned_multi_source(self, tmp_path, settings, field):
        other = smooth_field((96, 20), seed=12)
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "a.pblzc"
        ) as store_a, ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            other, tmp_path / "b.pblzc"
        ) as store_b:
            def sweep(prefetch):
                return [
                    (store_a.decompress_chunk(a).tobytes(),
                     store_b.decompress_chunk(b).tobytes())
                    for a, b in aligned_chunks((store_a, store_b),
                                               prefetch=prefetch)
                ]

            serial = sweep(0)
            piped = sweep(4)
        assert piped == serial


class TestAccounting:
    def test_prefetched_and_read_match_on_full_sweep(self, store):
        list(store.iter_chunks(prefetch=4))
        assert store.chunks_read == store.n_chunks
        assert store.chunks_prefetched == store.n_chunks

    def test_serial_sweep_prefetches_nothing(self, store):
        list(store.iter_chunks(prefetch=0))
        assert store.chunks_read == store.n_chunks
        assert store.chunks_prefetched == 0

    def test_aborted_pipeline_prefetched_exceeds_read(self, store):
        iterator = store.iter_chunks(prefetch=4)
        next(iterator)
        iterator.close()
        assert store.chunks_read == 1
        assert store.chunks_prefetched > store.chunks_read

    def test_cache_hit_counters_match_serial(self, tmp_path, settings, field):
        def sweep(name, prefetch):
            cache = ChunkCache(max_bytes=64 * 1024 * 1024)
            with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
                field, tmp_path / name
            ) as opened:
                opened.chunk_cache = cache
                list(opened.iter_chunks(prefetch=prefetch))
                list(opened.iter_chunks(prefetch=prefetch))
            return cache.hits, cache.misses

        assert sweep("piped.pblzc", 4) == sweep("serial.pblzc", 0)


class TestLoadRegion:
    def test_region_coalesced_and_identical(self, tmp_path, settings, field):
        def read(name, region):
            with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
                field, tmp_path / name
            ) as opened:
                out = load_region(opened, region)
                return out, opened.preads

        region = (slice(10, 70), slice(None))
        coalesced, preads = read("region.pblzc", region)
        # 8 chunks selected (rows 8..72): coalescing caps the payload reads
        # at ceil(8 / span_chunks) + the header reads done at open
        assert preads < 8
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "whole.pblzc"
        ) as opened:
            whole = opened.load()
        assert np.array_equal(coalesced, whole[region])


class TestLifecycle:
    """The readahead pool's threads are joined however a sweep ends."""

    def test_abort_leaks_no_threads(self, store):
        baseline = threading.active_count()
        with inject(*_slow_reads()):
            iterator = store.iter_chunks(prefetch=4)
            # the first span is read inline; its slow read hands off the rest
            for _ in range(DEFAULT_SPAN_CHUNKS + 1):
                next(iterator)
            assert _pool_running()
            iterator.close()
        assert threading.active_count() == baseline

    def test_garbage_collected_prefetcher_shuts_down(self, store):
        baseline = threading.active_count()
        with inject(*_slow_reads()):
            prefetcher = ChunkPrefetcher(store, depth=4)
            iterator = iter(prefetcher)
            for _ in range(DEFAULT_SPAN_CHUNKS + 1):
                next(iterator)
            assert prefetcher.readahead and _pool_running()
            del prefetcher, iterator
            import gc
            gc.collect()
        assert threading.active_count() == baseline

    def test_exhausted_iteration_shuts_down(self, store):
        baseline = threading.active_count()
        with inject(*_slow_reads()):
            _, pooled = _sweep_watching_pool(store.iter_chunks(prefetch=4))
        assert any(pooled)
        assert threading.active_count() == baseline


class TestHandOff:
    """Spans are read inline until a read blocks; then the pool takes over."""

    @pytest.fixture
    def long_store(self, tmp_path, settings):
        # 32 chunks of 8 rows: four spans of DEFAULT_SPAN_CHUNKS records
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            smooth_field((256, 20), seed=7), tmp_path / "long.pblzc"
        ) as opened:
            assert opened.n_chunks == 4 * DEFAULT_SPAN_CHUNKS
            yield opened

    def test_cache_warm_sweep_starts_no_pool(self, store):
        cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        store.chunk_cache = cache
        expected = _chunk_bytes(store, prefetch=0)
        # every read would block, but no span reads the file
        with inject(*_slow_reads()) as faults:
            prefetcher = ChunkPrefetcher(store, depth=4)
            chunks, pooled = _sweep_watching_pool(prefetcher)
        assert [store.decompress_chunk(chunk).tobytes() for chunk in chunks] == expected
        assert not prefetcher.readahead and not any(pooled)
        assert faults.fired["latency"] == 0
        assert cache.hits == store.n_chunks

    def test_slow_reads_from_chunk_k_hand_off_mid_sweep(self, tmp_path, settings,
                                                         long_store):
        first_slow = DEFAULT_SPAN_CHUNKS  # the second span onward

        def consume(chunks):
            # fold-like work per chunk, well above a page-cache read and well
            # below a slow one: the first span stays inline, the second not
            for chunk in chunks:
                time.sleep(SLOW_READ_SECONDS / 5)
                yield chunk

        long_store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        with inject(*_slow_reads(*range(first_slow, long_store.n_chunks))):
            prefetcher = ChunkPrefetcher(long_store, depth=4)
            chunks, pooled = _sweep_watching_pool(consume(prefetcher))
        cache = long_store.chunk_cache
        counters = (long_store.chunks_read, cache.hits, cache.misses)
        # the first two spans are read inline, the last two by the pool
        assert prefetcher.readahead
        assert pooled == [False] * (2 * DEFAULT_SPAN_CHUNKS) + [True] * (2 * DEFAULT_SPAN_CHUNKS)
        assert long_store.chunks_prefetched == long_store.n_chunks

        with CompressedStore(long_store.path) as serial_store:
            cache = serial_store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
            serial = _chunk_bytes(serial_store, prefetch=0)
            assert counters == (serial_store.chunks_read, cache.hits, cache.misses)
        assert [long_store.decompress_chunk(chunk).tobytes()
                for chunk in chunks] == serial

    def test_bad_record_after_the_hand_off_raises_at_its_index(self, long_store):
        bad = 2 * DEFAULT_SPAN_CHUNKS + 3  # in the third span, read by the pool
        rules = _slow_reads() + [FaultRule("bit_flip", chunk_index=bad, times=10**6)]
        yielded, pooled = [], []
        with inject(*rules):
            with pytest.raises(IntegrityError) as raised:
                for chunk in long_store.iter_chunks(prefetch=4):
                    yielded.append(chunk)
                    pooled.append(_pool_running())
        assert any(pooled)
        assert len(yielded) == bad
        assert raised.value.chunk_index == bad
        assert long_store.chunks_read == bad


class TestSharded:
    @pytest.fixture
    def sharded_path(self, tmp_path, settings):
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((64, 20), seed=1), settings,
                           slab_rows=8).close()
        append_shard(path, smooth_field((40, 20), seed=2), slab_rows=8).close()
        return path

    def test_sharded_iter_identical_across_boundaries(self, sharded_path):
        with ShardedStore(sharded_path) as store:
            serial = _chunk_bytes(store, prefetch=0)
        with ShardedStore(sharded_path) as store, inject(*_slow_reads()):
            # the first shard's span is read inline, the second's by the pool
            chunks, pooled = _sweep_watching_pool(store.iter_chunks(prefetch=4))
            piped = [store.decompress_chunk(chunk).tobytes() for chunk in chunks]
            assert store.chunks_prefetched == store.n_chunks
        assert any(pooled)
        assert piped == serial


class TestErrorPosition:
    """A persistent bad record raises at its own position in request order:
    every good chunk before it is yielded first, at any depth and layout.
    Every read is slowed so the bad record, in the second span, is fetched
    by the readahead pool at depths 1 and 4."""

    BAD_CHUNK = DEFAULT_SPAN_CHUNKS + 3

    @pytest.fixture(params=["single", "sharded"])
    def bad_store(self, request, tmp_path, settings):
        # 16 chunks of 8 rows; the sharded layout splits them 8 + 8; yields
        # the store, the bad record's file and its index within that file
        rows = smooth_field((128, 12), seed=5)
        if request.param == "single":
            with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
                rows, tmp_path / "bad.pblzc"
            ) as opened:
                yield opened, None, self.BAD_CHUNK
            return
        path = tmp_path / "bad.shards"
        init_sharded_store(path, rows[:64], settings, slab_rows=8).close()
        append_shard(path, rows[64:], slab_rows=8).close()
        with ShardedStore(path) as opened:
            yield opened, "shard-000001", self.BAD_CHUNK - 8

    @pytest.mark.parametrize("prefetch", [0, 1, 4])
    def test_good_chunks_before_the_bad_record_are_yielded(self, bad_store, prefetch):
        store, path, local = bad_store
        assert store.n_chunks == 16
        rule = FaultRule("bit_flip", path=path, chunk_index=local, times=10**6)
        yielded, pooled = [], []
        with inject(rule, *_slow_reads(), seed=0):
            with pytest.raises(IntegrityError) as raised:
                for chunk in store.iter_chunks(prefetch=prefetch):
                    yielded.append(chunk)
                    pooled.append(_pool_running())
        assert any(pooled) == (prefetch > 0)
        assert len(yielded) == self.BAD_CHUNK
        assert raised.value.chunk_index == local
        assert store.chunks_read == self.BAD_CHUNK


class TestWarmStoreCache:
    def test_warms_and_counts(self, store):
        cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        store.chunk_cache = cache
        warmed = warm_store_cache(store)
        assert warmed == store.n_chunks
        assert store.chunks_prefetched == store.n_chunks
        assert cache.prefetch_issued == store.n_chunks
        assert warm_store_cache(store) == 0  # already warm
        # the warmed entries serve the sweep: no further reads
        list(store.iter_chunks(prefetch=0))
        assert cache.prefetch_used == store.n_chunks

    def test_no_cache_is_noop(self, store):
        assert store.chunk_cache is None
        assert warm_store_cache(store) == 0
        assert store.chunks_prefetched == 0


class TestPlanStats:
    def test_io_seconds_and_depth_recorded(self, store):
        built = plan({"mean": expr.mean(expr.source(store))})
        built.execute(prefetch=4)
        stats = built.last_execution
        assert stats["prefetch_depth"] == 4
        assert 0.0 <= stats["io_seconds"]

    def test_depth_zero_recorded(self, store):
        built = plan({"mean": expr.mean(expr.source(store))})
        built.execute(prefetch=0)
        assert built.last_execution["prefetch_depth"] == 0

    def test_tiny_store_reports_the_serial_depth_it_ran(self, tmp_path, settings):
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            smooth_field((24, 20), seed=3), tmp_path / "tiny.pblzc"
        ) as tiny:
            assert tiny.n_chunks == 3
            built = plan({"mean": expr.mean(expr.source(tiny))})
            built.execute()  # auto readahead: too few chunks to pipeline
            assert tiny.chunks_prefetched == 0
            assert built.last_execution["prefetch_depth"] == 0

    def test_decode_free_plan_reports_no_depth(self, tmp_path, settings):
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((64, 20), seed=1), settings,
                           slab_rows=8).close()
        with ShardedStore(path) as store:
            built = plan({"mean": expr.mean(expr.source(store))})
            built.execute(prefetch=4)
            assert built.last_execution["incremental_groups"] == 1
            assert store.chunks_read == 0
            assert built.last_execution["prefetch_depth"] == 0

    def test_readahead_sweeps_counts_pool_engagements(self, tmp_path, settings):
        compressor = ChunkedCompressor(settings, slab_rows=8)
        with compressor.compress_to_store(
            smooth_field((256, 20), seed=12), tmp_path / "a.pblzc"
        ) as store_a, compressor.compress_to_store(
            smooth_field((256, 20), seed=13), tmp_path / "b.pblzc"
        ) as store_b:
            x, y = expr.source(store_a), expr.source(store_b)
            built = plan({"mean": expr.mean(x), "dot": expr.dot(x, y)})
            with inject(*_slow_reads()):
                slow = built.execute(prefetch=4)
            # in a lockstep sweep one store's consume time includes the other
            # store's inline reads, so the two may hand off a span apart;
            # with four spans each, both do
            assert built.last_execution["readahead_sweeps"] == 2
            assert built.execute(prefetch=0) == slow
            assert built.last_execution["readahead_sweeps"] == 0

    def test_cached_sweeps_never_read_ahead(self, store):
        store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        built = plan({"mean": expr.mean(expr.source(store))})
        built.execute(prefetch=0)  # fill the cache
        with inject(*_slow_reads()):
            built.execute(prefetch=4)
        assert built.last_execution["readahead_sweeps"] == 0
        assert built.last_execution["prefetch_depth"] == 4

    def test_negative_depth_rejected_before_any_sweep(self, store):
        built = plan({"mean": expr.mean(expr.source(store))})
        with pytest.raises(ValueError):
            built.execute(prefetch=-1)
        assert store.chunks_read == 0
