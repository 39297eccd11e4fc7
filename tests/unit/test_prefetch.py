"""Unit tests for the pipelined chunk I/O layer (repro.streaming.prefetch).

The invariant under test everywhere: a prefetched sweep yields the same
chunks, in the same order, decoding to the same bytes, with the same
``chunks_read`` accounting as the serial ``read_chunk`` loop — only the
physical read pattern (``preads``) and the overlap change.  The reader takes
no setting; ``Plan.execute(prefetch=False)`` is the one switch back to the
serial loop.

Sweeps read spans inline until a read blocks, so the tests that exercise
the readahead pool slow every record read down with a ``latency`` fault
rule and check that a ``repro-prefetch`` thread really ran.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.streaming
from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr, plan
from repro.streaming import ops as stream_ops
from repro.streaming import (
    ChunkedCompressor,
    ChunkPrefetcher,
    CompressedStore,
    ShardedStore,
    append_shard,
    coalesce_spans,
    init_sharded_store,
    load_region,
)
from repro.reliability import FaultRule, IntegrityError, inject
from repro.serving import ChunkCache
from repro.streaming.prefetch import (DEFAULT_PREFETCH_WORKERS, DEFAULT_SPAN_CHUNKS,
                                     READAHEAD_SPANS)
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


def _serial_chunks(store):
    """The reference loop: one ``read_chunk`` per chunk, in order."""
    return (store.read_chunk(index) for index in range(store.n_chunks))


def _decoded(store, chunks):
    """Each chunk's decoded bytes, in order."""
    return [store.decompress_chunk(chunk).tobytes() for chunk in chunks]


def _chunk_bytes(store):
    """Every chunk's decoded bytes, in order, via ``iter_chunks``."""
    return _decoded(store, store.iter_chunks())


def _serial_bytes(store):
    """Every chunk's decoded bytes, in order, via the ``read_chunk`` loop."""
    return _decoded(store, _serial_chunks(store))


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


class TestNoReadaheadSetting:
    """The readahead window is a constant: no surface takes a depth."""

    def test_window_is_two_spans_per_worker(self):
        assert READAHEAD_SPANS == 2 * DEFAULT_PREFETCH_WORKERS == 4
        assert not hasattr(repro.streaming, "resolve_depth")

    def test_depth_keyword_is_gone(self, store):
        with pytest.raises(TypeError, match="depth"):
            ChunkPrefetcher(store, depth=2)
        with pytest.raises(TypeError, match="prefetch"):
            store.iter_chunks(prefetch=0)

    def test_prefetch_keyword_is_gone_from_ops_and_evaluate(self, tmp_path, store):
        with pytest.raises(TypeError, match="prefetch"):
            stream_ops.mean(store, prefetch=0)
        with pytest.raises(TypeError, match="prefetch"):
            stream_ops.add(store, store, tmp_path / "sum.pblzc", prefetch=0)
        with pytest.raises(TypeError, match="prefetch"):
            engine.evaluate(expr.mean(expr.source(store)), prefetch=0)
        assert not (tmp_path / "sum.pblzc").exists()
        assert store.chunks_read == 0


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
    def test_iter_chunks_identical_to_read_chunk_loop(self, store):
        serial = _serial_bytes(store)
        assert _chunk_bytes(store) == serial
        with inject(*_slow_reads()):
            assert _chunk_bytes(store) == serial  # with the pool engaged

    def test_prefetcher_reads_fewer_times(self, tmp_path, settings, field):
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "serial.pblzc"
        ) as serial_store:
            list(_serial_chunks(serial_store))
            serial_preads = serial_store.preads
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "piped.pblzc"
        ) as piped_store:
            list(piped_store.iter_chunks())
            piped_preads = piped_store.preads
        assert piped_preads < serial_preads

    def test_plan_values_identical(self, store):
        x = expr.source(store)
        outputs = {"mean": expr.mean(x), "l2": expr.l2_norm(x),
                   "var": expr.variance(x)}
        serial = plan(outputs).execute(prefetch=False)
        piped = plan(outputs).execute()
        assert serial == piped  # exact equality: bit-identical folds

    def test_aligned_multi_source(self, tmp_path, settings, field):
        other = smooth_field((96, 20), seed=12)
        with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, tmp_path / "a.pblzc"
        ) as store_a, ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            other, tmp_path / "b.pblzc"
        ) as store_b:
            def sweep(pairs):
                return [
                    (store_a.decompress_chunk(a).tobytes(),
                     store_b.decompress_chunk(b).tobytes())
                    for a, b in pairs
                ]

            serial = sweep(zip(_serial_chunks(store_a), _serial_chunks(store_b)))
            piped = sweep(aligned_chunks((store_a, store_b)))
        assert piped == serial


class TestAccounting:
    def test_prefetched_and_read_match_on_full_sweep(self, store):
        list(store.iter_chunks())
        assert store.chunks_read == store.n_chunks
        assert store.chunks_prefetched == store.n_chunks

    def test_serial_plan_sweep_prefetches_nothing(self, store):
        assert store.settings is not None  # its lazy read of chunk 0, done first
        opened_with = store.preads
        plan({"mean": expr.mean(expr.source(store))}).execute(prefetch=False)
        assert store.chunks_read == store.n_chunks
        assert store.chunks_prefetched == 0
        assert store.preads - opened_with == store.n_chunks  # one per chunk

    def test_aborted_pipeline_prefetched_exceeds_read(self, store):
        iterator = store.iter_chunks()
        next(iterator)
        iterator.close()
        assert store.chunks_read == 1
        assert store.chunks_prefetched > store.chunks_read

    def test_cache_hit_counters_match_serial(self, tmp_path, settings, field):
        def sweep(name, reader):
            cache = ChunkCache(max_bytes=64 * 1024 * 1024)
            with ChunkedCompressor(settings, slab_rows=8).compress_to_store(
                field, tmp_path / name
            ) as opened:
                opened.chunk_cache = cache
                list(reader(opened))
                list(reader(opened))
            return cache.hits, cache.misses

        assert (sweep("piped.pblzc", lambda opened: opened.iter_chunks())
                == sweep("serial.pblzc", _serial_chunks))


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
            iterator = store.iter_chunks()
            # the first span is read inline; its slow read hands off the rest
            for _ in range(DEFAULT_SPAN_CHUNKS + 1):
                next(iterator)
            assert _pool_running()
            iterator.close()
        assert threading.active_count() == baseline

    def test_garbage_collected_prefetcher_shuts_down(self, store):
        baseline = threading.active_count()
        with inject(*_slow_reads()):
            prefetcher = ChunkPrefetcher(store)
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
            _, pooled = _sweep_watching_pool(store.iter_chunks())
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
        expected = _serial_bytes(store)
        # every read would block, but no span reads the file
        with inject(*_slow_reads()) as faults:
            prefetcher = ChunkPrefetcher(store)
            chunks, pooled = _sweep_watching_pool(prefetcher)
        assert [store.decompress_chunk(chunk).tobytes() for chunk in chunks] == expected
        assert not prefetcher.readahead and not any(pooled)
        assert faults.fired["latency"] == 0
        assert cache.hits == store.n_chunks

    @staticmethod
    def _consume(chunks):
        # fold-like work per chunk, well above a page-cache read and well
        # below a slow one: a fast span's fetch keeps up, a slow one's not
        for chunk in chunks:
            time.sleep(SLOW_READ_SECONDS / 5)
            yield chunk

    def test_slow_reads_from_chunk_k_hand_off_mid_sweep(self, tmp_path, settings,
                                                         long_store):
        first_slow = DEFAULT_SPAN_CHUNKS  # the second span onward
        long_store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        with inject(*_slow_reads(*range(first_slow, long_store.n_chunks))):
            prefetcher = ChunkPrefetcher(long_store)
            chunks, pooled = _sweep_watching_pool(self._consume(prefetcher))
        cache = long_store.chunk_cache
        counters = (long_store.chunks_read, cache.hits, cache.misses)
        # the first span kept up, so the store is warm: the second and third
        # (two slow spans in a row) are read inline, the last by the pool
        assert prefetcher.readahead
        assert pooled == [False] * (3 * DEFAULT_SPAN_CHUNKS) + [True] * DEFAULT_SPAN_CHUNKS
        assert long_store.chunks_prefetched == long_store.n_chunks

        with CompressedStore(long_store.path) as serial_store:
            cache = serial_store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
            serial = _serial_bytes(serial_store)
            assert counters == (serial_store.chunks_read, cache.hits, cache.misses)
        assert [long_store.decompress_chunk(chunk).tobytes()
                for chunk in chunks] == serial

    def test_one_slow_span_on_a_warm_store_starts_no_pool(self, long_store):
        slow_span = range(DEFAULT_SPAN_CHUNKS, 2 * DEFAULT_SPAN_CHUNKS)
        expected = _serial_bytes(long_store)
        with inject(*_slow_reads(*slow_span)) as faults:
            prefetcher = ChunkPrefetcher(long_store)
            chunks, pooled = _sweep_watching_pool(self._consume(prefetcher))
        assert faults.fired["latency"] == DEFAULT_SPAN_CHUNKS
        assert not prefetcher.readahead and not any(pooled)
        assert _decoded(long_store, chunks) == expected

    def test_bad_record_after_the_hand_off_raises_at_its_index(self, long_store):
        bad = 2 * DEFAULT_SPAN_CHUNKS + 3  # in the third span, read by the pool
        rules = _slow_reads() + [FaultRule("bit_flip", chunk_index=bad, times=10**6)]
        yielded, pooled = [], []
        with inject(*rules):
            with pytest.raises(IntegrityError) as raised:
                for chunk in long_store.iter_chunks():
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
            serial = _serial_bytes(store)
        with ShardedStore(sharded_path) as store, inject(*_slow_reads()):
            # the first shard's span is read inline, the second's by the pool
            chunks, pooled = _sweep_watching_pool(store.iter_chunks())
            piped = [store.decompress_chunk(chunk).tobytes() for chunk in chunks]
            assert store.chunks_prefetched == store.n_chunks
        assert any(pooled)
        assert piped == serial


class TestErrorPosition:
    """A persistent bad record raises at its own position in request order:
    every good chunk before it is yielded first, by the reference loop and
    the reader, on either layout.  Every read is slowed so the bad record,
    in the second span, is fetched by the reader's readahead pool."""

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

    @pytest.mark.parametrize("reader", ["read_chunk", "prefetcher"])
    def test_good_chunks_before_the_bad_record_are_yielded(self, bad_store, reader):
        store, path, local = bad_store
        assert store.n_chunks == 16
        rule = FaultRule("bit_flip", path=path, chunk_index=local, times=10**6)
        yielded, pooled = [], []
        with inject(rule, *_slow_reads(), seed=0):
            with pytest.raises(IntegrityError) as raised:
                chunks = (_serial_chunks(store) if reader == "read_chunk"
                          else store.iter_chunks())
                for chunk in chunks:
                    yielded.append(chunk)
                    pooled.append(_pool_running())
        assert any(pooled) == (reader == "prefetcher")
        assert len(yielded) == self.BAD_CHUNK
        assert raised.value.chunk_index == local
        assert store.chunks_read == self.BAD_CHUNK


class TestSweepFillsCache:
    """The sweep's reader is the one code path that fills the chunk cache."""

    def test_cold_sweep_decodes_each_chunk_once_then_hits(self, store):
        cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        store.chunk_cache = cache
        list(store.iter_chunks())
        assert (cache.misses, cache.hits) == (store.n_chunks, 0)
        assert len(cache) == store.n_chunks
        prefetched, preads = store.chunks_prefetched, store.preads
        list(store.iter_chunks())
        assert (cache.misses, cache.hits) == (store.n_chunks, store.n_chunks)
        assert (store.chunks_prefetched, store.preads) == (prefetched, preads)

    def test_warm_store_cache_is_gone(self):
        assert not hasattr(repro.streaming, "warm_store_cache")
        assert "warm_store_cache" not in repro.streaming.__all__


class TestPlanStats:
    def test_io_seconds_recorded(self, store):
        built = plan({"mean": expr.mean(expr.source(store))})
        built.execute()
        stats = built.last_execution
        assert set(stats) == {"interpreted_groups", "incremental_groups",
                              "io_seconds", "readahead_sweeps"}
        assert 0.0 <= stats["io_seconds"]
        assert store.chunks_prefetched == store.n_chunks  # through the reader

    @pytest.mark.parametrize("serial", [False, 0])
    def test_serial_switch_bypasses_the_reader(self, store, serial):
        built = plan({"mean": expr.mean(expr.source(store))})
        assert built.execute(prefetch=serial) == built.execute(prefetch=True)
        prefetched = store.chunks_prefetched
        built.execute(prefetch=serial)
        assert store.chunks_prefetched == prefetched
        assert built.last_execution["interpreted_groups"] == 1

    def test_decode_free_plan_prefetches_nothing(self, tmp_path, settings):
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((64, 20), seed=1), settings,
                           slab_rows=8).close()
        with ShardedStore(path) as store:
            built = plan({"mean": expr.mean(expr.source(store))})
            built.execute()
            assert built.last_execution["incremental_groups"] == 1
            assert store.chunks_read == 0
            assert store.chunks_prefetched == 0

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
                slow = built.execute()
            # in a lockstep sweep one store's consume time includes the other
            # store's inline reads, so the two may hand off a span apart;
            # with four spans each, both do
            assert built.last_execution["readahead_sweeps"] == 2
            assert built.execute(prefetch=False) == slow
            assert built.last_execution["readahead_sweeps"] == 0

    def test_cached_sweeps_never_read_ahead(self, store):
        store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        built = plan({"mean": expr.mean(expr.source(store))})
        built.execute(prefetch=False)  # fill the cache
        with inject(*_slow_reads()):
            built.execute()
        assert built.last_execution["readahead_sweeps"] == 0

    @pytest.mark.parametrize("setting", [None, 4, -1, "auto"])
    def test_non_switch_values_rejected_before_any_sweep(self, store, setting):
        built = plan({"mean": expr.mean(expr.source(store))})
        with pytest.raises(ValueError, match="prefetch"):
            built.execute(prefetch=setting)
        assert store.chunks_read == 0 and store.preads == 0


class TestTinyStores:
    """Stores of 1-3 chunks read through the reader like any other: the
    reference loop's bits and counters, one pread per span."""

    @pytest.fixture(params=[1, 2, 3])
    def n_chunks(self, request):
        return request.param

    @pytest.fixture(params=["single", "sharded"])
    def tiny(self, request, tmp_path, settings, n_chunks):
        """``(opener, path, spans)``: a store of ``n_chunks`` 8-row chunks.

        The sharded layout puts the first chunk in one shard and the rest in
        a second, so its sweep reads one span per shard file.
        """
        rows = smooth_field((8 * n_chunks, 20), seed=n_chunks)
        if request.param == "single":
            path = tmp_path / "tiny.pblzc"
            ChunkedCompressor(settings, slab_rows=8).compress_to_store(
                rows, path).close()
            return CompressedStore, path, 1
        path = tmp_path / "tiny.shards"
        init_sharded_store(path, rows[:8], settings, slab_rows=8).close()
        if n_chunks > 1:
            append_shard(path, rows[8:], slab_rows=8).close()
        return ShardedStore, path, min(n_chunks, 2)

    @staticmethod
    def _sweep_twice(opener, path, reader):
        """Decoded bytes and ``(chunks_read, hits, misses, preads)`` of two
        cached sweeps on a fresh handle; ``preads`` counts the first sweep's
        reads, shard header reads at a sharded store's lazy open included."""
        with opener(path) as store:
            cache = store.chunk_cache = ChunkCache(max_bytes=64 * 1024 * 1024)
            opened_with = store.preads
            first = _decoded(store, reader(store))
            preads = store.preads - opened_with
            assert _decoded(store, reader(store)) == first
            return first, (store.chunks_read, cache.hits, cache.misses, preads)

    def test_reader_matches_the_read_chunk_loop(self, tiny, n_chunks):
        opener, path, spans = tiny
        serial, serial_counters = self._sweep_twice(opener, path, _serial_chunks)
        piped, piped_counters = self._sweep_twice(
            opener, path, lambda store: store.iter_chunks())
        assert piped == serial
        assert serial_counters[:3] == (2 * n_chunks, n_chunks, n_chunks)
        # the same header reads; one record read per span instead of per chunk
        assert piped_counters == serial_counters[:3] + (
            serial_counters[3] - n_chunks + spans,)

    def test_plan_reads_through_the_reader(self, tiny, n_chunks):
        opener, path, spans = tiny
        runs = {}
        for prefetch in (True, False):
            with opener(path) as store:
                # cosine's product term is one shard partials do not keep,
                # so even the sharded layout sweeps its chunks
                x = expr.source(store)
                built = plan({"cos": expr.cosine_similarity(x, expr.negate(x))})
                opened_with = store.preads
                value = built.execute(prefetch=prefetch)
                runs[prefetch] = (value, store.chunks_prefetched,
                                  store.preads - opened_with)
        piped, prefetched, piped_preads = runs[True]
        serial, serial_prefetched, serial_preads = runs[False]
        assert piped == serial
        assert (prefetched, serial_prefetched) == (n_chunks, 0)
        assert serial_preads - piped_preads == n_chunks - spans
