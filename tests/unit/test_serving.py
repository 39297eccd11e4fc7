"""Unit tests for the serving building blocks: cache, catalog, metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import CompressionSettings
from repro.serving import ChunkCache, ServiceMetrics, StoreCatalog
from repro.serving.cache import _estimate_nbytes
from repro.streaming import ChunkedCompressor

from tests.conftest import smooth_field


@pytest.fixture
def store_path(tmp_path):
    """One small pyblaz store on disk."""
    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = ChunkedCompressor(settings, slab_rows=16)
    store = compressor.compress_to_store(smooth_field((48, 12), seed=3), tmp_path / "x.rcs")
    store.close()
    return tmp_path / "x.rcs"


class TestChunkCache:
    def test_get_put_lru_and_counters(self):
        cache = ChunkCache(max_bytes=10_000)
        payload = np.zeros(100, dtype=np.float64)  # 800 bytes

        class Rec:
            def __init__(self):
                self.data = payload

        assert cache.get(("s", 0)) is None  # miss
        record = Rec()
        cache.put(("s", 0), record)
        assert cache.get(("s", 0)) is record  # hit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.current_bytes == 800

    def test_byte_budget_evicts_lru(self):
        cache = ChunkCache(max_bytes=2_000)

        class Rec:
            def __init__(self):
                self.data = np.zeros(100, dtype=np.float64)  # 800 bytes

        records = [Rec() for _ in range(4)]
        for i, record in enumerate(records):
            cache.put(("s", i), record)
        # 4 * 800 = 3200 > 2000: the two oldest are gone
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.get(("s", 0)) is None
        assert cache.get(("s", 3)) is records[3]
        assert cache.current_bytes <= 2_000

    def test_touch_refreshes_recency(self):
        cache = ChunkCache(max_bytes=1_700)  # fits two 800-byte records

        class Rec:
            def __init__(self):
                self.data = np.zeros(100, dtype=np.float64)

        first, second, third = Rec(), Rec(), Rec()
        cache.put(("s", 0), first)
        cache.put(("s", 1), second)
        cache.get(("s", 0))  # 0 is now most recent
        cache.put(("s", 2), third)  # evicts 1, not 0
        assert cache.get(("s", 0)) is first
        assert cache.get(("s", 1)) is None

    def test_oversized_record_not_cached(self):
        cache = ChunkCache(max_bytes=100)

        class Big:
            def __init__(self):
                self.data = np.zeros(1000, dtype=np.float64)

        cache.put(("s", 0), Big())
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_invalidate_by_store_and_all(self):
        cache = ChunkCache()

        class Rec:
            def __init__(self):
                self.data = b"x" * 10

        for name in ("a", "b"):
            for i in range(3):
                cache.put((name, i), Rec())
        assert cache.invalidate("a") == 3
        assert len(cache) == 3
        assert cache.get(("a", 0)) is None
        assert cache.get(("b", 0)) is not None
        assert cache.invalidate() == 3
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_estimate_counts_arrays_and_bytes(self):
        class Rec:
            def __init__(self):
                self.maxima = np.zeros((2, 3), dtype=np.float32)  # 24 bytes
                self.payload = b"abcdef"  # 6 bytes
                self.note = "ignored"  # strings cost nothing

        assert _estimate_nbytes(Rec()) == 30
        assert _estimate_nbytes(object()) == 1  # floor

    def test_snapshot_shape(self):
        cache = ChunkCache(max_bytes=123)
        snap = cache.snapshot()
        assert snap == {"entries": 0, "bytes": 0, "max_bytes": 123, "hits": 0,
                        "misses": 0, "evictions": 0, "hit_rate": 0.0,
                        "prefetch_issued": 0, "prefetch_used": 0}

    def test_store_reads_populate_and_hit_cache(self, store_path):
        from repro.streaming import CompressedStore

        cache = ChunkCache()
        with CompressedStore(store_path) as store:
            store.chunk_cache = cache
            first = [store.read_chunk(i) for i in range(store.n_chunks)]
            assert cache.misses == store.n_chunks and cache.hits == 0
            second = [store.read_chunk(i) for i in range(store.n_chunks)]
            assert cache.hits == store.n_chunks
            for x, y in zip(first, second):
                assert x is y  # cached object, no re-decode
            # logical read counter still counts every read
            assert store.chunks_read == 2 * store.n_chunks


class TestStoreCatalog:
    def test_lazy_open_shared_handle_and_close(self, store_path):
        catalog = StoreCatalog({"x": store_path})
        assert "x" in catalog and len(catalog) == 1
        assert list(catalog) == ["x"]
        assert catalog.describe() == {"x": {"path": str(store_path)}}  # cold: path only
        store = catalog.get("x")
        assert catalog.get("x") is store  # one shared handle
        described = catalog.describe()["x"]
        assert described["shape"] == [48, 12]
        assert described["codec"] == "pyblaz"
        catalog.close()
        assert store._handle.closed  # owned store really closed

    def test_unknown_name_lists_catalog(self, store_path):
        catalog = StoreCatalog({"x": store_path, "y": store_path})
        with pytest.raises(KeyError, match="unknown store 'z'.*x, y"):
            catalog.get("z")

    def test_adopted_store_not_closed(self, store_path):
        from repro.streaming import CompressedStore

        with CompressedStore(store_path) as store:
            with StoreCatalog({"x": store}) as catalog:
                assert catalog.get("x") is store
            assert not store._handle.closed  # catalog did not close it

    def test_cache_attached_to_opened_stores(self, store_path):
        cache = ChunkCache()
        with StoreCatalog({"x": store_path}, cache=cache) as catalog:
            assert catalog.get("x").chunk_cache is cache

    def test_rejects_empty_and_bad_names(self, store_path):
        with pytest.raises(ValueError, match="at least one"):
            StoreCatalog({})
        with pytest.raises(ValueError, match="non-empty strings"):
            StoreCatalog({"": store_path})


class TestCatalogRefresh:
    """``StoreCatalog.refresh``: the hook for stores repaired in place.

    Regression for the cache-coherence gap: a store rewritten at its existing
    path left the shared handle mapping the old chunk table and the
    :class:`ChunkCache` holding chunks decoded from the old bytes, so queries
    kept answering from the pre-repair data until the process restarted.
    """

    def _rewrite_in_place(self, store_path, seed: int) -> np.ndarray:
        """Atomically replace the store's bytes with a different field."""
        settings = CompressionSettings(block_shape=(4, 4),
                                       float_format="float32",
                                       index_dtype="int16")
        field = smooth_field((48, 12), seed=seed)
        compressor = ChunkedCompressor(settings, slab_rows=16)
        compressor.compress_to_store(field, store_path).close()
        return field

    def test_refresh_invalidates_cache_and_reopens(self, store_path):
        from repro.streaming import CompressedStore

        cache = ChunkCache()
        with StoreCatalog({"x": store_path}, cache=cache) as catalog:
            old = catalog.get("x")
            stale_chunks = [old.read_chunk(i) for i in range(old.n_chunks)]
            assert len(cache) == old.n_chunks

            rewritten = self._rewrite_in_place(store_path, seed=99)
            # without refresh the cache still serves the pre-rewrite decodes
            assert catalog.get("x") is old
            assert catalog.get("x").read_chunk(0) is stale_chunks[0]

            catalog.refresh("x")
            assert cache.get((str(store_path), 0)) is None  # entries dropped
            fresh = catalog.get("x")
            assert fresh is not old  # a new handle over the new bytes
            assert isinstance(fresh, CompressedStore)
            assert np.allclose(fresh.load(), rewritten, atol=0.05)
            assert fresh.read_chunk(0) is not stale_chunks[0]

    def test_refresh_unknown_name_raises(self, store_path):
        with StoreCatalog({"x": store_path}) as catalog:
            with pytest.raises(KeyError, match="unknown store 'z'"):
                catalog.refresh("z")

    def test_refresh_adopted_store_forgotten_not_closed(self, store_path):
        from repro.streaming import CompressedStore

        with CompressedStore(store_path) as store:
            with StoreCatalog({"x": store}) as catalog:
                catalog.refresh("x")
                assert not store._handle.closed  # adopted: only forgotten
                assert catalog.get("x") is not store

    def test_refresh_sharded_store_invalidates_per_shard(self, tmp_path):
        from repro.streaming import ShardedStore, append_shard, init_sharded_store

        settings = CompressionSettings(block_shape=(4, 4),
                                       float_format="float32",
                                       index_dtype="int16")
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((16, 8), seed=7), settings,
                           slab_rows=8).close()
        append_shard(path, smooth_field((8, 8), seed=8), slab_rows=8).close()

        cache = ChunkCache()
        unrelated = object()
        cache.put(("elsewhere", 0), unrelated)
        with StoreCatalog({"g": path}, cache=cache) as catalog:
            store = catalog.get("g")
            assert isinstance(store, ShardedStore)
            store.load()  # populate the cache under every shard's path
            shard_keys = [(p, 0) for p in store.shard_paths()]
            assert all(cache.get(key) is not None for key in shard_keys)

            catalog.refresh("g")
            assert all(cache.get(key) is None for key in shard_keys)
            assert cache.get(("elsewhere", 0)) is unrelated  # others untouched
            assert isinstance(catalog.get("g"), ShardedStore)

    def test_refresh_cold_sharded_store_enumerates_manifest(self, tmp_path):
        from repro.streaming import init_sharded_store

        settings = CompressionSettings(block_shape=(4, 4),
                                       float_format="float32",
                                       index_dtype="int16")
        path = tmp_path / "cold.shards"
        init_sharded_store(path, smooth_field((16, 8), seed=9), settings,
                           slab_rows=8).close()
        cache = ChunkCache()
        cache.put((str(path / "shard-000000.pblzc"), 0), object())
        with StoreCatalog({"g": path}, cache=cache) as catalog:
            catalog.refresh("g")  # never opened through this catalog
            assert cache.get((str(path / "shard-000000.pblzc"), 0)) is None


class TestServiceMetrics:
    def test_counters_and_snapshot(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            metrics.record_received()
        metrics.record_failed()
        metrics.record_served(0.010)
        metrics.record_served(0.030)
        metrics.record_batch(n_requests=2, n_plans=1, seconds=0.04)
        snap = metrics.snapshot()
        assert snap["requests"] == {"received": 3, "served": 2, "failed": 1}
        assert snap["plans"]["executed"] == 1
        assert snap["plans"]["seconds_total"] == 0.04
        assert snap["plans"]["batches"] == 1
        assert snap["plans"]["max_batch"] == 2
        assert snap["plans"]["mean_batch"] == 2.0
        assert snap["latency_seconds"]["count"] == 2
        assert snap["latency_seconds"]["p50"] == 0.010
        assert snap["latency_seconds"]["p99"] == 0.030
        assert "cache" not in snap  # no cache attached

    def test_plans_counted_without_a_backend_split(self):
        metrics = ServiceMetrics()
        metrics.record_batch(n_requests=2, n_plans=1, seconds=0.01)
        metrics.record_batch(n_requests=1, n_plans=3, seconds=0.01)
        plans = metrics.snapshot()["plans"]
        assert plans["executed"] == 4 and "by_backend" not in plans
        assert "passes_total" not in plans  # every plan is one sweep
        with pytest.raises(TypeError):
            metrics.record_batch(n_requests=1, n_plans=1, seconds=0.01,
                                 backend="gemm")
        with pytest.raises(TypeError):
            metrics.record_batch(n_requests=1, n_plans=1, passes=1, seconds=0.01)

    def test_latency_quantiles_nearest_rank(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):  # 1ms .. 100ms
            metrics.record_served(value / 1000.0)
        latency = metrics.snapshot()["latency_seconds"]
        assert latency["p50"] == pytest.approx(0.050, abs=0.002)
        assert latency["p99"] == pytest.approx(0.099, abs=0.002)
        assert latency["mean"] == pytest.approx(0.0505)

    def test_latency_window_bounded(self):
        metrics = ServiceMetrics(latency_window=10)
        for value in range(100):
            metrics.record_served(float(value))
        latency = metrics.snapshot()["latency_seconds"]
        assert latency["count"] == 10
        assert latency["p50"] >= 90.0  # only the newest survive

    def test_empty_latency_is_none(self):
        latency = ServiceMetrics().snapshot()["latency_seconds"]
        assert latency["p50"] is None and latency["p99"] is None

    def test_cache_snapshot_included(self, store_path):
        cache = ChunkCache()
        with StoreCatalog({"x": store_path}, cache=cache) as catalog:
            snap = ServiceMetrics(catalog=catalog).snapshot()
        assert snap["cache"]["max_bytes"] == cache.max_bytes

    def test_cache_comes_from_the_catalog(self, store_path):
        with pytest.raises(TypeError, match="cache"):
            ServiceMetrics(cache=ChunkCache())
        with StoreCatalog({"x": store_path}) as catalog:
            assert "cache" not in ServiceMetrics(catalog=catalog).snapshot()


class TestNoWarmPath:
    """Plan sweeps are the only code that fills the chunk cache."""

    class _Rec:
        def __init__(self):
            self.data = np.zeros(100, dtype=np.float64)  # 800 bytes

    def test_put_takes_no_prefetched_flag(self):
        cache = ChunkCache(max_bytes=10_000)
        with pytest.raises(TypeError, match="prefetched"):
            cache.put(("s", 0), self._Rec(), prefetched=True)
        assert len(cache) == 0

    def test_snapshot_prefetch_keys_stay_zero(self):
        cache = ChunkCache(max_bytes=1_700)  # fits two 800-byte records
        for index in range(3):
            cache.put(("s", index), self._Rec())
        cache.get(("s", 2))
        cache.invalidate()
        snap = cache.snapshot()
        assert (snap["hits"], snap["evictions"]) == (1, 1)
        assert (snap["prefetch_issued"], snap["prefetch_used"]) == (0, 0)
        assert "prefetch_wasted" not in snap

    def test_cache_has_no_silent_probe(self):
        cache = ChunkCache(max_bytes=10_000)
        cache.put(("s", 0), self._Rec())
        with pytest.raises(TypeError):
            ("s", 0) in cache  # noqa: B015 - the probe itself must fail

    def test_catalog_sweep_fills_the_cache_through_shared_handle(self, store_path):
        cache = ChunkCache()
        with StoreCatalog({"x": store_path}, cache=cache) as catalog:
            assert not hasattr(catalog, "prefetch")
            store = catalog.get("x")
            list(store.iter_chunks())
            assert (cache.misses, cache.hits) == (store.n_chunks, 0)
            preads = store.preads
            list(catalog.get("x").iter_chunks())
            assert store.preads == preads  # served from the cache
            assert (cache.misses, cache.hits) == (store.n_chunks, store.n_chunks)

    def test_metrics_have_no_prefetch_section(self, store_path):
        with StoreCatalog({"x": store_path}, cache=ChunkCache()) as catalog:
            metrics = ServiceMetrics(catalog=catalog)
            assert not hasattr(metrics, "record_prefetch")
            assert "prefetch" not in metrics.snapshot()


class TestQueryServiceOptions:
    def test_workers_option_is_gone(self, store_path):
        """Plans run on the one serial sweep; there is no process-pool rung."""
        from repro.serving import QueryService

        with StoreCatalog({"x": store_path}) as catalog:
            with pytest.raises(TypeError, match="workers"):
                QueryService(catalog, workers=2)

    def test_prefetch_option_is_gone(self, store_path):
        """The service has no warm path, so no setting for one."""
        from repro.serving import QueryService

        with StoreCatalog({"x": store_path}, cache=ChunkCache()) as catalog:
            with pytest.raises(TypeError, match="prefetch"):
                QueryService(catalog, prefetch=0)

    def test_metrics_option_is_gone(self, store_path):
        """The service always builds its own metrics over its catalog's cache."""
        from repro.serving import QueryService

        with StoreCatalog({"x": store_path}, cache=ChunkCache()) as catalog:
            with pytest.raises(TypeError, match="metrics"):
                QueryService(catalog, metrics=ServiceMetrics())
            service = QueryService(catalog)
            assert service.metrics.catalog is catalog

    @pytest.mark.parametrize("option, value", [
        ("tick", -1.0), ("tick", math.inf), ("tick", math.nan),
        ("deadline", 0.0), ("deadline", -1.0), ("deadline", math.inf),
        ("deadline", math.nan),
    ])
    def test_non_finite_or_negative_timing_rejected(self, store_path, option,
                                                   value):
        """A nan deadline would time every request out, an infinite tick
        would hang every batch: both are rejected at construction."""
        from repro.serving import QueryService

        with StoreCatalog({"x": store_path}) as catalog:
            with pytest.raises(ValueError, match=option):
                QueryService(catalog, **{option: value})
            QueryService(catalog, tick=0.0, deadline=0.5)  # the edges are fine
