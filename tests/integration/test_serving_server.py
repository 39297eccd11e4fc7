"""Integration tests: the query service over real sockets.

The headline claim under test is ISSUE PR 6's acceptance bar: N concurrent
requests over shared stores execute as **one fused plan per scheduler tick**
(observable through the stats endpoint's plan counters) and return results
bit-identical to evaluating each request locally.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import CompressionSettings, engine
from repro.engine import expr
from repro.serving import (
    ChunkCache,
    QueryClient,
    ServerError,
    StoreCatalog,
    ThreadedQueryService,
)
from repro.streaming import ChunkedCompressor

from tests.conftest import smooth_field


@pytest.fixture
def catalog(tmp_path):
    """Two aligned pyblaz stores under the names ``a`` and ``b``."""
    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = ChunkedCompressor(settings, slab_rows=16)
    for name, seed in (("a", 5), ("b", 6)):
        store = compressor.compress_to_store(smooth_field((48, 12), seed=seed),
                                             tmp_path / f"{name}.rcs")
        store.close()
    with StoreCatalog({"a": tmp_path / "a.rcs", "b": tmp_path / "b.rcs"},
                      cache=ChunkCache()) as opened:
        yield opened


def local_reference(catalog, outputs):
    """Evaluate the same request locally against the catalog's open stores."""
    resolved = {
        name: expr.Reduction(
            node.op,
            tuple(expr.source(catalog.get(operand.wrapped))
                  for operand in node.operands),
            node.options,
        )
        for name, node in outputs.items()
    }
    return engine.evaluate(resolved)


class TestSingleClient:
    def test_round_trip_bit_identical(self, catalog):
        outputs = {
            "m": expr.mean(expr.source("a")),
            "v": expr.variance(expr.source("a")),
            "d": expr.dot(expr.source("a"), expr.source("b")),
            "c": expr.cosine_similarity(expr.source("a"), expr.source("b")),
        }
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                full = client.evaluate_full(outputs)
        local = local_reference(catalog, outputs)
        assert set(full["results"]) == set(outputs)
        for name, value in full["results"].items():
            assert value == local[name], name  # bitwise, not approx
        assert full["batch"]["plans"] == 1
        assert full["batch"]["coalesced"] is True
        assert full["seconds"] > 0

    def test_stats_and_catalog_endpoints(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                client.evaluate({"m": expr.mean(expr.source("a"))})
                stats = client.stats()
                listing = client.catalog()
        assert stats["requests"]["served"] == 1
        assert stats["plans"]["executed"] == 1
        assert stats["latency_seconds"]["count"] == 1
        # the cold sweep decoded each of the store's chunks once
        assert stats["cache"]["misses"] == catalog.get("a").n_chunks
        assert listing["a"]["codec"] == "pyblaz"
        assert listing["a"]["shape"] == [48, 12]

    def test_repeat_queries_hit_chunk_cache(self, catalog):
        outputs = {"m": expr.mean(expr.source("a"))}
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                client.evaluate(outputs)
                cold = client.stats()["cache"]
                client.evaluate(outputs)
                warm = client.stats()["cache"]
        assert warm["hits"] > cold["hits"]
        assert warm["misses"] == cold["misses"]  # nothing re-decoded

    def test_the_sweep_alone_fills_the_cache(self, catalog):
        outputs = {"d": expr.dot(expr.source("a"), expr.source("b")),
                   "m": expr.mean(expr.source("a"))}
        n_chunks = catalog.get("a").n_chunks + catalog.get("b").n_chunks
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                client.evaluate(outputs)
                cold = client.stats()
                client.evaluate(outputs)
                warm = client.stats()
            threads = {thread.name for thread in threading.enumerate()}
        # each chunk is decoded once, by the sweep; the repeat only hits
        assert (cold["cache"]["misses"], cold["cache"]["hits"]) == (n_chunks, 0)
        assert warm["cache"]["misses"] == n_chunks
        assert warm["cache"]["hits"] == n_chunks
        assert not any(name.startswith("repro-serving-prefetch") for name in threads)
        assert "prefetch" not in cold and "prefetch" not in warm


class TestErrorPaths:
    def test_unknown_store_is_per_request_error(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                with pytest.raises(ServerError, match="unknown store"):
                    client.evaluate({"m": expr.mean(expr.source("nope"))})
                # the connection and server survive the error
                assert client.evaluate({"m": expr.mean(expr.source("a"))})
                stats = client.stats()
        assert stats["requests"]["failed"] == 1
        assert stats["requests"]["served"] == 1

    def test_malformed_wire_is_rejected(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                with pytest.raises(ServerError, match="unknown wire node kind"):
                    client.evaluate({"m": {"kind": "bogus"}})

    def test_unknown_request_kind(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                with pytest.raises(ServerError, match="unknown request kind"):
                    client._call({"kind": "mystery"})

    def test_malformed_json_line_answered(self, catalog):
        with ThreadedQueryService(catalog) as served:
            with socket.create_connection((served.host, served.port),
                                          timeout=10) as raw:
                stream = raw.makefile("rwb")
                stream.write(b"this is not json\n")
                stream.flush()
                response = json.loads(stream.readline())
        assert response["ok"] is False
        assert "malformed JSON" in response["error"]


class TestCoalescing:
    N_CLIENTS = 6

    def _fan_out(self, served, requests):
        """Fire one request per thread, barrier-aligned; returns full responses."""
        barrier = threading.Barrier(len(requests))
        responses = [None] * len(requests)
        errors = []

        def worker(index, outputs):
            try:
                with QueryClient(served.host, served.port) as client:
                    barrier.wait(timeout=10)
                    responses[index] = client.evaluate_full(outputs)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i, outputs))
                   for i, outputs in enumerate(requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        return responses

    def test_concurrent_requests_fuse_into_one_plan(self, catalog):
        # overlapping statistics over the same two stores, as N users would ask
        requests = [
            {"m": expr.mean(expr.source("a")),
             "v": expr.variance(expr.source("a"))},
            {"m": expr.mean(expr.source("a")),
             "d": expr.dot(expr.source("a"), expr.source("b"))},
            {"s": expr.standard_deviation(expr.source("a"))},
            {"n": expr.l2_norm(expr.source("b")),
             "c": expr.covariance(expr.source("a"), expr.source("b"))},
            {"e": expr.euclidean_distance(expr.source("a"), expr.source("b"))},
            {"m": expr.mean(expr.source("b"), padded=False)},
        ]
        # a generous tick so every barrier-released request lands in tick one
        with ThreadedQueryService(catalog, tick=0.5) as served:
            self._fan_out(served, requests)  # warm: opens stores via validation
            with QueryClient(served.host, served.port) as client:
                before = client.stats()["plans"]
            responses = self._fan_out(served, requests)
            with QueryClient(served.host, served.port) as client:
                after = client.stats()["plans"]

        # the acceptance bar: one fused plan for the whole concurrent batch
        assert after["executed"] - before["executed"] == 1
        assert after["batches"] - before["batches"] == 1
        assert after["max_batch"] == len(requests)
        batch = responses[0]["batch"]
        assert batch["requests"] == len(requests)
        assert batch["plans"] == 1
        # every response reports the same shared batch
        assert all(r["batch"] == batch for r in responses)

        # results bit-identical to local sequential evaluation, per request
        for outputs, response in zip(requests, responses):
            local = local_reference(catalog, outputs)
            for name, value in response["results"].items():
                assert value == local[name], name

    @pytest.mark.parametrize("tick", [0.0, 0.5])
    def test_concurrent_cold_requests_decode_each_chunk_once(self, catalog, tick):
        # batches run one at a time on the plan thread, so however the
        # requests split into ticks, only the first sweep decodes a chunk
        outputs = {"d": expr.dot(expr.source("a"), expr.source("b"))}
        n_chunks = catalog.get("a").n_chunks + catalog.get("b").n_chunks
        with ThreadedQueryService(catalog, tick=tick) as served:
            responses = self._fan_out(served, [outputs] * self.N_CLIENTS)
            with QueryClient(served.host, served.port) as client:
                stats = client.stats()
        plans = stats["plans"]["executed"]
        assert stats["cache"]["misses"] == n_chunks
        assert stats["cache"]["hits"] == (plans - 1) * n_chunks
        assert all(r["results"] == responses[0]["results"] for r in responses)

    @staticmethod
    def _bad_beside_good(catalog, bad: dict) -> dict:
        """Send ``bad`` and a good l2-norm request into one tick; outcomes."""
        good = {"n": expr.l2_norm(expr.source("a"))}
        barrier = threading.Barrier(2)
        outcomes: dict = {}

        def worker(label, outputs):
            with QueryClient(served.host, served.port) as client:
                barrier.wait(timeout=10)
                try:
                    outcomes[label] = client.evaluate_full(outputs)
                except ServerError as exc:
                    outcomes[label] = exc

        with ThreadedQueryService(catalog, tick=0.2) as served:
            threads = [threading.Thread(target=worker, args=item)
                       for item in (("bad", bad), ("good", good))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

        assert not isinstance(outcomes["good"], ServerError), outcomes["good"]
        local = local_reference(catalog, good)
        assert outcomes["good"]["results"]["n"] == local["n"]
        assert isinstance(outcomes["bad"], ServerError)
        return outcomes

    def test_bad_option_is_rejected_alone_not_with_its_batch(self, catalog):
        # a misspelled finalize option used to pass wire decoding and solo
        # validation, then fail every request coalesced into its tick
        bad = {"m": {"kind": "mean", "operands": [{"kind": "source", "name": "a"}],
                     "options": {"paded": False}}}
        outcomes = self._bad_beside_good(catalog, bad)
        assert "no option 'paded'" in str(outcomes["bad"])

    def test_non_finite_scale_is_rejected_alone_not_with_its_batch(self, catalog):
        # JSON carries NaN; a NaN factor used to plan, then fail at execute
        # time for every request coalesced into its tick
        scaled = {"kind": "scale", "operands": [{"kind": "source", "name": "a"}],
                  "factor": float("nan")}
        bad = {"m": {"kind": "mean", "operands": [scaled]}}
        outcomes = self._bad_beside_good(catalog, bad)
        assert "finite numeric 'factor'" in str(outcomes["bad"])

    def test_naive_mode_runs_one_plan_per_request(self, catalog):
        requests = [{"m": expr.mean(expr.source("a"))} for _ in range(4)]
        with ThreadedQueryService(catalog, tick=0.5, coalesce=False) as served:
            responses = self._fan_out(served, requests)
            with QueryClient(served.host, served.port) as client:
                stats = client.stats()["plans"]
        batch = responses[0]["batch"]
        assert batch["coalesced"] is False
        assert batch["requests"] == 4
        assert batch["plans"] == 4  # no fusion across requests
        assert stats["executed"] == 4
        local = local_reference(catalog, requests[0])
        for response in responses:
            assert response["results"]["m"] == local["m"]

    def test_coalesced_batch_shares_passes(self, catalog):
        # 4 requests, all variance over store "a": fused they cost the same
        # single plan one request costs — the whole point of coalescing
        requests = [{"v": expr.variance(expr.source("a"))} for _ in range(4)]
        with ThreadedQueryService(catalog, tick=0.5) as served:
            responses = self._fan_out(served, requests)
        batch = responses[0]["batch"]
        assert batch["requests"] == 4
        assert batch["plans"] == 1
        local = local_reference(catalog, requests[0])
        for response in responses:
            assert response["results"]["v"] == local["v"]


class TestCoalescingWindow:
    """The window closes once every open connection has a request queued,
    and after one tick at the latest."""

    MEAN_A = {"m": expr.mean(expr.source("a"))}
    TICK = 1.0

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_lone_connection_does_not_wait_out_the_tick(self, catalog, coalesce):
        with ThreadedQueryService(catalog, tick=self.TICK,
                                  coalesce=coalesce) as served:
            with QueryClient(served.host, served.port) as client:
                full = client.evaluate_full(self.MEAN_A)
                plans = client.stats()["plans"]
        assert full["seconds"] < self.TICK / 2
        assert full["batch"]["coalesced"] is coalesce
        assert full["results"] == local_reference(catalog, self.MEAN_A)
        assert (plans["batches"], plans["full_windows"]) == (1, 1)

    def test_idle_connection_holds_the_window_for_the_tick(self, catalog):
        tick = 0.3
        with ThreadedQueryService(catalog, tick=tick) as served:
            with QueryClient(served.host, served.port) as idle:
                idle.stats()  # answered, so the server has counted it
                with QueryClient(served.host, served.port) as client:
                    full = client.evaluate_full(self.MEAN_A)
                    plans = client.stats()["plans"]
        # a lower bound only: a slow machine adds time, never removes it
        assert full["seconds"] >= tick - 0.01
        assert full["batch"]["requests"] == 1
        assert (plans["batches"], plans["full_windows"]) == (1, 0)

    def test_window_closes_early_again_once_the_idle_connection_closes(
            self, catalog):
        with ThreadedQueryService(catalog, tick=self.TICK) as served:
            with QueryClient(served.host, served.port) as client:
                with QueryClient(served.host, served.port) as idle:
                    idle.stats()
                for _ in range(3):
                    full = client.evaluate_full(self.MEAN_A)
                    assert full["seconds"] < self.TICK / 2
                plans = client.stats()["plans"]
        assert plans["full_windows"] == plans["batches"] == 3

    def test_stop_does_not_wait_out_a_long_tick(self, catalog):
        tick = 30.0
        outcome: dict = {}
        with ThreadedQueryService(catalog, tick=tick) as served:
            idle = QueryClient(served.host, served.port)
            idle.stats()  # keeps the window open for the whole tick

            def request():
                with QueryClient(served.host, served.port) as client:
                    outcome["full"] = client.evaluate_full(self.MEAN_A)

            thread = threading.Thread(target=request)
            thread.start()
            metrics = served.service.metrics
            while metrics.requests_received == 0 and thread.is_alive():
                time.sleep(0.01)
            time.sleep(0.1)  # the request is now queued, its window open
            stopping = time.monotonic()
        thread.join(timeout=10)
        idle.close()
        assert not thread.is_alive()
        assert time.monotonic() - stopping < 5.0
        # queued before the stop, so it ran as the final batch
        assert outcome["full"]["results"] == local_reference(catalog, self.MEAN_A)


class TestOnePlanPath:
    def test_batch_info_and_stats_name_no_backend(self, catalog):
        outputs = {
            "m": expr.mean(expr.source("a")),
            "d": expr.dot(expr.source("a"), expr.source("b")),
        }
        with ThreadedQueryService(catalog) as served:
            with QueryClient(served.host, served.port) as client:
                full = client.evaluate_full(outputs)
                stats = client.stats()
        assert "backend" not in full["batch"]
        assert "by_backend" not in stats["plans"]
        # every plan is one sweep, so no pass count is reported
        assert "passes" not in full["batch"]
        assert "passes_total" not in stats["plans"]
        assert "degradations" not in stats["reliability"]
        assert full["results"] == local_reference(catalog, outputs)

    def test_service_takes_no_backend(self, catalog):
        from repro.serving import QueryService

        with pytest.raises(TypeError, match="backend"):
            QueryService(catalog, backend="gemm")
