"""Chaos suite: every fault class at every seam, asserting the reliability
contract — an injected fault yields either a bitwise-correct result after
retry/degradation or a clean typed error, never a hang and never a silent
wrong scalar.  All fault plans are seeded, so each run replays identically.

Run by the CI chaos-smoke job: ``pytest tests/chaos -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings
from repro.engine import expr
from repro.reliability import (
    FaultRule,
    IntegrityError,
    RetryPolicy,
    WorkerCrashError,
    inject,
)
from repro.streaming import ChunkedCompressor, CompressedStore, ShardedStore
from tests.conftest import smooth_field

_FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.001, seed=0)


@pytest.fixture
def store(tmp_path):
    settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                   index_dtype="int16")
    chunked = ChunkedCompressor(settings, slab_rows=8)
    opened = chunked.compress_to_store(smooth_field((24, 16), seed=21),
                                       tmp_path / "chaos.pblzc")
    yield opened
    opened.close()


def _reopen(store, retry_policy=_FAST_RETRY) -> CompressedStore:
    return CompressedStore(store.path, retry_policy=retry_policy)


class TestReadFaults:
    """Store-read faults: transient ones retry to bitwise-identical bytes,
    persistent ones surface as typed errors naming the chunk."""

    @pytest.mark.parametrize("kind", ["os_error", "bit_flip", "short_read",
                                      "latency"])
    def test_transient_fault_retries_to_bitwise_identical(self, store, kind):
        baseline = store.load()  # fault-off reference
        rule = FaultRule(kind, chunk_index=1, delay_seconds=0.01)
        with inject(rule, seed=3) as plan:
            with _reopen(store) as faulted:
                assert np.array_equal(faulted.load(), baseline)
                expected_retries = 0 if kind == "latency" else 1
                assert faulted.read_retries == expected_retries
        assert plan.fired[kind] == 1  # the fault really happened

    @pytest.mark.parametrize("kind", ["bit_flip", "short_read"])
    def test_persistent_corruption_is_a_typed_error(self, store, kind):
        rule = FaultRule(kind, chunk_index=1, times=50)
        with inject(rule, seed=3):
            with _reopen(store) as faulted:
                with pytest.raises(IntegrityError, match="chunk 1") as info:
                    faulted.load()
                assert info.value.chunk_index == 1

    def test_persistent_os_error_exhausts_retries(self, store):
        with inject(FaultRule("os_error", chunk_index=0, times=50), seed=3):
            with _reopen(store) as faulted:
                with pytest.raises(OSError):
                    faulted.read_payload(0)
                assert faulted.read_retries == _FAST_RETRY.attempts - 1

    def test_engine_results_identical_with_faults_retried(self, store):
        baseline = engine.evaluate({"m": expr.mean(store),
                                    "n": expr.l2_norm(store)})
        rules = [FaultRule("os_error", chunk_index=0),
                 FaultRule("bit_flip", chunk_index=2)]
        with inject(*rules, seed=3) as plan:
            with _reopen(store) as faulted:
                chaotic = engine.evaluate({"m": expr.mean(faulted),
                                           "n": expr.l2_norm(faulted)})
        assert chaotic == baseline  # scalar-exact: no silent wrong value
        assert plan.fired["os_error"] == 1 and plan.fired["bit_flip"] == 1


class TestWorkerCrashes:
    """A pooled slab worker hard-exiting surfaces as WorkerCrashError naming
    the batch, the rerun (fault-consumed) gives byte-identical results, and
    slabs compressed on the calling thread are never armed."""

    def test_slab_crash_is_typed_then_rerun_matches_one_worker(self, tmp_path):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        field = smooth_field((48, 16), seed=21)
        serial = tmp_path / "serial.pblzc"
        pooled = tmp_path / "pooled.pblzc"
        ChunkedCompressor(settings, slab_rows=8).compress_to_store(
            field, serial).close()
        chunked = ChunkedCompressor(settings, slab_rows=8, n_workers=2)
        with inject(FaultRule("worker_crash", job_index=2), seed=3) as plan:
            with pytest.raises(WorkerCrashError) as info:
                chunked.compress_to_store(field, pooled)
            assert info.value.job_index is not None
            assert not pooled.exists()  # nothing published at the final path
        assert plan.fired["worker_crash"] == 1
        chunked.compress_to_store(field, pooled).close()
        assert pooled.read_bytes() == serial.read_bytes()
        # one worker compresses on the calling thread; arming it would kill the caller
        inline = tmp_path / "inline.pblzc"
        single = ChunkedCompressor(settings, slab_rows=8, n_workers=1)
        with inject(FaultRule("worker_crash"), seed=3) as plan:
            single.compress_to_store(field, inline).close()
        assert plan.fired["worker_crash"] == 0
        assert inline.read_bytes() == serial.read_bytes()


class TestShardedStoreCorruption:
    """On-disk corruption of one shard (the CI job's ``dd`` scenario) is
    detected by ``repro verify-store`` naming the shard *and* chunk, repaired
    from a mirror replica, and the repaired store keeps serving incremental
    answers bit-identical to the pre-corruption ones."""

    def _grown_with_mirror(self, tmp_path):
        import shutil

        from repro.streaming import append_shard, init_sharded_store

        settings = CompressionSettings(block_shape=(4, 4),
                                       float_format="float32",
                                       index_dtype="int16")
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((16, 8), seed=31), settings,
                           slab_rows=8).close()
        append_shard(path, smooth_field((8, 8), seed=32), slab_rows=8).close()
        mirror = tmp_path / "mirror.shards"
        shutil.copytree(path, mirror)
        return path, mirror

    def _flip_chunk_bytes(self, path, shard_index, chunk_index) -> None:
        """Overwrite 8 bytes inside one chunk record, as CI does with dd."""
        from repro.streaming.sharded import shard_filename

        shard_path = path / shard_filename(shard_index)
        with CompressedStore(shard_path) as shard:
            offset, n_bytes, _, _, _ = shard._chunks[chunk_index]
        with open(shard_path, "r+b") as handle:
            handle.seek(offset + n_bytes // 2)
            handle.write(b"\xff" * 8)

    def test_cli_detects_names_shard_and_chunk_then_repairs(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path, mirror = self._grown_with_mirror(tmp_path)
        with ShardedStore(path) as store:
            expected = engine.plan({"m": expr.mean(expr.source(store)),
                                    "n": expr.l2_norm(expr.source(store))}).execute()
        self._flip_chunk_bytes(path, shard_index=1, chunk_index=0)

        # detection: exit 3, output names exactly the damaged shard and chunk
        assert cli_main(["verify-store", str(path)]) == 3
        scan = capsys.readouterr().out
        assert "shard 1 (shard-000001.pblzc)" in scan
        assert "chunk 0: CORRUPT" in scan
        flagged = [line for line in scan.splitlines() if line.startswith("shard")
                   and ("CORRUPT" in line or "MISMATCH" in line)]
        assert flagged and all(line.startswith("shard 1") for line in flagged)
        assert "store CORRUPT (1 bad shard(s))" in scan

        # repair from the mirror replica: exit 0 and a clean re-scan
        assert cli_main(["verify-store", str(path),
                         "--repair-from", str(mirror)]) == 0
        captured = capsys.readouterr()
        assert "repaired 1 chunk(s)" in captured.err
        assert "shard 1 chunk 0" in captured.err
        assert cli_main(["verify-store", str(path)]) == 0
        capsys.readouterr()

        # the repaired store still serves incrementally, bit-identical
        with ShardedStore(path) as repaired:
            assert repaired.partials_fresh()
            plan = engine.plan({"m": expr.mean(expr.source(repaired)),
                                "n": expr.l2_norm(expr.source(repaired))})
            assert plan.execute() == expected
            assert plan.last_execution["incremental_groups"] == 1

    def test_faulted_shard_reads_retry_to_identical(self, tmp_path):
        # the PR 8 injection harness composes with sharded reads: a transient
        # bit flip inside one shard retries to bitwise-identical bytes
        path, _ = self._grown_with_mirror(tmp_path)
        with ShardedStore(path, use_partials=False,
                          retry_policy=_FAST_RETRY) as store:
            baseline = store.load()
        rule = FaultRule("bit_flip", chunk_index=0)
        with inject(rule, seed=3) as plan:
            with ShardedStore(path, use_partials=False,
                              retry_policy=_FAST_RETRY) as faulted:
                assert np.array_equal(faulted.load(), baseline)
                assert faulted.read_retries == 1
        assert plan.fired["bit_flip"] == 1


class TestPrefetchChaos:
    """Fault injection composes with the readahead pipeline (PR 10): a fault
    inside a prefetched span either retries to bit-identical chunks or
    surfaces the same typed error as the serial loop — and an aborted
    pipeline never leaks its fetch threads."""

    @staticmethod
    def _decoded(store):
        return [store.decompress_chunk(chunk).tobytes()
                for chunk in store.iter_chunks()]

    @pytest.mark.parametrize("kind", ["latency", "short_read", "bit_flip"])
    def test_transient_fault_in_span_retries_to_identical(self, store, kind):
        # the serial read_chunk loop is the reference
        baseline = [store.decompress_chunk(store.read_chunk(index)).tobytes()
                    for index in range(store.n_chunks)]
        rule = FaultRule(kind, chunk_index=1, delay_seconds=0.005)
        with inject(rule, seed=3) as plan:
            with _reopen(store) as faulted:
                assert self._decoded(faulted) == baseline
                expected_retries = 0 if kind == "latency" else 1
                assert faulted.read_retries == expected_retries
        assert plan.fired[kind] == 1  # the fault hit the prefetched span

    @pytest.mark.parametrize("kind", ["bit_flip", "short_read"])
    def test_persistent_corruption_is_typed_under_prefetch(self, store, kind):
        rule = FaultRule(kind, chunk_index=1, times=50)
        with inject(rule, seed=3):
            with _reopen(store) as faulted:
                with pytest.raises(IntegrityError, match="chunk 1") as info:
                    self._decoded(faulted)
                assert info.value.chunk_index == 1

    def test_no_retry_policy_surfaces_span_fault(self, store):
        # without a retry policy the span's first error propagates, exactly
        # like the serial loop's contract
        with inject(FaultRule("bit_flip", chunk_index=0, times=50), seed=3):
            with CompressedStore(store.path, retry_policy=None) as faulted:
                with pytest.raises(IntegrityError):
                    self._decoded(faulted)

    def test_aborted_pipeline_under_faults_leaks_no_threads(self, store):
        import threading

        baseline_threads = threading.active_count()
        rule = FaultRule("latency", delay_seconds=0.005, times=50)
        with inject(rule, seed=3):
            with _reopen(store) as faulted:
                iterator = faulted.iter_chunks()
                next(iterator)
                iterator.close()  # mid-pipeline abort with spans in flight
                assert faulted.chunks_prefetched > faulted.chunks_read
        assert threading.active_count() == baseline_threads

    def test_engine_sweep_with_prefetch_matches_under_faults(self, store):
        baseline = engine.evaluate({"m": expr.mean(store),
                                    "n": expr.l2_norm(store)})
        rules = [FaultRule("os_error", chunk_index=0),
                 FaultRule("bit_flip", chunk_index=2)]
        with inject(*rules, seed=3) as plan:
            with _reopen(store) as faulted:
                chaotic = engine.evaluate({"m": expr.mean(faulted),
                                           "n": expr.l2_norm(faulted)})
        assert chaotic == baseline  # scalar-exact through the pipeline
        assert plan.fired["os_error"] == 1 and plan.fired["bit_flip"] == 1
