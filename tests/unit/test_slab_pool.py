"""Unit tests for the slab plumbing and process pool of ``ChunkedCompressor``.

The slab pool is the one multi-worker compression path: each block-aligned slab
is compressed alone, so any number of workers must give the bytes of one.
"""

from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor
from repro.core.exceptions import CodecError
from repro.reliability import FaultRule, WorkerCrashError, inject
from repro.streaming import ChunkedCompressor
from repro.streaming.chunked import _armed_jobs, _crash_worker, _pool_failure
from tests.conftest import smooth_field


def _job(*args):
    return args


class TestPoolFailure:
    def test_dead_worker_names_job_and_batch(self):
        error = _pool_failure(BrokenProcessPool("gone"), 3, 7)
        assert isinstance(error, WorkerCrashError)
        assert (error.job_index, error.n_jobs) == (3, 7)
        assert "at job 3 of 7" in str(error)
        assert "a worker process died" in str(error)

    def test_pickling_failure_is_named(self):
        error = _pool_failure(PicklingError("no"), 0, 1)
        assert "its payload failed to pickle" in str(error)
        assert "a worker process died" not in str(error)

    def test_submission_failure_has_no_job_index(self):
        error = _pool_failure(BrokenProcessPool("gone"), None, 5)
        assert error.job_index is None
        assert error.n_jobs == 5
        assert "dispatching 5 jobs" in str(error)

    def test_message_says_how_to_recover(self):
        message = str(_pool_failure(BrokenProcessPool("gone"), 1, 2))
        assert "retry it, or rerun without a process pool" in message
        assert "gone" in message


class TestArmedJobs:
    def test_no_plan_yields_jobs_unchanged(self):
        jobs = list(_armed_jobs(_job, ([1, 2], (3,), ())))
        assert jobs == [(_job, (1, 2)), (_job, (3,)), (_job, ())]

    def test_lazy_one_job_at_a_time(self):
        pulled = []

        def source():
            for i in range(5):
                pulled.append(i)
                yield (i,)

        armed = _armed_jobs(_job, source())
        assert pulled == []
        assert next(armed) == (_job, (0,))
        assert pulled == [0]

    def test_rule_swaps_the_selected_job_for_a_crash(self):
        with inject(FaultRule("worker_crash", job_index=2)) as plan:
            jobs = list(_armed_jobs(_job, [(i,) for i in range(4)]))
        assert [fn for fn, _ in jobs] == [_job, _job, _crash_worker, _job]
        assert jobs[2][1] == ()
        assert plan.fired["worker_crash"] == 1

    def test_unindexed_rule_arms_the_first_job_once(self):
        with inject(FaultRule("worker_crash")) as plan:
            jobs = list(_armed_jobs(_job, [(i,) for i in range(3)]))
        assert [fn for fn, _ in jobs] == [_crash_worker, _job, _job]
        assert plan.fired["worker_crash"] == 1

    def test_times_arms_that_many_jobs(self):
        with inject(FaultRule("worker_crash", times=2)) as plan:
            jobs = list(_armed_jobs(_job, [(i,) for i in range(4)]))
        assert [fn for fn, _ in jobs] == [_crash_worker, _crash_worker, _job, _job]
        assert plan.fired["worker_crash"] == 2

    def test_read_faults_never_arm_a_job(self):
        with inject(FaultRule("os_error"), FaultRule("bit_flip")) as plan:
            jobs = list(_armed_jobs(_job, [(0,), (1,)]))
        assert [fn for fn, _ in jobs] == [_job, _job]
        assert sum(plan.fired.values()) == 0


@pytest.fixture
def settings() -> CompressionSettings:
    return CompressionSettings(block_shape=(4, 4), float_format="float32", index_dtype="int16")


class TestAlignedSlabs:
    @pytest.mark.parametrize("slab_rows", [1, 4, 5, 8, 36, 100])
    def test_slabs_cover_rows_without_overlap(self, settings, slab_rows):
        field = smooth_field((37, 12), seed=1)
        chunked = ChunkedCompressor(settings, slab_rows=slab_rows)
        slabs = list(chunked.aligned_slabs(field))
        assert np.array_equal(np.concatenate(slabs, axis=0), field)
        # every slab but the last is exactly one slab tall, and block aligned
        assert all(s.shape[0] == chunked.slab_rows for s in slabs[:-1])
        assert chunked.slab_rows % settings.block_shape[0] == 0
        assert 0 < slabs[-1].shape[0] <= chunked.slab_rows

    def test_one_slab_when_taller_than_the_input(self, settings):
        field = smooth_field((10, 8), seed=2)
        slabs = list(ChunkedCompressor(settings, slab_rows=64).aligned_slabs(field))
        assert len(slabs) == 1
        assert np.array_equal(slabs[0], field)

    def test_row_by_row_generator_is_regrouped(self, settings):
        field = smooth_field((19, 8), seed=3)
        chunked = ChunkedCompressor(settings, slab_rows=8)
        slabs = list(chunked.aligned_slabs(row[None] for row in field))
        assert [s.shape[0] for s in slabs] == [8, 8, 3]
        assert np.array_equal(np.concatenate(slabs, axis=0), field)

    @pytest.mark.parametrize("count", [0, -1, -8])
    def test_non_positive_counts_rejected(self, settings, count):
        with pytest.raises(ValueError, match="slab_rows must be positive"):
            ChunkedCompressor(settings, slab_rows=count)
        with pytest.raises(ValueError, match="n_workers must be positive"):
            ChunkedCompressor(settings, n_workers=count)


def _assert_matches_one_shot(settings, array, **chunked_kwargs):
    one_shot = Compressor(settings).compress(array)
    result = ChunkedCompressor(settings, **chunked_kwargs).compress(array)
    assert result.shape == one_shot.shape
    assert result.indices.dtype == one_shot.indices.dtype
    assert np.array_equal(result.maxima, one_shot.maxima)
    assert np.array_equal(result.indices, one_shot.indices)
    return result


class TestSlabsMatchOneShot:
    """Under the bit-exact ``reference`` backend, slab-wise compression equals
    one-shot compression on every grid, one worker or a pool."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ragged_two_dimensional_grid(self, n_workers):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int8")
        _assert_matches_one_shot(settings, smooth_field((10, 14), seed=5),
                                 slab_rows=4, n_workers=n_workers)

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_single_block_grid(self, n_workers):
        settings = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                       index_dtype="int16")
        array = smooth_field((4, 4), seed=4)
        result = _assert_matches_one_shot(settings, array, slab_rows=4, n_workers=n_workers)
        assert np.array_equal(Compressor(settings).decompress(result),
                              Compressor(settings).decompress(
                                  Compressor(settings).compress(array)))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_one_dimensional_block_shape(self, n_workers):
        settings = CompressionSettings(block_shape=(8,), float_format="float64",
                                       index_dtype="int16")
        _assert_matches_one_shot(settings, smooth_field((45,), seed=5),
                                 slab_rows=16, n_workers=n_workers)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_three_dimensional_field(self, n_workers, field_3d, settings_3d):
        _assert_matches_one_shot(settings_3d, field_3d, slab_rows=8, n_workers=n_workers)

    def test_more_workers_than_slabs(self, settings):
        _assert_matches_one_shot(settings, smooth_field((8, 8), seed=3),
                                 slab_rows=4, n_workers=8)

    @pytest.mark.parametrize("index_dtype", ["int8", "int16", "int32", "int64"])
    def test_every_index_dtype(self, index_dtype):
        # large values stress the int64 clamp guard of the binning step
        settings = CompressionSettings(block_shape=(4, 4), float_format="float64",
                                       index_dtype=index_dtype)
        result = _assert_matches_one_shot(settings, smooth_field((20, 24), seed=6) * 1e6,
                                          slab_rows=8, n_workers=2)
        assert result.indices.dtype == np.dtype(index_dtype)

    def test_generator_input_through_the_pool(self, settings):
        field = smooth_field((37, 20), seed=7)
        one_shot = Compressor(settings).compress(field)
        pieces = (field[i : i + 3] for i in range(0, field.shape[0], 3))
        result = ChunkedCompressor(settings, slab_rows=8, n_workers=2).compress(pieces)
        assert np.array_equal(result.maxima, one_shot.maxima)
        assert np.array_equal(result.indices, one_shot.indices)


class TestPooledStores:
    @pytest.mark.parametrize("backend", ["reference", "gemm"])
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_store_bytes_match_one_worker(self, tmp_path, settings, backend, n_workers):
        field = smooth_field((48, 16), seed=8)
        serial = tmp_path / "serial.pblzc"
        pooled = tmp_path / "pooled.pblzc"
        ChunkedCompressor(settings, slab_rows=8, backend=backend).compress_to_store(
            field, serial).close()
        ChunkedCompressor(settings, slab_rows=8, n_workers=n_workers,
                          backend=backend).compress_to_store(field, pooled).close()
        assert pooled.read_bytes() == serial.read_bytes()

    def test_crash_error_names_a_submitted_job(self, tmp_path, settings):
        field = smooth_field((32, 8), seed=9)
        chunked = ChunkedCompressor(settings, slab_rows=8, n_workers=2)
        with inject(FaultRule("worker_crash", job_index=0)) as plan:
            with pytest.raises(WorkerCrashError) as info:
                chunked.compress(field)
        assert plan.fired["worker_crash"] == 1
        assert info.value.job_index is not None
        assert 0 <= info.value.job_index < info.value.n_jobs <= 4
        assert isinstance(info.value.__cause__, BrokenProcessPool)


class TestBackendSelection:
    """Backend choice is the ``backend=`` argument, then ``settings.backend``."""

    def test_argument_is_case_insensitive(self):
        settings = CompressionSettings(block_shape=(4, 4))
        assert Compressor(settings, backend="GEMM").backend == "gemm"
        assert ChunkedCompressor(settings, backend="Reference").backend == "reference"

    def test_compressor_rejects_unknown_backend_eagerly(self):
        with pytest.raises(CodecError, match="unknown kernel backend"):
            Compressor(CompressionSettings(block_shape=(4, 4)), backend="nope")

    def test_chunked_compressor_rejects_unknown_backend_eagerly(self):
        with pytest.raises(CodecError, match="unknown kernel backend"):
            ChunkedCompressor(CompressionSettings(block_shape=(4, 4)), n_workers=2,
                              backend="nope")

    def test_executor_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Compressor(CompressionSettings(block_shape=(4, 4)), executor=object())
