"""Unit tests for the reliability primitives: typed errors, retry/backoff
under a deadline budget, and the deterministic fault-injection harness."""

from __future__ import annotations

import errno

import pytest

from repro.core.exceptions import CodecError
from repro.reliability import (
    Deadline,
    DeadlineError,
    FaultPlan,
    FaultRule,
    IntegrityError,
    RetryPolicy,
    WorkerCrashError,
    active_plan,
    inject,
    retry_call,
)


class TestTypedErrors:
    def test_integrity_error_is_a_codec_error(self):
        exc = IntegrityError("bad chunk", path="/x/store.pblzc", chunk_index=3)
        assert isinstance(exc, CodecError)
        assert exc.path == "/x/store.pblzc"
        assert exc.chunk_index == 3

    def test_worker_crash_error_names_the_job(self):
        exc = WorkerCrashError("pool died", job_index=2, n_jobs=5)
        assert isinstance(exc, RuntimeError)
        assert exc.job_index == 2
        assert exc.n_jobs == 5

    def test_deadline_error_is_not_retryable_os_error(self):
        assert not issubclass(DeadlineError, OSError)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=0.5, max_delay=0.1)

    def test_seeded_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=10, base_delay=0.01, max_delay=0.2, seed=7)
        first = [next(policy.delays()) for _ in range(1)]
        a = policy.delays()
        b = policy.delays()
        seq_a = [next(a) for _ in range(8)]
        seq_b = [next(b) for _ in range(8)]
        assert seq_a == seq_b  # same seed, same jitter
        assert first[0] == seq_a[0]
        assert all(policy.base_delay <= d <= policy.max_delay for d in seq_a)

    def test_unseeded_delays_stay_bounded(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05)
        delays = policy.delays()
        assert all(0.01 <= next(delays) <= 0.05 for _ in range(20))


class TestDeadline:
    def test_after_none_is_none(self):
        assert Deadline.after(None) is None

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0.0)

    def test_remaining_and_check(self):
        deadline = Deadline(60.0)
        assert 0 < deadline.remaining() <= 60.0
        assert not deadline.expired()
        deadline.check("op")  # plenty left: no raise
        spent = Deadline(1.0, _now=-100.0)  # started long "ago"
        assert spent.expired()
        with pytest.raises(DeadlineError, match="op exceeded its 1s deadline"):
            spent.check("op")


class TestRetryCall:
    def test_success_after_transient_failures(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "transient")
            return "ok"

        result = retry_call(
            flaky,
            policy=RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0, seed=0),
            on_retry=lambda attempt, exc: retries.append((attempt, type(exc))),
            sleep=lambda _: None,
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert retries == [(1, OSError), (2, OSError)]

    def test_non_retryable_exception_propagates_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise CodecError("bad bytes")

        with pytest.raises(CodecError):
            retry_call(broken, policy=RetryPolicy(attempts=5, seed=0),
                       sleep=lambda _: None)
        assert calls["n"] == 1  # retrying the same bad bytes cannot help

    def test_exhausted_attempts_reraise_the_last_exception(self):
        def always_fails():
            raise OSError(errno.EIO, "persistent")

        with pytest.raises(OSError, match="persistent"):
            retry_call(always_fails,
                       policy=RetryPolicy(attempts=3, base_delay=0.0,
                                          max_delay=0.0, seed=0),
                       sleep=lambda _: None)

    def test_spent_deadline_reraises_the_original_not_deadline_error(self):
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError(errno.EIO, "underlying failure")

        spent = Deadline(0.001, _now=-100.0)
        with pytest.raises(OSError, match="underlying failure"):
            retry_call(always_fails, policy=RetryPolicy(attempts=5, seed=0),
                       deadline=spent, sleep=lambda _: None)
        assert calls["n"] == 1  # no retry starts after the deadline


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("cosmic_ray")
        with pytest.raises(ValueError, match="times"):
            FaultRule("os_error", times=0)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("os_error", probability=1.5)


class TestFaultPlan:
    def test_os_error_fires_once_then_goes_inert(self):
        plan = FaultPlan(FaultRule("os_error", chunk_index=1))
        plan.before_chunk_read("/s.pblzc", 0)  # wrong chunk: no fault
        with pytest.raises(OSError):
            plan.before_chunk_read("/s.pblzc", 1)
        plan.before_chunk_read("/s.pblzc", 1)  # consumed: clean retry
        assert plan.fired == {"os_error": 1}

    def test_path_filter_is_substring_match(self):
        plan = FaultPlan(FaultRule("os_error", path="hot.pblzc"))
        plan.before_chunk_read("/data/cold.pblzc", 0)  # no match, no fault
        with pytest.raises(OSError):
            plan.before_chunk_read("/data/hot.pblzc", 0)

    def test_bit_flip_changes_exactly_one_byte(self):
        plan = FaultPlan(FaultRule("bit_flip"))
        data = bytes(range(16))
        flipped = plan.corrupt_record("/s", 0, data)
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(data, flipped)) == 1
        assert plan.corrupt_record("/s", 0, data) == data  # consumed

    def test_short_read_truncates_to_half(self):
        plan = FaultPlan(FaultRule("short_read"))
        data = bytes(16)
        assert len(plan.corrupt_record("/s", 0, data)) == 8

    def test_worker_crash_targets_the_job_index(self):
        plan = FaultPlan(FaultRule("worker_crash", job_index=2))
        assert not plan.take_worker_crash(0)
        assert plan.take_worker_crash(2)
        assert not plan.take_worker_crash(2)  # consumed

    def test_compiled_kernel_is_no_fault_kind(self):
        # the interpreter is the only plan executor: no kernel to fail
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("compiled_kernel")

    def test_times_bounds_total_firings(self):
        plan = FaultPlan(FaultRule("os_error", times=2))
        for _ in range(2):
            with pytest.raises(OSError):
                plan.before_chunk_read("/s", 0)
        plan.before_chunk_read("/s", 0)
        assert plan.fired["os_error"] == 2

    def test_seeded_probability_is_reproducible(self):
        def firing_pattern():
            plan = FaultPlan(FaultRule("worker_crash", times=100,
                                       probability=0.5), seed=42)
            return [plan.take_worker_crash(i) for i in range(20)]

        pattern = firing_pattern()
        assert pattern == firing_pattern()  # same seed, same coin flips
        assert any(pattern) and not all(pattern)

    def test_inject_installs_and_always_uninstalls(self):
        assert active_plan() is None
        with pytest.raises(RuntimeError):
            with inject(FaultRule("os_error")) as plan:
                assert active_plan() is plan
                raise RuntimeError("boom")
        assert active_plan() is None
