"""Unit tests for the retry/quarantine state machine."""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.robustness.recovery import (
    QUARANTINE,
    REASON_QUARANTINE,
    RETRY,
    DegradedReport,
    RegionSupervisor,
    RetryPolicy,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            max_attempts=6, backoff_base=50.0, backoff_factor=2.0,
            backoff_cap=300.0,
        )
        assert [policy.backoff(n) for n in range(1, 6)] == [
            50.0, 100.0, 200.0, 300.0, 300.0,
        ]

    def test_backoff_requires_at_least_one_failure(self):
        with pytest.raises(ExecutionError, match="failure_count"):
            RetryPolicy().backoff(0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base": -1.0}, "non-negative"),
            ({"backoff_cap": -1.0}, "non-negative"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
        ],
    )
    def test_validation(self, overrides, match):
        with pytest.raises(ExecutionError, match=match):
            RetryPolicy(**overrides)


class TestRetryPolicyEdgeCases:
    def test_zero_backoff_base_is_always_zero(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff(1) == 0.0
        assert policy.backoff(10_000) == 0.0

    def test_huge_failure_count_saturates_at_cap(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=50.0, backoff_factor=2.0,
            backoff_cap=800.0,
        )
        # 50 * 2**9999 overflows a float; the cap must absorb it.
        assert policy.backoff(10_000) == 800.0

    def test_huge_factor_saturates_at_cap(self):
        policy = RetryPolicy(
            backoff_base=1.0, backoff_factor=1e308, backoff_cap=500.0
        )
        assert policy.backoff(3) == 500.0

    def test_normal_range_matches_min_semantics(self):
        policy = RetryPolicy(
            max_attempts=8, backoff_base=50.0, backoff_factor=2.0,
            backoff_cap=800.0,
        )
        assert [policy.backoff(n) for n in range(1, 8)] == [
            min(50.0 * 2.0 ** (n - 1), 800.0) for n in range(1, 8)
        ]

    def test_zero_retry_policy_exposes_max_retries(self):
        assert RetryPolicy(max_attempts=1).max_retries == 0
        assert RetryPolicy(max_attempts=3).max_retries == 2

    def test_zero_retry_policy_still_prices_backoff(self):
        # A max_attempts=1 policy never schedules a retry, but backoff()
        # must stay well-defined (the supervisor may price hypothetical
        # waits for reporting).
        policy = RetryPolicy(max_attempts=1, backoff_base=50.0)
        assert policy.backoff(1) == 50.0


class TestRegionSupervisor:
    def test_retry_until_attempts_exhausted_then_quarantine(self):
        supervisor = RegionSupervisor(RetryPolicy(max_attempts=3))
        assert supervisor.record_failure(7) == RETRY
        assert supervisor.record_failure(7) == RETRY
        assert supervisor.record_failure(7) == QUARANTINE
        assert supervisor.is_quarantined(7)
        assert not supervisor.is_quarantined(8)

    def test_single_attempt_policy_quarantines_immediately(self):
        supervisor = RegionSupervisor(RetryPolicy(max_attempts=1))
        assert supervisor.record_failure(1) == QUARANTINE

    def test_next_attempt_counts_from_one(self):
        supervisor = RegionSupervisor(RetryPolicy(max_attempts=5))
        assert supervisor.next_attempt(3) == 1
        supervisor.record_failure(3)
        assert supervisor.next_attempt(3) == 2

    def test_failures_are_tracked_per_region(self):
        supervisor = RegionSupervisor(RetryPolicy(max_attempts=2))
        supervisor.record_failure(1)
        assert supervisor.record_failure(2) == RETRY
        assert supervisor.record_failure(1) == QUARANTINE
        assert not supervisor.is_quarantined(2)

    def test_backoff_for_follows_the_failure_count(self):
        supervisor = RegionSupervisor(
            RetryPolicy(max_attempts=4, backoff_base=10.0, backoff_factor=3.0,
                        backoff_cap=1000.0)
        )
        supervisor.record_failure(5)
        assert supervisor.backoff_for(5) == 10.0
        supervisor.record_failure(5)
        assert supervisor.backoff_for(5) == 30.0

    def test_backoff_for_without_failure_raises(self):
        with pytest.raises(ExecutionError, match="no recorded failure"):
            RegionSupervisor().backoff_for(9)


class TestDegradedReport:
    def test_is_immutable(self):
        report = DegradedReport(
            query_name="Q1", region_id=3, lower=(0.0,), upper=(1.0,),
            est_join_count=5.0, reason="budget", timestamp=12.0,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.reason = "quarantine"


class TestAllRegionsQuarantined:
    """Every region fails persistently before any tuple-level work.

    The answer each query receives is then *pure MQLA*: no tuple-level
    comparisons are ever charged, the reported identity sets are empty,
    and every region the query touches contributes one quarantine-flagged
    :class:`DegradedReport` carrying its coarse bounds.
    """

    @pytest.fixture(scope="class")
    def total_loss_run(self):
        from repro.bench.figures import figure1_workload
        from repro.contracts import c2
        from repro.core import CAQE, CAQEConfig
        from repro.datagen import generate_pair
        from repro.robustness.faults import FaultConfig, FaultPlan

        pair = generate_pair(
            "independent", 60, 4, selectivity=0.05, seed=11
        )
        workload = figure1_workload()
        contracts = {q.name: c2(scale=100.0) for q in workload}
        config = CAQEConfig(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=1),
            fault_plan=FaultPlan(
                FaultConfig(seed=11, persistent_failure_rate=1.0)
            ),
        )
        result = CAQE(config).run(
            pair.left, pair.right, workload, contracts
        )
        return result, workload

    def test_no_tuple_level_evaluation_happened(self, total_loss_run):
        result, _ = total_loss_run
        assert result.stats.skyline_comparisons == 0
        assert result.stats.region_trace == []
        assert result.stats.regions_quarantined > 0
        # The coarse MQLA phase still ran — that is where the bounds
        # in the degraded reports come from.
        assert result.stats.coarse_comparisons > 0

    def test_every_query_gets_a_pure_mqla_answer(self, total_loss_run):
        result, workload = total_loss_run
        for query in workload:
            assert result.reported[query.name] == set()
            assert result.is_degraded(query.name)
            reports = result.degraded[query.name]
            assert reports, query.name
            # Bounds live in the shared output space, which covers at
            # least the query's own preference dimensions.
            dims = len(query.preference.dims)
            for report in reports:
                assert report.reason == REASON_QUARANTINE
                assert len(report.lower) == len(report.upper)
                assert len(report.lower) >= dims
                assert all(
                    lo <= hi
                    for lo, hi in zip(report.lower, report.upper)
                )
                assert report.est_join_count >= 0.0

    def test_degraded_report_count_matches_stats(self, total_loss_run):
        result, _ = total_loss_run
        total = sum(len(r) for r in result.degraded.values())
        assert total == result.stats.degraded_reports
