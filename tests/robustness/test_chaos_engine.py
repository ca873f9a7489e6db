"""Property-based chaos tests for the fault-tolerant CAQE engine.

The robustness contract under test (docs/ARCHITECTURE.md §9):

* with the switches on but no faults injected, the engine is
  bit-identical to the baseline;
* identical fault seeds replay identical runs (traces, clock, charged
  comparisons, reported identities, degraded reports);
* no query is ever left unanswered — tuple-level results, degraded
  bounds, or both;
* progressive report streams never repeat an identity, even across
  retried regions;
* quarantining a region promotes its dependents instead of stranding
  them;
* every fault corner runs bit-identically under the write-ahead region
  journal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.figures import figure1_workload
from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.errors import BudgetExhausted, RegionFailure
from repro.query import reference_evaluate
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import (
    REASON_BUDGET,
    REASON_QUARANTINE,
    RetryPolicy,
)
from repro.robustness.sanitize import sanitize_relation


#: Data and fault seeds, and rows per table, of the journaled fault matrix.
MATRIX_SEEDS = (11, 23, 47)
MATRIX_ROWS = 80


def make_inputs(seed, cardinality=60):
    pair = generate_pair(
        "independent", cardinality, 4, selectivity=0.05, seed=seed
    )
    workload = figure1_workload()
    contracts = {q.name: c2(scale=100.0) for q in workload}
    return pair, workload, contracts


def run(pair, workload, contracts, **config_overrides):
    config = CAQEConfig(**config_overrides)
    return CAQE(config).run(pair.left, pair.right, workload, contracts)


def stepped_run(pair, workload, contracts, **config_overrides):
    """:func:`run` one region at a time, checking the run's region
    bookkeeping (``LiveRun.check_invariants``) after every step."""
    live = CAQE(CAQEConfig(**config_overrides)).open_run(
        pair.left, pair.right, workload, contracts
    )
    try:
        while not live.done:
            live.step()
            live.check_invariants()
    finally:
        live.close()
    return live.finalize()


def observables(result):
    return (
        result.stats.region_trace,
        result.stats.skyline_comparisons,
        result.stats.elapsed,
        result.reported,
        result.degraded,
        result.stats.summary(),
    )


def assert_answered_and_duplicate_free(result, workload):
    for query in workload:
        assert result.reported[query.name] or result.is_degraded(query.name)
        keys = result.logs[query.name].keys
        assert len(keys) == len(set(keys)), query.name


class TestDisabledEquivalence:
    @given(data_seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_switches_on_without_faults_is_bit_identical(self, data_seed):
        pair, workload, contracts = make_inputs(data_seed)
        baseline = run(pair, workload, contracts)
        robust = run(
            pair, workload, contracts,
            enable_sanitize=True, enable_recovery=True,
        )
        assert observables(robust) == observables(baseline)
        assert robust.stats.tuples_quarantined == 0
        assert robust.stats.region_retries == 0
        assert not robust.degraded

    def test_inactive_fault_plan_is_also_identical(self):
        pair, workload, contracts = make_inputs(42)
        baseline = run(pair, workload, contracts)
        robust = run(
            pair, workload, contracts,
            enable_sanitize=True, enable_recovery=True,
            fault_plan=FaultPlan(FaultConfig(seed=42)),
        )
        assert observables(robust) == observables(baseline)


class TestDeterminism:
    @given(fault_seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_same_fault_seed_replays_identically(self, fault_seed):
        pair, workload, contracts = make_inputs(7)
        plan = FaultPlan(
            FaultConfig(
                seed=fault_seed,
                corrupt_fraction=0.05,
                region_failure_rate=0.15,
                persistent_failure_rate=0.05,
                straggler_rate=0.2,
            )
        )
        kwargs = dict(
            enable_sanitize=True, enable_recovery=True, fault_plan=plan,
            query_time_budget=60.0 * 400.0,
        )
        first = run(pair, workload, contracts, **kwargs)
        second = run(pair, workload, contracts, **kwargs)
        assert observables(first) == observables(second)
        assert_answered_and_duplicate_free(first, workload)


class TestFailureRecovery:
    @given(fault_seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_every_query_answered_under_region_failures(self, fault_seed):
        pair, workload, contracts = make_inputs(7)
        plan = FaultPlan(
            FaultConfig(
                seed=fault_seed,
                region_failure_rate=0.2,
                persistent_failure_rate=0.05,
            )
        )
        result = run(
            pair, workload, contracts,
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        )
        assert_answered_and_duplicate_free(result, workload)
        for reports in result.degraded.values():
            assert all(r.reason == REASON_QUARANTINE for r in reports)

    def test_unhandled_region_failure_propagates_without_recovery(self):
        pair, workload, contracts = make_inputs(7)
        plan = FaultPlan(FaultConfig(seed=1, region_failure_rate=1.0))
        with pytest.raises(RegionFailure):
            run(pair, workload, contracts, fault_plan=plan)

    def test_all_regions_failing_degrades_every_query(self):
        """Persistent failure everywhere: dependents must still be reached.

        If quarantine stranded a region's dependents the run would end
        with live regions never drained; instead every region must be
        promoted, attempted, and quarantined in turn, and every query
        must close with degraded bounds.
        """
        pair, workload, contracts = make_inputs(7)
        baseline = run(pair, workload, contracts)
        plan = FaultPlan(FaultConfig(seed=1, persistent_failure_rate=1.0))
        result = stepped_run(
            pair, workload, contracts,
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=2),
            fault_plan=plan,
        )
        for query in workload:
            assert not result.reported[query.name]
            assert result.is_degraded(query.name)
        # No tuple-level pruning happened, so at least every region the
        # baseline processed must have been promoted and quarantined.
        assert result.stats.regions_quarantined >= len(
            set(baseline.stats.region_trace)
        )
        assert result.stats.region_retries > 0


class TestBudgetDegradation:
    def test_exhausted_budget_yields_flagged_bounds(self):
        pair, workload, contracts = make_inputs(7, cardinality=100)
        stragglers = FaultPlan(
            FaultConfig(seed=5, straggler_rate=0.5, straggler_factor=8.0)
        )
        result = stepped_run(
            pair, workload, contracts,
            enable_recovery=True,
            fault_plan=stragglers,
            query_time_budget=2000.0,
        )
        assert result.stats.degraded_reports > 0
        assert_answered_and_duplicate_free(result, workload)
        degraded_queries = [
            q.name for q in workload if result.is_degraded(q.name)
        ]
        assert degraded_queries
        for name in degraded_queries:
            for report in result.degraded[name]:
                assert report.reason == REASON_BUDGET
                assert report.query_name == name
                assert len(report.lower) == len(report.upper)

    def test_budget_without_recovery_fails_loudly(self):
        pair, workload, contracts = make_inputs(7)
        with pytest.raises(BudgetExhausted, match="enable_recovery"):
            run(pair, workload, contracts, query_time_budget=1.0)

    def test_generous_budget_never_degrades(self):
        pair, workload, contracts = make_inputs(7)
        baseline = run(pair, workload, contracts)
        result = run(
            pair, workload, contracts,
            enable_recovery=True,
            query_time_budget=baseline.stats.elapsed * 10.0,
        )
        assert observables(result) == observables(baseline)
        assert not result.degraded


class TestCorruptionAbsorption:
    def test_sanitizer_recovers_the_clean_reference_answer(self):
        pair, workload, contracts = make_inputs(7, cardinality=100)
        plan = FaultPlan(FaultConfig(seed=9, corrupt_fraction=0.08))
        result = run(
            pair, workload, contracts,
            enable_sanitize=True, fault_plan=plan,
        )
        assert result.stats.tuples_quarantined > 0
        assert set(result.quarantine) == {"left", "right"}
        clean_left, _ = sanitize_relation(
            plan.corrupt_relation(pair.left, 0)[0]
        )
        clean_right, _ = sanitize_relation(
            plan.corrupt_relation(pair.right, 1)[0]
        )
        for query in workload:
            reference = reference_evaluate(query, clean_left, clean_right)
            assert result.reported[query.name] == reference.skyline_pairs


def matrix_corner(corner, seed):
    """Config overrides of one fault corner at ``MATRIX_ROWS`` rows."""
    if corner == "noop":
        return dict(enable_sanitize=True, enable_recovery=True)
    if corner == "corrupt":
        plan = FaultConfig(seed=seed, corrupt_fraction=0.05)
        return dict(enable_sanitize=True, fault_plan=FaultPlan(plan))
    if corner == "failures":
        plan = FaultConfig(
            seed=seed, region_failure_rate=0.15, persistent_failure_rate=0.05
        )
        return dict(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=FaultPlan(plan),
        )
    if corner == "budget":
        plan = FaultConfig(seed=seed, straggler_rate=0.3, straggler_factor=6.0)
        return dict(
            enable_recovery=True,
            fault_plan=FaultPlan(plan),
            query_time_budget=MATRIX_ROWS * 150.0,
        )
    plan = FaultConfig(
        seed=seed,
        corrupt_fraction=0.04,
        region_failure_rate=0.1,
        persistent_failure_rate=0.04,
        straggler_rate=0.2,
        straggler_factor=4.0,
    )
    return dict(
        enable_sanitize=True,
        enable_recovery=True,
        fault_plan=FaultPlan(plan),
        query_time_budget=MATRIX_ROWS * 400.0,
    )


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
@pytest.mark.parametrize(
    "corner", ["noop", "corrupt", "failures", "budget", "everything"]
)
def test_journaled_fault_corner_equals_plain(tmp_path, corner, seed):
    pair, workload, contracts = make_inputs(seed, cardinality=MATRIX_ROWS)
    overrides = matrix_corner(corner, seed)
    plain = run(pair, workload, contracts, **overrides)
    journaled = run(
        pair, workload, contracts,
        enable_journal=True, journal_dir=str(tmp_path), **overrides,
    )
    assert observables(journaled) == observables(plain)
    if corner == "failures":
        assert plain.stats.region_retries > 0
