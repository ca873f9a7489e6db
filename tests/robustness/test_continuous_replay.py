"""Retry / quarantine and sanitisation in the continuous engine.

An epoch is a ``LiveRun``: a failed region stays alive under the run's
supervisor and is retried when the ranking picks it again, exactly as in
a finite run.
"""

import numpy as np
import pytest

from repro.contracts import c2
from repro.core import CAQEConfig
from repro.core.continuous import ContinuousCAQE
from repro.datagen import generate_pair
from repro.errors import RegionFailure
from repro.query import reference_evaluate, subspace_workload
from repro.relation import Relation
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy


def _slice(relation: Relation, start: int, stop: int) -> Relation:
    return relation.take(np.arange(start, stop), name=relation.name)


def _corrupt_rows(relation: Relation, rows, attribute) -> Relation:
    columns = {
        name: np.array(relation.column(name), copy=True)
        for name in relation.schema.names
    }
    columns[attribute][list(rows)] = np.nan
    return Relation(relation.name, relation.schema, columns)


@pytest.fixture(scope="module")
def workload():
    return subspace_workload(4, priority_scheme="uniform")


@pytest.fixture(scope="module")
def contracts(workload):
    return {q.name: c2(scale=1000.0) for q in workload}


@pytest.fixture(scope="module")
def pair():
    return generate_pair("independent", 90, 4, selectivity=0.08, seed=61)


def feed(engine, pair, chunks=((0, 30), (30, 60), (60, 90))):
    epochs = []
    for start, stop in chunks:
        epochs.append(
            engine.process_epoch(
                left_delta=_slice(pair.left, start, stop),
                right_delta=_slice(pair.right, start, stop),
            )
        )
    return epochs


class TestEpochReplay:
    def test_transient_failures_are_replayed_within_the_epoch(
        self, workload, contracts, pair
    ):
        plan = FaultPlan(FaultConfig(seed=3, region_failure_rate=0.3))
        engine = ContinuousCAQE(
            workload,
            contracts,
            CAQEConfig(
                enable_recovery=True,
                # Enough attempts that no region plausibly exhausts them
                # (0.3^12): every failure resolves by replay, none by
                # quarantine, so the answer must be exact.
                retry_policy=RetryPolicy(max_attempts=12),
                fault_plan=plan,
            ),
        )
        epochs = feed(engine, pair)
        assert sum(e.region_retries for e in epochs) > 0
        assert engine.stats.regions_quarantined == 0
        # Replay converges: the cumulative skyline still matches the
        # clean reference after every epoch.
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            assert engine.current_skyline(query.name) == ref.skyline_pairs

    def test_failure_without_recovery_propagates(
        self, workload, contracts, pair
    ):
        plan = FaultPlan(FaultConfig(seed=3, region_failure_rate=1.0))
        engine = ContinuousCAQE(
            workload, contracts, CAQEConfig(fault_plan=plan)
        )
        with pytest.raises(RegionFailure):
            feed(engine, pair, chunks=((0, 30),))

    def test_exhausted_retries_quarantine_but_epoch_completes(
        self, workload, contracts, pair
    ):
        plan = FaultPlan(FaultConfig(seed=3, persistent_failure_rate=0.3))
        engine = ContinuousCAQE(
            workload,
            contracts,
            CAQEConfig(
                enable_recovery=True,
                retry_policy=RetryPolicy(max_attempts=2),
                fault_plan=plan,
            ),
        )
        epochs = feed(engine, pair)
        assert sum(e.regions_quarantined for e in epochs) > 0
        assert engine.stats.regions_quarantined > 0

    def test_same_fault_seed_replays_identical_epochs(
        self, workload, contracts, pair
    ):
        def run():
            plan = FaultPlan(
                FaultConfig(
                    seed=5, region_failure_rate=0.2, persistent_failure_rate=0.1
                )
            )
            engine = ContinuousCAQE(
                workload,
                contracts,
                CAQEConfig(enable_recovery=True, fault_plan=plan),
            )
            feed(engine, pair)
            return (
                {q.name: engine.current_skyline(q.name) for q in workload},
                engine.stats.summary(),
            )

        assert run() == run()


class TestEpochSanitize:
    def test_dirty_delta_is_quarantined_per_epoch(
        self, workload, contracts, pair
    ):
        engine = ContinuousCAQE(
            workload, contracts, CAQEConfig(enable_sanitize=True)
        )
        measure = pair.left.schema.measure_names[0]
        dirty = _corrupt_rows(_slice(pair.left, 0, 30), [3, 7], measure)
        engine.process_epoch(
            left_delta=dirty, right_delta=_slice(pair.right, 0, 30)
        )
        assert engine.stats.tuples_quarantined == 2
        (key,) = engine.quarantine
        assert key.endswith("@epoch1")
        # The engine's answer matches the reference over the clean rows.
        clean_left = _slice(pair.left, 0, 30).take(
            [i for i in range(30) if i not in (3, 7)]
        )
        for query in workload:
            ref = reference_evaluate(
                query, clean_left, _slice(pair.right, 0, 30)
            )
            assert engine.current_skyline(query.name) == ref.skyline_pairs

    def test_clean_epochs_record_nothing(self, workload, contracts, pair):
        engine = ContinuousCAQE(
            workload, contracts, CAQEConfig(enable_sanitize=True)
        )
        feed(engine, pair)
        assert engine.stats.tuples_quarantined == 0
        assert engine.quarantine == {}
