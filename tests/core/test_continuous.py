"""Tests for epoch-based continuous CAQE."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.core.continuous import ContinuousCAQE
from repro.datagen import generate_pair
from repro.datagen.tables import table_schema
from repro.errors import ExecutionError
from repro.query import reference_evaluate, subspace_workload
from repro.relation import Relation


def _slice(relation: Relation, start: int, stop: int) -> Relation:
    return relation.take(np.arange(start, stop), name=relation.name)


def _keyed_batch(rng, n, low=0.0, high=100.0, key=0) -> Relation:
    """``n`` uniform rows in ``[low, high)`` whose join keys all equal ``key``."""
    columns = {f"m{i}": low + rng.random(n) * (high - low) for i in range(1, 5)}
    columns["jc1"] = np.full(n, key)
    columns["jc2"] = np.full(n, key)
    return Relation("R", table_schema(4, 2), columns)


@pytest.fixture(scope="module")
def workload():
    return subspace_workload(4, priority_scheme="uniform")


@pytest.fixture(scope="module")
def contracts(workload):
    return {q.name: c2(scale=1000.0) for q in workload}


@pytest.fixture(scope="module")
def pair():
    return generate_pair("independent", 120, 4, selectivity=0.08, seed=61)


@pytest.fixture(scope="module")
def small_pair():
    """Half the rows: the oracle, the ablation grid and the property test
    run the full optimizer on every delta region, many times over."""
    return generate_pair("independent", 60, 4, selectivity=0.08, seed=61)


#: The coarse-pruning / tuple-discard ablation corners.
CORNERS = [
    dict(enable_coarse_pruning=pruning, enable_tuple_discard=discard)
    for pruning in (True, False)
    for discard in (True, False)
]

#: (objective, corner, data fixture): the default config on the full
#: 120-row pair, then every objective x corner on the 60-row pair.
EPOCH_CASES = [("contract", CORNERS[0], "pair")] + [
    (objective, knobs, "small_pair")
    for objective in ("contract", "count", "scan")
    for knobs in CORNERS
]


def _case_id(case) -> str:
    objective, knobs, data = case
    return (
        f"{objective}-prune{knobs['enable_coarse_pruning']:d}"
        f"-discard{knobs['enable_tuple_discard']:d}-{data}"
    )


class TestEpochInvariant:
    @pytest.mark.parametrize("case", EPOCH_CASES, ids=_case_id)
    def test_cumulative_skyline_matches_reference_after_each_epoch(
        self, workload, contracts, request, case
    ):
        objective, knobs, data = case
        pair = request.getfixturevalue(data)
        engine = ContinuousCAQE(
            workload, contracts, CAQEConfig(objective=objective, **knobs)
        )
        third = pair.left.cardinality // 3
        for start in (0, third, 2 * third):
            stop = start + third
            engine.process_epoch(
                left_delta=_slice(pair.left, start, stop),
                right_delta=_slice(pair.right, start, stop),
            )
            cumulative_left = _slice(pair.left, 0, stop)
            cumulative_right = _slice(pair.right, 0, stop)
            for query in workload:
                ref = reference_evaluate(query, cumulative_left, cumulative_right)
                assert engine.current_skyline(query.name) == ref.skyline_pairs

    def test_changelog_reconstructs_state(self, workload, contracts, pair):
        engine = ContinuousCAQE(workload, contracts)
        live: dict[str, set] = {q.name: set() for q in workload}
        for start, stop in [(0, 60), (60, 120)]:
            result = engine.process_epoch(
                left_delta=_slice(pair.left, start, stop),
                right_delta=_slice(pair.right, start, stop),
            )
            for query in workload:
                live[query.name] |= result.new_results[query.name]
                live[query.name] -= result.retracted[query.name]
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            assert live[query.name] == ref.skyline_pairs

    def test_one_sided_epochs(self, workload, contracts, pair):
        """Deltas may arrive on only one table."""
        engine = ContinuousCAQE(workload, contracts)
        engine.process_epoch(
            left_delta=_slice(pair.left, 0, 120),
            right_delta=_slice(pair.right, 0, 60),
        )
        engine.process_epoch(right_delta=_slice(pair.right, 60, 120))
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            assert engine.current_skyline(query.name) == ref.skyline_pairs

    def test_retractions_happen(self, workload, contracts):
        """A second epoch with dominating data must retract results."""
        rng = np.random.default_rng(5)

        def batch(low, high, n):
            return _keyed_batch(rng, n, low, high)  # everything joins

        engine = ContinuousCAQE(workload, contracts)
        first = engine.process_epoch(
            left_delta=batch(50.0, 100.0, 20), right_delta=batch(50.0, 100.0, 20)
        )
        assert any(first.new_results[q.name] for q in workload)
        second = engine.process_epoch(
            left_delta=batch(1.0, 10.0, 10), right_delta=batch(1.0, 10.0, 10)
        )
        assert any(second.retracted[q.name] for q in workload)
        assert all(second.net_change(q.name) is not None for q in workload)


    def test_epochs_that_join_nothing(self, workload, contracts):
        """A one-table stream and a delta matching no join key are empty
        epochs, not errors; the next joining delta catches up."""
        rng = np.random.default_rng(5)

        def batch(key):
            return _keyed_batch(rng, 10, key=key)

        engine = ContinuousCAQE(workload, contracts)
        for delta in (dict(left_delta=batch(1)), dict(right_delta=batch(2))):
            result = engine.process_epoch(**delta)
            assert not any(result.new_results.values())
        assert engine.stats.regions_processed == 0
        result = engine.process_epoch(right_delta=batch(1))
        assert any(result.new_results.values())
        for query in workload:
            ref = reference_evaluate(query, engine.left, engine.right)
            assert engine.current_skyline(query.name) == ref.skyline_pairs


class TestSingleEpochOracle:
    """One epoch holding every row *is* a finite run: the epoch is a
    ``LiveRun`` over the same regions, so every observable of
    ``CAQE(cfg).run`` must come out bit for bit."""

    @pytest.mark.parametrize(
        "knobs",
        [{}, dict(enable_coarse_pruning=False, enable_tuple_discard=False)],
        ids=["default", "no-pruning-no-discard"],
    )
    def test_one_epoch_equals_the_batch_run(
        self, workload, contracts, small_pair, knobs
    ):
        pair = small_pair
        config = CAQEConfig(**knobs)
        batch = CAQE(config).run(pair.left, pair.right, workload, contracts)
        engine = ContinuousCAQE(workload, contracts, config)
        epoch = engine.process_epoch(
            left_delta=pair.left, right_delta=pair.right
        )
        for field in (
            "skyline_comparisons",
            "elapsed",
            "region_trace",
            "regions_processed",
            "regions_discarded",
        ):
            assert getattr(engine.stats, field) == getattr(
                batch.stats, field
            ), field
        if not knobs:
            assert engine.stats.regions_discarded > 0
        assert epoch.virtual_time == batch.stats.elapsed
        assert epoch.new_results == batch.reported
        assert epoch.retracted == {q.name: set() for q in workload}
        for query in workload:
            events = engine.logs[query.name].events
            assert [(e.key, e.timestamp) for e in events] == [
                (e.key, e.timestamp) for e in batch.logs[query.name].events
            ]


class TestChangelogProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=59),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        one_sided=st.booleans(),
    )
    def test_reported_set_is_current_minus_previous(
        self, workload, contracts, small_pair, cuts, one_sided
    ):
        """Each epoch reports progressively exactly the results that
        entered the skyline and retracts exactly those that left it."""
        engine = ContinuousCAQE(workload, contracts)
        pair = small_pair
        bounds = [0, *sorted(cuts), 60]
        previous = {q.name: set() for q in workload}
        for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            right = _slice(pair.right, start, stop)
            if one_sided and index % 2:
                right = None  # a left-only epoch
            result = engine.process_epoch(
                left_delta=_slice(pair.left, start, stop), right_delta=right
            )
            for query in workload:
                current = engine.current_skyline(query.name)
                before = previous[query.name]
                assert result.new_results[query.name] == current - before
                assert result.retracted[query.name] == before - current
                previous[query.name] = current


class TestApiContract:
    def test_empty_epoch_rejected(self, workload, contracts):
        engine = ContinuousCAQE(workload, contracts)
        with pytest.raises(ExecutionError):
            engine.process_epoch()

    def test_query_time_budget_rejected(self, workload, contracts):
        """The clock is cumulative across epochs: a budget would lapse
        once and then degrade every later epoch."""
        with pytest.raises(ExecutionError, match="query_time_budget"):
            ContinuousCAQE(
                workload, contracts, CAQEConfig(query_time_budget=1e6)
            )

    def test_missing_contract_rejected(self, workload, contracts):
        incomplete = {k: v for k, v in contracts.items() if k != "Q2"}
        with pytest.raises(ExecutionError):
            ContinuousCAQE(workload, incomplete)

    def test_logs_are_monotonic(self, workload, contracts, pair):
        engine = ContinuousCAQE(workload, contracts, CAQEConfig(target_cells=4))
        for start, stop in [(0, 60), (60, 120)]:
            engine.process_epoch(
                left_delta=_slice(pair.left, start, stop),
                right_delta=_slice(pair.right, start, stop),
            )
        for query in workload:
            ts = engine.logs[query.name].timestamps
            assert np.all(np.diff(ts) >= 0)

    def test_virtual_time_advances(self, workload, contracts, pair):
        engine = ContinuousCAQE(workload, contracts)
        r1 = engine.process_epoch(
            left_delta=_slice(pair.left, 0, 60),
            right_delta=_slice(pair.right, 0, 60),
        )
        r2 = engine.process_epoch(
            left_delta=_slice(pair.left, 60, 120),
            right_delta=_slice(pair.right, 60, 120),
        )
        assert r2.virtual_time > r1.virtual_time
        assert r2.epoch == 2
