"""Equivalence of the engine's execution corners, and of its estimator
to the from-scratch recompute.

The robustness layer with no faults, the journal and the
scheduler-owned control flow are pure plumbing: every observable of a run
— the reported identity sets, the charged comparison counts (Figure 10b),
the virtual clock, and the *sequence of regions processed* — must be
identical with them on or off.  The optimizer's incrementally maintained
ProgEst matrix must equal ``prog_ratio × cardinality`` recomputed from
scratch at every iteration, and its resident state must pass
``BenefitModel.check_invariants`` after every region.  These tests pin
that down on the paper's Figure 1 workload, on a randomized 8-query
workload, on a ``sched_bound``-shaped run and on a correlated run whose
discard step empties hundreds of lineage pairs at once; the tuple-level
kernels have their own oracles (``tests/skyline/test_batch_insert.py``,
``tests/plan/conftest.py``).
"""

import tempfile

import numpy as np
import pytest

from repro.bench.figures import figure1_workload
from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.core.benefit import EXACT_DOMINATOR_LIMIT
from repro.datagen import generate_pair
from repro.query import (
    JoinCondition,
    Preference,
    SkylineJoinQuery,
    add,
    reference_evaluate,
)
from repro.query.workload import Workload, subspace_workload
from repro.rng import ensure_rng

#: The corners of the execution engine that must not move an observable.
MODES = {
    "default": {},
    # Robustness switches on with no faults injected must also be a
    # pure no-op (docs/ARCHITECTURE.md §9).
    "robust-noop": {"enable_sanitize": True, "enable_recovery": True},
    # Write-ahead journaling + checkpoints must also be a pure no-op
    # (docs/ARCHITECTURE.md §10); journal_dir is filled in per run.
    "journal": {"enable_journal": True, "checkpoint_every_regions": 5},
}

#: ``(skyline_comparisons, virtual time, regions processed)`` of the two
#: scenarios as the tuple-at-a-time, rescan-every-root engine charged them
#: (recorded from its last commit, 5198122) — the sequential-BNL charge
#: of Figure 10b, which no execution strategy may move.
GOLDEN = {
    "fig1": (10239, 32385.285784015876, 185),
    "random8": (30613, 69498.9839704813, 165),
}


def _observables(result):
    stats = result.stats
    return (stats.skyline_comparisons, stats.elapsed, len(stats.region_trace))


def random_workload(n_queries: int, dims: int, seed: int) -> Workload:
    """``n_queries`` random skyline subspaces over ``dims`` dimensions."""
    rng = ensure_rng(seed)
    jc = JoinCondition.on("jc1", name="JC1")
    fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in range(1, dims + 1))
    names = tuple(f"d{i}" for i in range(1, dims + 1))
    queries = []
    for k in range(n_queries):
        size = int(rng.integers(2, dims + 1))
        combo = sorted(rng.choice(dims, size=size, replace=False).tolist())
        queries.append(
            SkylineJoinQuery(
                name=f"Q{k + 1}",
                join_condition=jc,
                functions=fns,
                preference=Preference(tuple(names[i] for i in combo)),
                priority=float(rng.choice([0.3, 0.6, 0.9])),
            )
        )
    return Workload(queries)


#: Estimator oracle cases: ``name -> () -> (pair, workload, C2 scale,
#: config)``.  Every case reaches both resident transitions of the
#: estimator (asserted by the oracle test from the test side).
ORACLE_CASES = {
    "fig1": lambda: (
        generate_pair("independent", 150, 4, selectivity=0.05, seed=23),
        figure1_workload(),
        100.0,
        CAQEConfig(workers=0),
    ),
    # Subspace widths 2-4.
    "random8": lambda: (
        generate_pair("anticorrelated", 100, 4, selectivity=0.06, seed=91),
        random_workload(8, 4, seed=2014),
        80.0,
        CAQEConfig(workers=0),
    ),
    # Shaped like perfbench's sched_bound: many live regions with tiny
    # joins, the 11-query workload in three width groups.
    "sched_bound": lambda: (
        generate_pair("anticorrelated", 150, 4, selectivity=0.003, seed=5),
        subspace_workload(4),
        50.0,
        CAQEConfig(workers=0, target_cells=16),
    ),
    # Correlated: the first regions' discard step deactivates hundreds of
    # lineage pairs at once, one burst of events into one flush.
    "correlated_burst": lambda: (
        generate_pair("correlated", 600, 4, selectivity=0.01, seed=7),
        subspace_workload(4),
        50.0,
        CAQEConfig(workers=0, target_cells=32),
    ),
}


def _lineage_pairs(alive):
    """How many (alive region, query) lineage pairs remain."""
    return sum(bin(region.active_rql).count("1") for region in alive.values())


def _run_all_modes(pair, workload, contracts):
    results = {}
    for mode, overrides in MODES.items():
        with tempfile.TemporaryDirectory(prefix="caqe-equiv-") as scratch:
            if overrides.get("enable_journal"):
                overrides = {**overrides, "journal_dir": scratch}
            config = CAQEConfig(**overrides)
            results[mode] = CAQE(config).run(
                pair.left, pair.right, workload, contracts
            )
    return results


def _case_runs(case):
    pair, workload, scale, _ = ORACLE_CASES[case]()
    contracts = {q.name: c2(scale=scale) for q in workload}
    return pair, workload, _run_all_modes(pair, workload, contracts)


@pytest.fixture(scope="module")
def fig1_runs():
    return _case_runs("fig1")


@pytest.fixture(scope="module")
def random8_runs():
    return _case_runs("random8")


class TestFigure1Workload:
    def test_all_modes_report_the_reference_answer(self, fig1_runs):
        pair, workload, results = fig1_runs
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            for mode, result in results.items():
                assert result.reported[query.name] == ref.skyline_pairs, mode

    # The estimator oracle runs on every ORACLE_CASES entry; Figure 1
    # was its first case.
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_cached_scheduler_picks_the_naive_region_sequence(self, case, request):
        """Before every region of the run: the cached ProgEst matrix equals
        ``prog_ratio × cardinality`` recomputed from scratch, bit for bit,
        and ranking the roots on the from-scratch matrix picks the region
        the engine then processes; after every region the estimator's
        resident state passes ``check_invariants``, and so does the run's
        region bookkeeping (``LiveRun.check_invariants``).

        The run must reach both resident transitions, counted here from
        the reach sets: a small box whose reach set shrinks from over
        ``EXACT_DOMINATOR_LIMIT`` into the exact branch, and a reach set
        that empties."""
        pair, workload, scale, config = ORACLE_CASES[case]()
        contracts = {q.name: c2(scale=scale) for q in workload}
        if case in ("fig1", "random8"):  # run by the module's fixtures already
            reference = request.getfixturevalue(f"{case}_runs")[2]["default"]
        else:
            reference = CAQE(config).run(pair.left, pair.right, workload, contracts)
        live = CAQE(config).open_run(pair.left, pair.right, workload, contracts)
        rs = live.rs
        benefit, trace = rs.benefit, rs.stats.region_trace
        last_reach = {}
        switched = emptied = burst = 0
        try:
            while not live.done:
                root_arr = rs.graph.roots()
                if not root_arr.size:
                    root_arr = rs.graph.force_roots()
                assert set(root_arr.tolist()) <= rs.alive.keys()
                t_c, prog = benefit.estimate_roots_arrays(rid_arr=root_arr)
                scratch = np.zeros((len(root_arr), len(workload)))
                for k, rid in enumerate(root_arr.tolist()):
                    region = rs.alive[rid]
                    for qi in range(len(workload)):
                        if not region.serves(qi):
                            continue
                        ids = benefit._reaching_dominators(region, qi)[0]
                        before = last_reach.get((rid, qi), 0)
                        small = region.cell_count <= benefit.exact_cell_limit
                        switched += small and before > EXACT_DOMINATOR_LIMIT >= len(ids) > 0
                        emptied += before > 0 == len(ids)
                        last_reach[(rid, qi)] = len(ids)
                        scratch[k, qi] = benefit.prog_ratio(
                            region, qi
                        ) * benefit.cardinality(region, qi)
                assert prog.tolist() == scratch.tolist()
                scores = benefit.csm_batch_arrays(
                    t_c, scratch, rs.weights, rs.stats.clock.now()
                )
                naive_pick = int(root_arr[np.argmax(scores)])
                step = len(trace)
                lineage = _lineage_pairs(rs.alive)
                live.step()
                burst = max(burst, lineage - _lineage_pairs(rs.alive))
                benefit.check_invariants()
                live.check_invariants()
                assert trace[step] == naive_pick
        finally:
            live.close()
        assert trace == reference.stats.region_trace
        assert len(trace) > 0
        assert switched > 0 and emptied > 0
        if case == "correlated_burst":
            assert burst >= 200

    def test_comparisons_and_clock_are_bit_identical(self, fig1_runs):
        _, _, results = fig1_runs
        for mode, result in results.items():
            assert _observables(result) == GOLDEN["fig1"], mode


class TestRandomizedWorkload:
    def test_all_modes_agree_on_every_observable(self, random8_runs):
        _, workload, results = random8_runs
        ref = results["default"]
        for mode, result in results.items():
            for query in workload:
                assert result.reported[query.name] == ref.reported[query.name]
            assert _observables(result) == GOLDEN["random8"], mode
            assert result.stats.region_trace == ref.stats.region_trace, mode

    def test_randomized_answers_match_reference(self, random8_runs):
        pair, workload, results = random8_runs
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            assert (
                results["default"].reported[query.name]
                == ref.skyline_pairs
            )


def _serve_single_tenant(pair, workload, contracts, policy):
    """One submission through the multi-tenant region scheduler."""
    from repro.serving import RegionScheduler

    with RegionScheduler(pair.left, pair.right, policy=policy) as sched:
        ticket = sched.submit(workload, contracts)
        sched.drain()
        outcome = ticket.result(timeout=120.0)
    assert outcome.status == "answered"
    return outcome.result


class TestInterleavedSingleTenantCorner:
    """Scheduler-owned control flow is one more ablation corner: a
    single-tenant run served region-by-region through the multi-tenant
    scheduler must be bit-identical to an engine-owned ``CAQE.run``
    (docs/ARCHITECTURE.md §13.2) — under both scheduling policies."""

    @pytest.mark.parametrize("policy", ["benefit", "fifo"])
    def test_fig1_observables_are_bit_identical(self, fig1_runs, policy):
        pair, workload, results = fig1_runs
        contracts = {q.name: c2(scale=100.0) for q in workload}
        served = _serve_single_tenant(pair, workload, contracts, policy)
        ref = results["default"]
        assert served.reported == ref.reported
        assert served.stats.region_trace == ref.stats.region_trace
        assert (
            served.stats.skyline_comparisons
            == ref.stats.skyline_comparisons
        )
        assert served.stats.elapsed == ref.stats.elapsed

    @pytest.mark.parametrize("policy", ["benefit", "fifo"])
    def test_random8_observables_are_bit_identical(
        self, random8_runs, policy
    ):
        pair, workload, results = random8_runs
        contracts = {q.name: c2(scale=80.0) for q in workload}
        served = _serve_single_tenant(pair, workload, contracts, policy)
        ref = results["default"]
        assert served.reported == ref.reported
        assert served.stats.region_trace == ref.stats.region_trace
        assert served.stats.elapsed == ref.stats.elapsed


#: The two fixed-size serial cells ``tools.bench_gate`` compared exactly
#: while it also timed a worker pool: ``(regions_processed,
#: skyline_comparisons, virtual_time, average_satisfaction)`` copied
#: from the last passing ``BENCH_history.jsonl`` entry.  Sizes are fixed,
#: so ``REPRO_SCALE`` does not reach them.
GATE_GOLDEN = {
    "fig9_figure1_c2": (166, 127160, 307852.11668581236, 0.161239),
    "fig11_subspace_c2": (173, 89549, 211081.7579754432, 0.170302),
}


def _gate_cell(name):
    from repro.bench.figures import workload_of_size

    if name == "fig9_figure1_c2":
        pair = generate_pair("independent", 300, 4, selectivity=0.1, seed=23)
        workload = workload_of_size(4, "C2")
    else:
        pair = generate_pair("independent", 300, 4, selectivity=0.05, seed=23)
        workload = subspace_workload(4, priority_scheme="uniform")
    return pair, workload


@pytest.mark.parametrize("name", list(GATE_GOLDEN))
def test_gate_scenarios_match_their_recorded_observables(name):
    pair, workload = _gate_cell(name)
    contracts = {q.name: c2(scale=300.0) for q in workload}
    result = CAQE(CAQEConfig(workers=0)).run(
        pair.left, pair.right, workload, contracts
    )
    stats = result.stats
    assert (
        stats.regions_processed,
        stats.skyline_comparisons,
        stats.elapsed,
        round(result.average_satisfaction(), 6),
    ) == GATE_GOLDEN[name]
