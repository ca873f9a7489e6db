"""Integration: per-query selections through every execution strategy.

Also contains the multi-join-condition regression test: queries with
different join conditions may share skyline subspaces, and a tuple from one
condition's join must never evict another condition's results (the
CQL-intersection rule of Section 6, enforced by WorkloadPlan's grouping).
"""

import pytest

from repro.baselines import all_strategy_names, make_strategy
from repro.contracts import c2
from repro.datagen import generate_pair
from repro.query import (
    AttributeFilter,
    JoinCondition,
    Op,
    Preference,
    SkylineJoinQuery,
    Workload,
    add,
    reference_evaluate,
)


@pytest.fixture(scope="module")
def pair():
    return generate_pair("independent", 150, 4, joins=2, selectivity=0.05, seed=41)


@pytest.fixture(scope="module")
def filtered_workload():
    jc = JoinCondition.on("jc1", name="JC1")
    fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))
    return Workload(
        [
            SkylineJoinQuery("all", jc, fns, Preference.over("d1", "d2")),
            SkylineJoinQuery(
                "cheap_left", jc, fns, Preference.over("d1", "d2"),
                left_filters=(AttributeFilter("m1", Op.LE, 50.0),),
            ),
            SkylineJoinQuery(
                "balanced", jc, fns, Preference.over("d1", "d2", "d3"),
                left_filters=(AttributeFilter("m1", Op.LE, 80.0),),
                right_filters=(AttributeFilter("m2", Op.GE, 20.0),),
            ),
        ]
    )


def _verify(pair, workload, strategies):
    contracts = {q.name: c2(scale=1000.0) for q in workload}
    references = {
        q.name: reference_evaluate(q, pair.left, pair.right).skyline_pairs
        for q in workload
    }
    for name in strategies:
        result = make_strategy(name).run(pair.left, pair.right, workload, contracts)
        for query in workload:
            assert result.reported[query.name] == references[query.name], (
                name,
                query.name,
            )


class TestSelections:
    def test_all_strategies_exact_with_filters(self, pair, filtered_workload):
        _verify(pair, filtered_workload, all_strategy_names())

    def test_filters_actually_restrict(self, pair, filtered_workload):
        """Sanity: a filtered query's result differs from its unfiltered twin
        (otherwise this test file proves nothing)."""
        ref_all = reference_evaluate(
            filtered_workload["all"], pair.left, pair.right
        )
        ref_cheap = reference_evaluate(
            filtered_workload["cheap_left"], pair.left, pair.right
        )
        assert ref_all.skyline_pairs != ref_cheap.skyline_pairs or (
            ref_all.join_count != ref_cheap.join_count
        )

    def test_selective_filter_empty_result(self, pair):
        jc = JoinCondition.on("jc1")
        fns = (add("m1", "m1", "d1"), add("m2", "m2", "d2"))
        workload = Workload(
            [
                SkylineJoinQuery("base", jc, fns, Preference.over("d1", "d2")),
                SkylineJoinQuery(
                    "impossible", jc, fns, Preference.over("d1", "d2"),
                    left_filters=(AttributeFilter("m1", Op.GT, 1e9),),
                ),
            ]
        )
        _verify(pair, workload, ("CAQE", "JFSL"))


class TestCoarsePruningWithFiltersRegression:
    def test_highly_selective_filter_survives_region_pruning(self):
        """Regression (found by the fuzzer): region-level dominance pruning
        assumed the dominating region's guaranteed join result serves every
        query — a selective filter can remove exactly that result, so
        filtered queries must be exempt from coarse pruning."""
        from repro.query import random_workload

        pair = generate_pair(
            "independent", 70, 4, joins=2, selectivity=0.1, seed=0
        )
        workload = random_workload(
            6, dims=4, join_attrs=("jc1", "jc2"),
            filter_probability=1.0, seed=1,
        )
        _verify(pair, workload, ("CAQE", "S-JFSL", "ProgXe+"))

    def test_filtered_queries_keep_all_their_regions(self):
        from repro.core.coarse_skyline import coarse_skyline
        from repro.core.coarse_join import coarse_join
        from repro.core.stats import ExecutionStats
        from repro.partition import quadtree_partition
        from repro.plan import build_minmax_cuboid
        from repro.query import random_workload

        pair = generate_pair("independent", 80, 4, selectivity=0.1, seed=2)
        workload = random_workload(4, dims=4, filter_probability=1.0, seed=3)
        stats = ExecutionStats()
        lp = quadtree_partition(
            pair.left, ("m1", "m2", "m3", "m4"), workload.join_conditions,
            "left", capacity=20,
        )
        rp = quadtree_partition(
            pair.right, ("m1", "m2", "m3", "m4"), workload.join_conditions,
            "right", capacity=20,
        )
        cj = coarse_join(workload, lp, rp, stats)
        cuboid = build_minmax_cuboid(workload)
        result = coarse_skyline(workload, cuboid, cj.regions, stats)
        for qi, query in enumerate(workload):
            serving = set(
                cj.regions.region_id[(cj.regions.rql >> qi) & 1 == 1].tolist()
            )
            assert result.reg[query.name] == serving, query.name


class TestMultiJoinConditionRegression:
    def test_shared_subspace_across_conditions(self, pair):
        """'narrow' (JC2) has a preference that is a subspace of 'wide'
        (JC1).  A JC1 tuple landing in the shared subspace must not evict
        narrow's candidates — this failed before WorkloadPlan grouped
        tuple-level state by join condition."""
        fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))
        workload = Workload(
            [
                SkylineJoinQuery(
                    "wide", JoinCondition.on("jc1", name="JC1"), fns,
                    Preference.over("d1", "d2", "d3"),
                ),
                SkylineJoinQuery(
                    "narrow", JoinCondition.on("jc2", name="JC2"), fns,
                    Preference.over("d1", "d2"),
                ),
            ]
        )
        _verify(pair, workload, ("CAQE", "S-JFSL", "ProgXe+"))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_multi_condition_sweep(self, seed):
        pair = generate_pair(
            "independent", 100, 4, joins=2, selectivity=0.08, seed=seed
        )
        fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3, 4))
        workload = Workload(
            [
                SkylineJoinQuery(
                    "a", JoinCondition.on("jc1", name="JC1"), fns,
                    Preference.over("d1", "d2", "d3"),
                ),
                SkylineJoinQuery(
                    "b", JoinCondition.on("jc2", name="JC2"), fns,
                    Preference.over("d2", "d3"),
                ),
                SkylineJoinQuery(
                    "c", JoinCondition.on("jc1", name="JC1"), fns,
                    Preference.over("d2", "d3", "d4"),
                ),
                SkylineJoinQuery(
                    "d", JoinCondition.on("jc2", name="JC2"), fns,
                    Preference.over("d1", "d4"),
                ),
            ]
        )
        _verify(pair, workload, ("CAQE", "S-JFSL"))
