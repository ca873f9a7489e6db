"""Edge-case and failure-injection tests for the CAQE driver internals."""

import dataclasses

import numpy as np
import pytest

from repro.contracts import c1, c2
from repro.core import CAQE, CAQEConfig, run_caqe
from repro.core.caqe import partition_attrs
from repro.datagen import generate_pair
from repro.errors import ExecutionError
from repro.query import (
    JoinCondition,
    Preference,
    SkylineJoinQuery,
    Workload,
    add,
    reference_evaluate,
    subspace_workload,
)
from repro.relation import Relation, Role, Schema


class TestPartitionAttrs:
    def test_left_and_right_sides(self, eleven_query_workload):
        assert partition_attrs(eleven_query_workload, "left") == (
            "m1", "m2", "m3", "m4",
        )
        assert partition_attrs(eleven_query_workload, "right") == (
            "m1", "m2", "m3", "m4",
        )

    def test_one_sided_functions(self):
        from repro.query.mapping import left_only

        jc = JoinCondition.on("jc1")
        fns = (left_only("m1", "d1"), add("m2", "m2", "d2"))
        wl = Workload(
            [SkylineJoinQuery("q", jc, fns, Preference.over("d1", "d2"))]
        )
        assert partition_attrs(wl, "left") == ("m1", "m2")
        assert partition_attrs(wl, "right") == ("m2",)


class TestOutputWidth:
    """Regions are compared on every output dimension at once, over
    comparison codes of at most ``MAX_CODE_DIMS`` attributes: a wider
    workload is refused before any work, batch or continuous."""

    def test_a_wider_workload_is_refused_up_front(self):
        from repro.core.continuous import ContinuousCAQE
        from repro.skyline.dominance import MAX_CODE_DIMS

        wide = subspace_workload(MAX_CODE_DIMS + 1, min_size=2, max_size=2)
        pair = generate_pair("independent", 20, MAX_CODE_DIMS + 1, seed=3)
        contracts = {q.name: c2(scale=10.0) for q in wide}
        match = (
            f"at most {MAX_CODE_DIMS} output dimensions; "
            f"the workload has {MAX_CODE_DIMS + 1}"
        )
        with pytest.raises(ExecutionError, match=match):
            CAQE(CAQEConfig()).open_run(pair.left, pair.right, wide, contracts)
        with pytest.raises(ExecutionError, match=match):
            ContinuousCAQE(wide, contracts)

    def test_eight_output_dims_run(self):
        # The quad-tree splits on at most 6 dimensions; the k-d split
        # takes the full 8.
        workload = subspace_workload(8, min_size=8)
        pair = generate_pair("independent", 40, 8, selectivity=0.1, seed=5)
        query = workload.queries[0]
        result = run_caqe(
            pair.left, pair.right, workload, {query.name: c2(scale=1000.0)},
            CAQEConfig(partition_split="kd"),
        )
        reference = reference_evaluate(query, pair.left, pair.right)
        assert result.reported[query.name] == reference.skyline_pairs


class TestWorkloadShape:
    """Lineages, ``qserve`` and the shared plan's admitted bits are int64
    bitmaps: a workload with more queries or cuboid nodes than they hold
    is refused before any work, batch or continuous; the widest accepted
    workload of each kind still answers as the reference does."""

    KD = CAQEConfig(partition_split="kd", target_cells=32)

    @staticmethod
    def three_dim_prefix(k):
        """The first ``k`` of the 56 three-dimension subspaces of eight
        output dims: 32 of them make a 64-node cuboid, all 56 make 92."""
        return Workload(
            list(subspace_workload(8, min_size=3, max_size=3).queries[:k])
        )

    @staticmethod
    def assert_refused(workload, match):
        from repro.core.continuous import ContinuousCAQE

        pair = generate_pair("independent", 20, 8, seed=3)
        contracts = {q.name: c2(scale=10.0) for q in workload}
        with pytest.raises(ExecutionError, match=match):
            CAQE(CAQEConfig()).open_run(pair.left, pair.right, workload, contracts)
        with pytest.raises(ExecutionError, match=match):
            ContinuousCAQE(workload, contracts)

    @staticmethod
    def assert_matches_reference(workload, pair, config):
        contracts = {q.name: c2(scale=1000.0) for q in workload}
        result = CAQE(config).run(pair.left, pair.right, workload, contracts)
        for query in workload:
            reference = reference_evaluate(query, pair.left, pair.right)
            assert result.reported[query.name] == reference.skyline_pairs, query.name

    def test_sixty_four_queries_are_refused(self):
        workload = Workload(list(subspace_workload(7, min_size=1).queries[:64]))
        self.assert_refused(
            workload, "at most 63 queries at once; the workload has 64"
        )

    def test_sixty_three_queries_match_the_reference(self):
        workload = subspace_workload(6, min_size=1)
        assert len(workload) == 63
        pair = generate_pair("independent", 60, 6, selectivity=0.05, seed=67)
        self.assert_matches_reference(workload, pair, self.KD)

    def test_a_wider_cuboid_is_refused(self):
        self.assert_refused(
            self.three_dim_prefix(56),
            "at most 64 cuboid nodes; the workload's min-max cuboid has 92",
        )
        # One two-dimension subspace more than the 64-node prefix adds
        # exactly one node.
        extra = next(
            q for q in subspace_workload(8, min_size=2, max_size=2).queries
            if q.preference.dims == ("d5", "d8")
        )
        extra = dataclasses.replace(extra, name="extra")
        self.assert_refused(
            Workload(list(self.three_dim_prefix(32).queries) + [extra]),
            "the workload's min-max cuboid has 65",
        )

    def test_a_sixty_four_node_cuboid_matches_the_reference(self):
        from repro.plan import build_minmax_cuboid

        workload = self.three_dim_prefix(32)
        assert len(build_minmax_cuboid(workload)) == 64
        pair = generate_pair("independent", 60, 8, selectivity=0.05, seed=67)
        self.assert_matches_reference(workload, pair, self.KD)


class TestEmptyAndDegenerateJoins:
    def test_empty_join_raises_cleanly(self):
        """Disjoint join domains: the coarse join proves zero results."""
        schema = Schema.of(m1=Role.MEASURE, jc1=Role.JOIN)
        left = Relation.from_rows("R", schema, [(1.0, 0), (2.0, 1)])
        right = Relation.from_rows("T", schema, [(1.0, 7), (2.0, 8)])
        wl = Workload(
            [
                SkylineJoinQuery(
                    "q", JoinCondition.on("jc1"),
                    (add("m1", "m1", "d1"),), Preference.over("d1"),
                )
            ]
        )
        with pytest.raises(ExecutionError, match="no cell pair"):
            run_caqe(left, right, wl, {"q": c1(10.0)})

    def test_single_row_tables(self):
        schema = Schema.of(m1=Role.MEASURE, m2=Role.MEASURE, jc1=Role.JOIN)
        left = Relation.from_rows("R", schema, [(1.0, 2.0, 0)])
        right = Relation.from_rows("T", schema, [(3.0, 4.0, 0)])
        wl = Workload(
            [
                SkylineJoinQuery(
                    "q", JoinCondition.on("jc1"),
                    (add("m1", "m1", "d1"), add("m2", "m2", "d2")),
                    Preference.over("d1", "d2"),
                )
            ]
        )
        result = run_caqe(left, right, wl, {"q": c1(1e9)})
        assert result.reported["q"] == {(0, 0)}

    def test_identical_rows_everywhere(self):
        """Total-tie data: every join result identical, all kept."""
        schema = Schema.of(m1=Role.MEASURE, m2=Role.MEASURE, jc1=Role.JOIN)
        left = Relation.from_rows("R", schema, [(5.0, 5.0, 0)] * 4)
        right = Relation.from_rows("T", schema, [(5.0, 5.0, 0)] * 4)
        wl = Workload(
            [
                SkylineJoinQuery(
                    "q", JoinCondition.on("jc1"),
                    (add("m1", "m1", "d1"), add("m2", "m2", "d2")),
                    Preference.over("d1", "d2"),
                )
            ]
        )
        result = run_caqe(left, right, wl, {"q": c1(1e9)})
        ref = reference_evaluate(wl["q"], left, right)
        assert result.reported["q"] == ref.skyline_pairs
        assert len(result.reported["q"]) == 16  # ties are all skyline


class TestConfigKnobs:
    def test_target_cells_derivation(self):
        config = CAQEConfig(target_cells=10)
        assert config.capacity_for(100) == 20  # 2x headroom

    def test_capacity_floor(self):
        assert CAQEConfig(target_cells=1000).capacity_for(1) >= 1

    def test_workers_is_a_must_be_zero_residue(self):
        # The worker pool is gone; ``workers`` only stays so existing
        # ``CAQEConfig(workers=0)`` call sites keep constructing.
        assert CAQEConfig().workers == 0
        assert CAQEConfig(workers=0) == CAQEConfig()
        for workers in (1, 2, -1):
            with pytest.raises(ExecutionError, match="pool was removed"):
                CAQEConfig(workers=workers)

    def test_extreme_grid_divisions_still_exact(self):
        pair = generate_pair("independent", 80, 4, selectivity=0.1, seed=3)
        wl = subspace_workload(4)
        contracts = {q.name: c2(scale=100.0) for q in wl}
        for divisions in (1, 32):
            result = CAQE(CAQEConfig(divisions=divisions)).run(
                pair.left, pair.right, wl, contracts
            )
            for q in wl:
                ref = reference_evaluate(q, pair.left, pair.right)
                assert result.reported[q.name] == ref.skyline_pairs, divisions


class TestReportingStateInvariants:
    def test_no_duplicate_reports(self):
        pair = generate_pair("independent", 100, 4, selectivity=0.1, seed=9)
        wl = subspace_workload(4)
        contracts = {q.name: c2(scale=100.0) for q in wl}
        result = run_caqe(pair.left, pair.right, wl, contracts)
        for q in wl:
            keys = result.logs[q.name].keys
            assert len(keys) == len(set(keys))

    def test_outputs_counter_matches_logs(self):
        pair = generate_pair("correlated", 100, 4, selectivity=0.1, seed=9)
        wl = subspace_workload(4)
        contracts = {q.name: c2(scale=100.0) for q in wl}
        result = run_caqe(pair.left, pair.right, wl, contracts)
        assert result.stats.results_reported == sum(
            len(result.logs[q.name]) for q in wl
        )
