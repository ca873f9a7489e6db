"""Tests for the k-d split policy in the input partitioner."""

import numpy as np
import pytest

from repro.datagen import generate_table
from repro.errors import PartitionError
from repro.partition import quadtree_partition
from repro.query import JoinCondition


@pytest.fixture(scope="module")
def table():
    return generate_table("R", "correlated", 400, 4, seed=8)


@pytest.fixture(scope="module")
def conditions():
    return (JoinCondition.on("jc1", name="JC1"),)


class TestKdSplit:
    def test_exact_cover(self, table, conditions):
        part = quadtree_partition(
            table, ("m1", "m2", "m3", "m4"), conditions, "left",
            capacity=30, split="kd",
        )
        seen = sorted(i for leaf in part.leaves for i in leaf.indices)
        assert seen == list(range(table.cardinality))

    def test_respects_capacity(self, table, conditions):
        part = quadtree_partition(
            table, ("m1", "m2", "m3", "m4"), conditions, "left",
            capacity=30, split="kd",
        )
        assert all(leaf.size <= 30 for leaf in part.leaves)

    def test_balanced_leaves_on_skewed_data(self, table, conditions):
        """Median splits keep leaf sizes within a narrow band even on
        correlated (diagonally clustered) data, unlike midpoint quads."""
        kd = quadtree_partition(
            table, ("m1", "m2", "m3", "m4"), conditions, "left",
            capacity=50, split="kd",
        )
        sizes = [leaf.size for leaf in kd.leaves]
        assert max(sizes) <= 2.5 * max(min(sizes), 1)

    def test_kd_allows_many_dimensions(self, conditions):
        """The quad split caps dimensionality (2^d children); kd does not."""
        table = generate_table("W", "independent", 200, 8, seed=3)
        attrs = tuple(f"m{i}" for i in range(1, 9))
        with pytest.raises(PartitionError):
            quadtree_partition(table, attrs, conditions, "left", split="quad")
        part = quadtree_partition(
            table, attrs, conditions, "left", capacity=25, split="kd"
        )
        assert part.total_tuples() == 200

    def test_unknown_split_rejected(self, table, conditions):
        with pytest.raises(PartitionError, match="split"):
            quadtree_partition(
                table, ("m1",), conditions, "left", split="grid"
            )

    def test_constant_data_single_leaf(self, conditions):
        from repro.relation import Relation, Role, Schema

        rel = Relation(
            "C",
            Schema.of(m1=Role.MEASURE, jc1=Role.JOIN),
            {"m1": np.full(50, 7.0), "jc1": np.zeros(50, dtype=int)},
        )
        part = quadtree_partition(
            rel, ("m1",), conditions, "left", capacity=10, split="kd"
        )
        assert part.cell_count == 1  # nothing to split on


class TestKdEndToEnd:
    def test_caqe_exact_with_kd_partitioning(self):
        from repro.contracts import c2
        from repro.core import CAQE, CAQEConfig
        from repro.datagen import generate_pair
        from repro.query import reference_evaluate, subspace_workload

        pair = generate_pair("independent", 120, 4, selectivity=0.05, seed=55)
        workload = subspace_workload(4)
        contracts = {q.name: c2(scale=100.0) for q in workload}
        result = CAQE(CAQEConfig(partition_split="kd")).run(
            pair.left, pair.right, workload, contracts
        )
        for query in workload:
            ref = reference_evaluate(query, pair.left, pair.right)
            assert result.reported[query.name] == ref.skyline_pairs

    def test_invalid_config_value(self):
        from repro.core import CAQEConfig
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            CAQEConfig(partition_split="grid")
