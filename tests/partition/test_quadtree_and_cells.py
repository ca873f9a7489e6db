"""Tests for quad-tree partitioning, leaf cells, and signatures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_table
from repro.errors import PartitionError
from repro.partition import (
    make_leaf,
    quadtree_partition,
    signatures_intersect,
)
from repro.partition.signatures import signature_of
from repro.query import JoinCondition


@pytest.fixture(scope="module")
def table():
    return generate_table(
        "R", "independent", 300, 3, joins=2, selectivity=0.05, seed=17
    )


@pytest.fixture(scope="module")
def conditions():
    return (JoinCondition.on("jc1", name="JC1"), JoinCondition.on("jc2", name="JC2"))


@pytest.fixture(scope="module")
def partitioning(table, conditions):
    return quadtree_partition(
        table, ("m1", "m2", "m3"), conditions, "left", capacity=40
    )


class TestQuadtreePartition:
    def test_covers_all_tuples_exactly_once(self, partitioning, table):
        seen = np.concatenate([leaf.indices for leaf in partitioning.leaves])
        assert sorted(seen.tolist()) == list(range(table.cardinality))

    def test_respects_capacity(self, partitioning):
        assert all(leaf.size <= 40 for leaf in partitioning.leaves)

    def test_bounds_contain_members(self, partitioning, table):
        for leaf in partitioning.leaves:
            for attr in leaf.measure_attrs:
                values = table.column(attr)[leaf.indices]
                assert values.min() >= leaf.lower_of(attr)
                assert values.max() <= leaf.upper_of(attr)

    def test_cell_ids_unique(self, partitioning):
        ids = [leaf.cell_id for leaf in partitioning.leaves]
        assert len(set(ids)) == len(ids)

    def test_signatures_present_per_condition(self, partitioning):
        for leaf in partitioning.leaves:
            assert set(leaf.signatures) == {"JC1", "JC2"}

    def test_signature_values_match_members(self, partitioning, table):
        leaf = partitioning.leaves[0]
        expected = {int(v) for v in table.column("jc1")[leaf.indices]}
        assert leaf.signature("JC1") == expected

    def test_small_table_single_leaf(self, table, conditions):
        part = quadtree_partition(
            table, ("m1",), conditions, "left", capacity=10**6
        )
        assert part.cell_count == 1

    def test_empty_table(self, conditions):
        from repro.relation import Relation, Role, Schema

        empty = Relation(
            "E",
            Schema.of(m1=Role.MEASURE, jc1=Role.JOIN, jc2=Role.JOIN),
            {"m1": np.empty(0), "jc1": np.empty(0, int), "jc2": np.empty(0, int)},
        )
        part = quadtree_partition(empty, ("m1",), conditions, "left")
        assert part.cell_count == 0

    def test_too_many_dimensions_rejected(self, table, conditions):
        with pytest.raises(PartitionError, match="2\\^d"):
            quadtree_partition(
                table, tuple(f"m{i}" for i in range(1, 8)), conditions, "left"
            )

    def test_invalid_capacity(self, table, conditions):
        with pytest.raises(PartitionError):
            quadtree_partition(table, ("m1",), conditions, "left", capacity=0)

    def test_cell_lookup(self, partitioning):
        leaf = partitioning.leaves[0]
        assert partitioning.cell(leaf.cell_id) is leaf
        with pytest.raises(PartitionError):
            partitioning.cell(10**9)

    def test_total_tuples(self, partitioning, table):
        assert partitioning.total_tuples() == table.cardinality


class TestLeafCell:
    def test_make_leaf_deduplicates_indices(self, table, conditions):
        leaf = make_leaf(0, table, np.array([3, 3, 5]), ("m1",), conditions, "left")
        assert leaf.size == 2

    def test_rejects_empty(self, table, conditions):
        with pytest.raises(PartitionError):
            make_leaf(0, table, np.array([], dtype=int), ("m1",), conditions, "left")

    def test_bound_maps(self, table, conditions):
        leaf = make_leaf(0, table, np.arange(10), ("m1", "m2"), conditions, "left")
        assert set(leaf.lower_map()) == {"m1", "m2"}
        assert leaf.lower_map()["m1"] == leaf.lower_of("m1")

    def test_unknown_signature_raises(self, table, conditions):
        leaf = make_leaf(0, table, np.arange(5), ("m1",), conditions, "left")
        with pytest.raises(PartitionError):
            leaf.signature("JC9")

    def test_right_side_signatures(self, table):
        condition = JoinCondition("X", "nonexistent", "jc1")
        leaf = make_leaf(0, table, np.arange(5), ("m1",), (condition,), "right")
        assert leaf.signature("X") == {
            int(v) for v in table.column("jc1")[:5]
        }


class TestSignatures:
    def test_intersect(self):
        assert signatures_intersect(frozenset({1, 2}), frozenset({2, 3}))
        assert not signatures_intersect(frozenset({1}), frozenset({2}))

    def test_intersect_empty(self):
        assert not signatures_intersect(frozenset(), frozenset({1}))

    def test_signature_of(self, table):
        sig = signature_of(table, np.array([0, 1, 2]), "jc1")
        assert sig == {int(v) for v in table.column("jc1")[:3]}

    def test_bad_side_rejected(self, table, conditions):
        from repro.partition.signatures import signatures_for_side

        with pytest.raises(ValueError):
            signatures_for_side(table, np.arange(3), conditions, "middle")


def _canonical(signature):
    """A signature with its NaNs counted: two NaN objects never compare
    equal, so frozensets holding them cannot be compared directly."""
    values = [v for v in signature if v == v]
    return sorted((type(v).__name__, v) for v in values), len(signature) - len(values)


@pytest.mark.parametrize("keys", ["int", "float_nan", "str"])
def test_leaf_construction_matches_per_row_comprehensions(table, keys):
    """``make_leaf``'s indices and signatures equal the per-row forms
    (``sorted(set(int(i)))`` and ``v.item()`` per value), for unsorted
    indices with duplicates."""
    from repro.relation import Relation

    raw = table.column("jc1")
    column = {
        "int": raw,
        "float_nan": np.where(np.arange(len(raw)) % 4 == 0, np.nan, raw.astype(float)),
        "str": np.asarray([f"k{v}" for v in raw]),
    }[keys]
    rekeyed = Relation(
        table.name, table.schema,
        {**{a: table.column(a) for a in table.schema.names}, "jc1": column},
    )
    indices = np.array([40, 3, 17, 3, 8, 40, 0, 12, 17, 25, 9, 8])
    condition = (JoinCondition.on("jc1", name="JC1"),)
    leaf = make_leaf(0, rekeyed, indices, ("m1",), condition, "left")
    want_idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.intp)
    assert leaf.indices.dtype == want_idx.dtype
    assert leaf.indices.tolist() == want_idx.tolist()
    values = column[want_idx]
    want = frozenset(v.item() if hasattr(v, "item") else v for v in values)
    assert _canonical(leaf.signature("JC1")) == _canonical(want)
    assert len(leaf.signature("JC1")) == len(want)
    if keys == "float_nan":
        assert _canonical(want)[1] > 0


@given(capacity=st.integers(5, 200), seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_property_partitioning_is_exact_cover(capacity, seed):
    table = generate_table("R", "anticorrelated", 120, 2, seed=seed)
    part = quadtree_partition(
        table, ("m1", "m2"), (JoinCondition.on("jc1", name="JC1"),), "left",
        capacity=capacity,
    )
    seen = sorted(
        int(i) for leaf in part.leaves for i in leaf.indices
    )
    assert seen == list(range(table.cardinality))
