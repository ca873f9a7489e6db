"""Tests for quad-tree partitioning, leaf cells, and signatures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadtree_reference import (
    assert_same_leaves,
    canonical_signature,
    reference_leaf,
    reference_partition,
)

from repro.datagen import generate_table
from repro.errors import PartitionError
from repro.partition import (
    HyperRect,
    LeafCell,
    quadtree_partition,
    signatures_intersect,
)
from repro.partition.signatures import signature_of
from repro.query import JoinCondition
from repro.relation import Relation, Role, Schema


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
        leaf = partitioning.leaves[3]
        cell = partitioning.cell(3)
        assert (cell.cell_id, cell.size) == (leaf.cell_id, leaf.size)
        assert cell.indices.tolist() == leaf.indices.tolist()
        assert partitioning.leaf(3).bounds == leaf.bounds
        for bad in (10**9, -1, partitioning.cell_count):
            with pytest.raises(PartitionError):
                partitioning.cell(bad)

    def test_matches_the_recursive_reference(self, partitioning, table, conditions):
        leaves, depth = reference_partition(
            table, ("m1", "m2", "m3"), conditions, "left", capacity=40
        )
        assert_same_leaves(partitioning, leaves, depth)

    def test_total_tuples(self, partitioning, table):
        assert partitioning.total_tuples() == table.cardinality


class TestLeafCell:
    def test_make_leaf_deduplicates_indices(self, table, conditions):
        leaf = reference_leaf(0, table, np.array([3, 3, 5]), ("m1",), conditions, "left")
        assert leaf.size == 2

    def test_rejects_empty(self):
        with pytest.raises(PartitionError):
            LeafCell(
                0, "R", np.array([], dtype=np.intp), ("m1",),
                HyperRect((0.0,), (1.0,)), {},
            )

    def test_bound_maps(self, table, conditions):
        leaf = quadtree_partition(
            table, ("m1", "m2"), conditions, "left", capacity=10
        ).leaf(0)
        assert set(leaf.lower_map()) == {"m1", "m2"}
        assert leaf.lower_map()["m1"] == leaf.lower_of("m1")

    def test_unknown_signature_raises(self, partitioning):
        with pytest.raises(PartitionError):
            partitioning.leaf(0).signature("JC9")

    def test_right_side_signatures(self, table):
        condition = JoinCondition("X", "nonexistent", "jc1")
        part = quadtree_partition(table, ("m1",), (condition,), "right", capacity=5)
        leaf = part.leaf(1)
        assert leaf.signature("X") == {
            int(v) for v in table.column("jc1")[leaf.indices]
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


@pytest.mark.parametrize("keys", ["int", "float_nan", "str"])
def test_leaf_construction_matches_per_row_comprehensions(table, keys):
    """The reference leaf's indices and signatures equal the per-row forms
    (``sorted(set(int(i)))`` and ``v.item()`` per value), for unsorted
    indices with duplicates — and so does the partitioner's view of a
    leaf over the same rows."""
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
    leaf = reference_leaf(0, rekeyed, indices, ("m1",), condition, "left")
    want_idx = np.asarray(sorted(set(int(i) for i in indices)), dtype=np.intp)
    assert leaf.indices.dtype == want_idx.dtype
    assert leaf.indices.tolist() == want_idx.tolist()
    values = column[want_idx]
    want = frozenset(v.item() if hasattr(v, "item") else v for v in values)
    assert canonical_signature(leaf.signature("JC1")) == canonical_signature(want)
    assert len(leaf.signature("JC1")) == len(want)
    if keys == "float_nan":
        assert canonical_signature(want)[1] > 0
    subset = rekeyed.take(want_idx, name=rekeyed.name)
    view = quadtree_partition(subset, ("m1",), condition, "left", capacity=100).leaf(0)
    assert canonical_signature(view.signature("JC1")) == canonical_signature(want)
    assert len(view.signature("JC1")) == len(want)


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


# ---------------------------------------------------------------------- #
# The level-pass partitioner against the recursive reference
# ---------------------------------------------------------------------- #
#: Measure values on a coarse lattice: ties, points on midpoints and both
#: signed zeros are common.
_MEASURES = [-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


@st.composite
def _relations(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    columns = {}
    for k in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            column = np.full(n, draw(st.sampled_from(_MEASURES)))
        else:
            column = np.asarray(
                draw(st.lists(st.sampled_from(_MEASURES), min_size=n, max_size=n))
            )
        if draw(st.integers(0, 5)) == 0:
            column = column.copy()
            column[draw(st.integers(0, n - 1))] = np.nan
            # A second NaN payload (the sign bit set).
            second = draw(st.sampled_from([np.nan, -np.nan]))
            column[draw(st.integers(0, n - 1))] = second
        columns[f"m{k + 1}"] = column
    duplicate = draw(st.integers(0, n - 1))
    for column in columns.values():
        column[n - 1] = column[duplicate]
    raw = np.asarray(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["int", "float_nan", "str"]))
    columns["k"] = {
        "int": raw,
        "float_nan": np.where(raw == 0, np.nan, raw.astype(float)),
        "str": np.asarray([f"k{v}" for v in raw]),
    }[kind]
    schema = Schema.of(**{a: Role.MEASURE for a in columns if a != "k"}, k=Role.JOIN)
    return Relation("R", schema, columns), tuple(f"m{k + 1}" for k in range(d))


@given(
    data=_relations(),
    capacity=st.integers(1, 61),
    max_depth=st.integers(0, 12),
    side=st.sampled_from(["left", "right"]),
)
@settings(max_examples=300, deadline=None)
def test_property_level_pass_equals_recursive_reference(data, capacity, max_depth, side):
    """Cell ids, indices, bounds (bit for bit, element types too),
    signatures (NaNs counted) and depth: the level-pass partitioner builds
    the recursive builder's leaves, on ties, midpoints, constant columns,
    NaN measures and at ``max_depth``."""
    relation, attrs = data
    conditions = (JoinCondition("JC", "k", "k"),)
    part = quadtree_partition(
        relation, attrs, conditions, side, capacity=capacity, max_depth=max_depth
    )
    leaves, depth = reference_partition(
        relation, attrs, conditions, side, capacity, max_depth
    )
    assert_same_leaves(part, leaves, depth)
    assert part.order.dtype == np.intp
    assert part.offsets.tolist() == np.cumsum([0] + [c.size for c in leaves]).tolist()


@given(data=_relations(), capacity=st.integers(1, 61))
@settings(max_examples=60, deadline=None)
def test_property_kd_leaves_equal_per_leaf_construction(data, capacity):
    """The k-d split feeds the same array assembly: each of its leaves
    equals a leaf built from that leaf's own rows."""
    relation, attrs = data
    conditions = (JoinCondition("JC", "k", "k"),)
    part = quadtree_partition(
        relation, attrs, conditions, "left", capacity=capacity, split="kd"
    )
    assert sorted(part.order.tolist()) == list(range(relation.cardinality))
    assert_same_leaves(
        part,
        [
            reference_leaf(
                leaf.cell_id, relation, leaf.indices, attrs, conditions, "left"
            )
            for leaf in part.leaves
        ],
    )
