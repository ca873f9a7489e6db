"""The recursive quad-tree builder with per-leaf construction: the oracle
the array partitioner is checked against.

A node over more than ``capacity`` rows (and above ``max_depth``) splits
into its ``2^d`` midpoint quadrants — a point goes up along an axis iff
it is ``>`` the midpoint — unless every point lands in one quadrant.
Leaves come out depth first, children in quadrant-code order, and each
leaf's bounds and signatures are computed from its own rows.
"""

import numpy as np

from repro.partition import HyperRect, LeafCell, signatures_for_side


def reference_leaf(cell_id, relation, indices, measure_attrs, conditions, side):
    """One leaf cell over ``indices`` (deduplicated and sorted)."""
    idx = np.unique(np.asarray(indices, dtype=np.intp))
    matrix = np.column_stack([relation.column(a)[idx] for a in measure_attrs]).astype(float)
    return LeafCell(
        cell_id=cell_id,
        relation_name=relation.name,
        indices=idx,
        measure_attrs=tuple(measure_attrs),
        bounds=HyperRect.from_points(matrix),
        signatures=signatures_for_side(relation, idx, conditions, side),
    )


def _leaf_nodes(matrix, indices, bounds, capacity, max_depth, depth):
    """``[(indices, depth)]`` of the subtree's leaves, depth first."""
    if len(indices) <= capacity or depth >= max_depth:
        return [(indices, depth)]
    mid = np.asarray(bounds.center)
    codes = np.zeros(len(indices), dtype=np.int64)
    for axis in range(bounds.dimensions):
        codes |= (matrix[indices, axis] > mid[axis]).astype(np.int64) << axis
    children = [
        (indices[codes == code], quadrant)
        for code, quadrant in enumerate(bounds.split_midpoint())
        if (codes == code).any()
    ]
    if len(children) == 1:
        return [(indices, depth)]
    return [
        leaf
        for member, quadrant in children
        for leaf in _leaf_nodes(matrix, member, quadrant, capacity, max_depth, depth + 1)
    ]


def reference_partition(relation, measure_attrs, conditions, side, capacity, max_depth=12):
    """``(leaves, depth)`` of the midpoint quad tree over ``relation``."""
    if relation.cardinality == 0:
        return [], 0
    matrix = np.column_stack([relation.column(a) for a in measure_attrs]).astype(float)
    nodes = _leaf_nodes(
        matrix, np.arange(relation.cardinality, dtype=np.intp),
        HyperRect.from_points(matrix), capacity, max_depth, 0,
    )
    leaves = [
        reference_leaf(i, relation, idx, measure_attrs, conditions, side)
        for i, (idx, _) in enumerate(nodes)
    ]
    return leaves, max(depth for _, depth in nodes)


def canonical_signature(signature):
    """A signature with its NaNs counted: two NaN objects never compare
    equal, so frozensets holding them cannot be compared directly."""
    values = [v for v in signature if v == v]
    return sorted((type(v).__name__, v) for v in values), len(signature) - len(values)


def assert_same_leaves(partitioning, leaves, depth=None):
    """Cell ids, indices (with dtype), bounds bit for bit (with element
    types) and signatures (NaNs counted) of ``partitioning`` equal the
    reference ``leaves``."""
    got = partitioning.leaves
    assert len(got) == len(leaves)
    if depth is not None:
        assert partitioning.depth == depth
    for mine, want in zip(got, leaves):
        assert mine.cell_id == want.cell_id
        assert mine.indices.dtype == want.indices.dtype
        assert mine.indices.tolist() == want.indices.tolist()
        assert mine.measure_attrs == want.measure_attrs
        for a, b in (
            (mine.bounds.lower, want.bounds.lower),
            (mine.bounds.upper, want.bounds.upper),
        ):
            assert [type(v) for v in a] == [type(v) for v in b]
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert list(mine.signatures) == list(want.signatures)
        for name, signature in want.signatures.items():
            mine_signature = mine.signatures[name]
            assert canonical_signature(mine_signature) == canonical_signature(signature)
            assert len(mine_signature) == len(signature)
