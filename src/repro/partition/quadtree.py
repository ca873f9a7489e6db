"""d-dimensional quad-tree partitioning of the input tables (Section 5.1).

CAQE "assume[s] the input data sets are partitioned into a d-dimensional
quad tree": starting from the table's bounding box, any node holding more
than ``capacity`` tuples is split into its ``2^d`` midpoint quadrants until
every leaf fits (or ``max_depth`` is hit).  The resulting leaves become the
:class:`~repro.partition.cells.LeafCell` units of coarse processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError
from repro.partition.bounds import HyperRect
from repro.partition.cells import LeafCell, make_leaf
from repro.query.predicates import JoinCondition
from repro.relation import Relation

#: Default maximum tuples per leaf.
DEFAULT_CAPACITY = 64
#: Splitting more than ~6 dimensions explodes into 2^d children per node.
MAX_TREE_DIMENSIONS = 6


@dataclass
class QuadTreeNode:
    """Internal tree node (exposed for inspection and tests)."""

    bounds: HyperRect
    indices: np.ndarray
    depth: int
    children: "list[QuadTreeNode]" = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Partitioning:
    """The coarse view of one table: its leaf cells plus tree metadata."""

    relation_name: str
    leaves: tuple[LeafCell, ...]
    measure_attrs: tuple[str, ...]
    depth: int

    @property
    def cell_count(self) -> int:
        return len(self.leaves)

    def total_tuples(self) -> int:
        return sum(leaf.size for leaf in self.leaves)

    def cell(self, cell_id: int) -> LeafCell:
        for leaf in self.leaves:
            if leaf.cell_id == cell_id:
                return leaf
        raise PartitionError(f"no cell #{cell_id} in partitioning of {self.relation_name!r}")


def _build_tree(
    matrix: np.ndarray,
    indices: np.ndarray,
    bounds: HyperRect,
    capacity: int,
    max_depth: int,
    depth: int = 0,
) -> QuadTreeNode:
    node = QuadTreeNode(bounds=bounds, indices=indices, depth=depth)
    if len(indices) <= capacity or depth >= max_depth:
        return node
    mid = np.asarray(bounds.center)
    d = bounds.dimensions
    points = matrix[indices]
    # Quadrant code per point: bit ``axis`` set iff the point lies in the
    # upper half along that axis.
    codes = np.zeros(len(indices), dtype=np.int64)
    for axis in range(d):
        codes |= (points[:, axis] > mid[axis]).astype(np.int64) << axis
    quadrants = bounds.split_midpoint()
    for code in range(2 ** d):
        member = indices[codes == code]
        if len(member) == 0:
            continue
        node.children.append(
            _build_tree(matrix, member, quadrants[code], capacity, max_depth, depth + 1)
        )
    if len(node.children) == 1 and len(node.children[0].indices) == len(indices):
        # Degenerate split (all points in one quadrant): stop here.
        node.children = []
    return node


def _build_kd_tree(
    matrix: np.ndarray,
    indices: np.ndarray,
    bounds: HyperRect,
    capacity: int,
    max_depth: int,
    depth: int = 0,
) -> QuadTreeNode:
    """Binary median splits on the widest dimension (k-d style).

    Unlike the ``2^d``-way quad split, cell counts grow in powers of two
    and leaves stay balanced on skewed data, which gives the look-ahead a
    much smoother granularity knob (used by the partitioning ablation).
    """
    node = QuadTreeNode(bounds=bounds, indices=indices, depth=depth)
    if len(indices) <= capacity or depth >= max_depth:
        return node
    points = matrix[indices]
    widths = points.max(axis=0) - points.min(axis=0)
    axis = int(np.argmax(widths))
    median = float(np.median(points[:, axis]))
    below = points[:, axis] <= median
    if below.all() or not below.any():
        return node  # all values tied on every axis wide enough to split
    lower_bounds = HyperRect(
        bounds.lower,
        tuple(
            median if i == axis else v for i, v in enumerate(bounds.upper)
        ),
    )
    upper_bounds = HyperRect(
        tuple(median if i == axis else v for i, v in enumerate(bounds.lower)),
        bounds.upper,
    )
    node.children = [
        _build_kd_tree(
            matrix, indices[below], lower_bounds, capacity, max_depth, depth + 1
        ),
        _build_kd_tree(
            matrix, indices[~below], upper_bounds, capacity, max_depth, depth + 1
        ),
    ]
    return node


def _collect_leaves(node: QuadTreeNode) -> "list[QuadTreeNode]":
    if node.is_leaf:
        return [node]
    out: list[QuadTreeNode] = []
    for child in node.children:
        out.extend(_collect_leaves(child))
    return out


def quadtree_partition(
    relation: Relation,
    measure_attrs: "tuple[str, ...]",
    conditions: "tuple[JoinCondition, ...]",
    side: str,
    *,
    capacity: int = DEFAULT_CAPACITY,
    max_depth: int = 12,
    split: str = "quad",
) -> Partitioning:
    """Partition ``relation`` into quad-tree leaf cells.

    ``measure_attrs`` are the columns the tree splits on (the attributes
    feeding the workload's skyline dimensions); ``conditions``/``side``
    drive signature construction.  ``split`` selects the node split policy:
    ``"quad"`` — the paper's ``2^d``-way midpoint split; ``"kd"`` — binary
    median splits on the widest dimension (balanced leaves, smoother cell
    counts; see the partitioning ablation bench).
    """
    if not measure_attrs:
        raise PartitionError("quadtree_partition needs at least one measure attribute")
    if split not in ("quad", "kd"):
        raise PartitionError(f"unknown split policy {split!r}; expected 'quad' or 'kd'")
    if split == "quad" and len(measure_attrs) > MAX_TREE_DIMENSIONS:
        raise PartitionError(
            f"refusing to split on {len(measure_attrs)} dimensions "
            f"(> {MAX_TREE_DIMENSIONS}); a node would have 2^d children"
        )
    if capacity < 1:
        raise PartitionError(f"capacity must be >= 1, got {capacity}")
    if relation.cardinality == 0:
        return Partitioning(relation.name, (), tuple(measure_attrs), depth=0)
    matrix = np.column_stack([relation.column(a) for a in measure_attrs]).astype(float)
    all_indices = np.arange(relation.cardinality, dtype=np.intp)
    root_bounds = HyperRect.from_points(matrix)
    builder = _build_tree if split == "quad" else _build_kd_tree
    root = builder(matrix, all_indices, root_bounds, capacity, max_depth)
    leaf_nodes = _collect_leaves(root)
    leaves = tuple(
        make_leaf(i, relation, node.indices, measure_attrs, conditions, side)
        for i, node in enumerate(leaf_nodes)
    )
    depth = max(node.depth for node in leaf_nodes)
    return Partitioning(relation.name, leaves, tuple(measure_attrs), depth=depth)


__all__ = [
    "DEFAULT_CAPACITY",
    "MAX_TREE_DIMENSIONS",
    "Partitioning",
    "QuadTreeNode",
    "quadtree_partition",
]
