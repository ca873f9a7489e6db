"""d-dimensional quad-tree partitioning of the input tables (Section 5.1).

CAQE "assume[s] the input data sets are partitioned into a d-dimensional
quad tree": starting from the table's bounding box, any node holding more
than ``capacity`` tuples is split into its ``2^d`` midpoint quadrants until
every leaf fits (or ``max_depth`` is hit).

The tree itself is never materialised.  The leaves of a depth-first walk
are ranges of one row permutation, so a :class:`Partitioning` is arrays:
``order`` lists the rows grouped by leaf, ``offsets`` cuts it into
leaves, and one ``(leaves x d)`` matrix each holds the leaves' lower and
upper bounds.  Coarse processing reads those arrays directly; a
:class:`~repro.partition.cells.LeafCell` is a view built on request
(:meth:`Partitioning.leaf`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.partition.bounds import HyperRect
from repro.partition.cells import CellRange, LeafCell
from repro.query.predicates import JoinCondition
from repro.relation import Relation

#: Default maximum tuples per leaf.
DEFAULT_CAPACITY = 64
#: Splitting more than ~6 dimensions explodes into 2^d children per node.
MAX_TREE_DIMENSIONS = 6


@dataclass(frozen=True, eq=False)
class Partitioning:
    """The coarse view of one table: its leaves as ranges of one row order.

    Leaf ``i`` is ``cell_id`` ``i``: the rows ``order[offsets[i]:offsets[i
    + 1]]`` (ascending), bounded by ``lower[i]`` / ``upper[i]`` over
    ``measure_attrs``.  ``keys`` holds, per join-condition name, this
    side's key column permuted by ``order``, so a leaf's join keys are
    the same range of it.
    """

    relation_name: str
    measure_attrs: tuple[str, ...]
    depth: int
    order: np.ndarray
    offsets: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    keys: "dict[str, np.ndarray]"

    @property
    def cell_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def total_tuples(self) -> int:
        return int(self.offsets[-1])

    def cell(self, cell_id: int) -> CellRange:
        """Leaf ``cell_id`` as the executor reads it."""
        if not 0 <= cell_id < self.cell_count:
            raise PartitionError(
                f"no cell #{cell_id} in partitioning of {self.relation_name!r}"
            )
        lo, hi = int(self.offsets[cell_id]), int(self.offsets[cell_id + 1])
        return CellRange(cell_id, self.order[lo:hi], hi - lo)

    def leaf(self, cell_id: int) -> LeafCell:
        """Leaf ``cell_id`` as a :class:`LeafCell`, signatures included —
        the one place leaf objects are derived from the arrays."""
        cell = self.cell(cell_id)
        lo = int(self.offsets[cell_id])
        return LeafCell(
            cell_id=cell_id,
            relation_name=self.relation_name,
            indices=cell.indices,
            measure_attrs=self.measure_attrs,
            bounds=HyperRect(tuple(self.lower[cell_id]), tuple(self.upper[cell_id])),
            # ``tolist`` yields the Python scalars a per-row ``.item()``
            # would, so each NaN row stays its own set element.
            signatures={
                name: frozenset(keys[lo : lo + cell.size].tolist())
                for name, keys in self.keys.items()
            },
        )

    @property
    def leaves(self) -> "tuple[LeafCell, ...]":
        return tuple(self.leaf(i) for i in range(self.cell_count))

    def extended(self, delta: "Partitioning", row_offset: int) -> "Partitioning":
        """This partitioning followed by ``delta``'s leaves, whose rows
        start at ``row_offset`` (an append-only table's newest rows) and
        whose cell ids follow this partitioning's."""
        order = np.concatenate([self.order, delta.order + row_offset])
        return Partitioning(
            relation_name=self.relation_name,
            measure_attrs=self.measure_attrs,
            depth=max(self.depth, delta.depth),
            order=_frozen(order),
            offsets=np.append(self.offsets, delta.offsets[1:] + len(self.order)),
            lower=np.concatenate([self.lower, delta.lower]),
            upper=np.concatenate([self.upper, delta.upper]),
            keys={
                name: np.concatenate([keys, delta.keys[name]])
                for name, keys in self.keys.items()
            },
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _key_columns(
    relation: Relation,
    order: np.ndarray,
    conditions: "tuple[JoinCondition, ...]",
    side: str,
) -> "dict[str, np.ndarray]":
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return {
        c.name: relation.column(c.left_attr if side == "left" else c.right_attr)[order]
        for c in conditions
    }


def partitioning_of(
    relation: Relation,
    leaves: "list[LeafCell]",
    conditions: "tuple[JoinCondition, ...]",
    side: str,
) -> Partitioning:
    """The arrays of ``leaves`` (ids ``0..n-1`` in order) over
    ``relation``, whose key columns the signatures were taken from."""
    if any(leaf.cell_id != i for i, leaf in enumerate(leaves)):
        raise PartitionError("leaf cells must be numbered 0..n-1 in order")
    order = _frozen(
        np.concatenate([leaf.indices for leaf in leaves]).astype(np.intp)
        if leaves
        else np.empty(0, np.intp)
    )
    d = len(leaves[0].measure_attrs) if leaves else 0
    return Partitioning(
        relation_name=relation.name,
        measure_attrs=leaves[0].measure_attrs if leaves else (),
        depth=0,
        order=order,
        offsets=np.cumsum([0] + [leaf.size for leaf in leaves], dtype=np.intp),
        lower=np.asarray([leaf.bounds.lower for leaf in leaves], float).reshape(-1, d),
        upper=np.asarray([leaf.bounds.upper for leaf in leaves], float).reshape(-1, d),
        keys=_key_columns(relation, order, conditions, side),
    )


def _quad_ranges(
    matrix: np.ndarray, capacity: int, max_depth: int
) -> "tuple[np.ndarray, np.ndarray, int]":
    """``(order, leaf starts, depth)`` of the midpoint quad tree, one pass
    per tree level.

    The open nodes of a level are contiguous ranges of ``order`` in
    depth-first order.  A pass sorts each open node's rows by quadrant
    code — stably, so rows stay ascending within a child — and the
    children replace their parent's range in code order, which keeps the
    ranges in depth-first order.  A node with one non-empty child stops
    splitting (all its points lie in one quadrant).
    """
    n, d = matrix.shape
    order = np.arange(n, dtype=np.intp)
    weights = np.left_shift(1, np.arange(d))
    start = np.zeros(1, dtype=np.intp)
    size = np.array([n], dtype=np.intp)
    lo, hi = matrix.min(axis=0)[None, :], matrix.max(axis=0)[None, :]
    closed: "list[np.ndarray]" = []
    depth = deepest = 0
    while len(size):
        over = np.flatnonzero(size > capacity) if depth < max_depth else start[:0]
        node = np.repeat(np.arange(len(over)), size[over])
        pos = np.arange(len(node)) + np.repeat(
            start[over] - np.cumsum(size[over]) + size[over], size[over]
        )
        rows = order[pos]
        mid = (lo[over] + hi[over]) / 2.0
        code = node * (1 << d) + (matrix[rows] > mid[node]) @ weights
        sort = np.argsort(code, kind="stable")
        order[pos] = rows[sort]
        code = code[sort]
        # The children: the runs of equal (node, code) keys, in key order.
        first = np.flatnonzero(np.diff(code, prepend=-1))
        child = code[first]
        count = np.diff(first, append=len(code))
        parent = child >> d
        is_leaf = np.ones(len(size), dtype=bool)
        is_leaf[over] = np.bincount(parent, minlength=len(over)) == 1
        if is_leaf.any():
            closed.append(start[is_leaf])
            deepest = depth
        keep = ~is_leaf[over[parent]]
        child, parent = child[keep], parent[keep]
        upper_half = (child[:, None] & weights) != 0
        start, size = pos[first[keep]], count[keep]
        lo, hi = (
            np.where(upper_half, mid[parent], lo[over[parent]]),
            np.where(upper_half, hi[over[parent]], mid[parent]),
        )
        depth += 1
    return order, np.sort(np.concatenate(closed)), deepest


def _kd_ranges(
    matrix: np.ndarray, capacity: int, max_depth: int
) -> "tuple[np.ndarray, np.ndarray, int]":
    """``(order, leaf starts, depth)`` of binary median splits on the
    widest dimension (k-d style).

    Unlike the ``2^d``-way quad split, cell counts grow in powers of two
    and leaves stay balanced on skewed data, which gives the look-ahead a
    much smoother granularity knob (used by the partitioning ablation).
    """
    leaves: "list[np.ndarray]" = []
    depths: "list[int]" = []

    def build(indices: np.ndarray, depth: int) -> None:
        if len(indices) > capacity and depth < max_depth:
            points = matrix[indices]
            widths = points.max(axis=0) - points.min(axis=0)
            axis = int(np.argmax(widths))
            below = points[:, axis] <= float(np.median(points[:, axis]))
            # All values tied on every axis wide enough to split: a leaf.
            if below.any() and not below.all():
                build(indices[below], depth + 1)
                build(indices[~below], depth + 1)
                return
        leaves.append(indices)
        depths.append(depth)

    build(np.arange(len(matrix), dtype=np.intp), 0)
    starts = np.cumsum([0] + [len(leaf) for leaf in leaves[:-1]], dtype=np.intp)
    return np.concatenate(leaves), starts, max(depths)


def _leaf_bounds(
    matrix: np.ndarray, order: np.ndarray, offsets: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Each leaf's tightest box, bit for bit what ``min`` / ``max`` over
    the leaf's own rows give.

    Only zeros and NaNs have several bit patterns that compare alike, so
    one sequential ``reduceat`` agrees with numpy's per-leaf reduction
    unless the matrix mixes signed zeros or NaN payloads; then the
    leaves are reduced one at a time, as their own arrays.
    """
    points = matrix[order]
    starts = offsets[:-1]
    if not len(starts):
        return points, points
    zeros = np.signbit(points[points == 0])
    nans = points[points != points].view(np.uint64)
    if (zeros.any() and not zeros.all()) or (nans != nans[:1]).any():
        leaves = [matrix[order[a:b]] for a, b in zip(starts, offsets[1:])]
        return (
            np.asarray([leaf.min(axis=0) for leaf in leaves]),
            np.asarray([leaf.max(axis=0) for leaf in leaves]),
        )
    return (
        np.minimum.reduceat(points, starts, axis=0),
        np.maximum.reduceat(points, starts, axis=0),
    )


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
    select the key columns the coarse join reads.  ``split`` selects the
    node split policy: ``"quad"`` — the paper's ``2^d``-way midpoint
    split; ``"kd"`` — binary median splits on the widest dimension
    (balanced leaves, smoother cell counts; see the partitioning ablation
    bench).
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
    matrix = np.column_stack([relation.column(a) for a in measure_attrs]).astype(float)
    if relation.cardinality == 0:
        order, starts, depth = np.empty(0, np.intp), np.empty(0, np.intp), 0
    else:
        builder = _quad_ranges if split == "quad" else _kd_ranges
        order, starts, depth = builder(matrix, capacity, max_depth)
    offsets = np.append(starts, len(order))
    lower, upper = _leaf_bounds(matrix, order, offsets)
    return Partitioning(
        relation_name=relation.name,
        measure_attrs=tuple(measure_attrs),
        depth=depth,
        order=_frozen(order),
        offsets=offsets,
        lower=lower,
        upper=upper,
        keys=_key_columns(relation, order, conditions, side),
    )


__all__ = [
    "DEFAULT_CAPACITY",
    "MAX_TREE_DIMENSIONS",
    "Partitioning",
    "partitioning_of",
    "quadtree_partition",
]
