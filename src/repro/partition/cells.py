"""Leaf cells of the partitioned input space (Table 1's ``L_i^T(l_i, u_i)``).

A :class:`LeafCell` groups a subset of one table's rows and carries exactly
what coarse-level processing needs: the cell's measure-space bounding box
and one join signature per workload join predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.partition.bounds import HyperRect
from repro.partition.signatures import signatures_for_side
from repro.query.predicates import JoinCondition
from repro.relation import Relation


@dataclass(frozen=True)
class LeafCell:
    """A group of rows from one relation plus its coarse metadata."""

    cell_id: int
    relation_name: str
    #: Row indices into the source relation (sorted, unique).
    indices: np.ndarray
    #: Measure attributes the bounds cover, in bound order.
    measure_attrs: tuple[str, ...]
    bounds: HyperRect
    #: Join signatures keyed by join-condition name.
    signatures: "dict[str, frozenset]"

    def __post_init__(self) -> None:
        if len(self.indices) == 0:
            raise PartitionError("a leaf cell must contain at least one tuple")
        if len(self.measure_attrs) != self.bounds.dimensions:
            raise PartitionError(
                f"cell {self.cell_id}: {len(self.measure_attrs)} measure attrs but "
                f"{self.bounds.dimensions}-d bounds"
            )

    @property
    def size(self) -> int:
        return len(self.indices)

    def lower_of(self, attr: str) -> float:
        return self.bounds.lower[self.measure_attrs.index(attr)]

    def upper_of(self, attr: str) -> float:
        return self.bounds.upper[self.measure_attrs.index(attr)]

    def lower_map(self) -> "dict[str, float]":
        return dict(zip(self.measure_attrs, self.bounds.lower))

    def upper_map(self) -> "dict[str, float]":
        return dict(zip(self.measure_attrs, self.bounds.upper))

    def signature(self, condition_name: str) -> frozenset:
        try:
            return self.signatures[condition_name]
        except KeyError:
            raise PartitionError(
                f"cell {self.cell_id} has no signature for join condition "
                f"{condition_name!r}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"LeafCell(#{self.cell_id} of {self.relation_name}, "
            f"n={self.size}, bounds={self.bounds})"
        )


def make_leaf(
    cell_id: int,
    relation: Relation,
    indices: np.ndarray,
    measure_attrs: "tuple[str, ...]",
    conditions: "tuple[JoinCondition, ...]",
    side: str,
) -> LeafCell:
    """Build a leaf cell: compute bounds and signatures for ``indices``."""
    idx = np.unique(np.asarray(indices, dtype=np.intp))
    if len(idx) == 0:
        raise PartitionError("cannot build a leaf cell over zero rows")
    matrix = np.column_stack([relation.column(a)[idx] for a in measure_attrs]).astype(float)
    return LeafCell(
        cell_id=cell_id,
        relation_name=relation.name,
        indices=idx,
        measure_attrs=tuple(measure_attrs),
        bounds=HyperRect.from_points(matrix),
        signatures=signatures_for_side(relation, idx, conditions, side),
    )


__all__ = ["LeafCell", "make_leaf"]
