"""Leaf cells of the partitioned input space (Table 1's ``L_i^T(l_i, u_i)``).

A :class:`~repro.partition.quadtree.Partitioning` holds its leaves as
arrays.  Two views of one leaf come out of it: a :class:`CellRange` —
the cell id, its rows and their count, all the tuple-level join reads —
and a :class:`LeafCell`, which adds the cell's measure-space bounding box
and one join signature per workload join predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.bounds import HyperRect


class CellRange(NamedTuple):
    """One leaf as the executor reads it."""

    cell_id: int
    #: Row indices into the source relation (ascending).
    indices: np.ndarray
    size: int


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


__all__ = ["CellRange", "LeafCell"]
