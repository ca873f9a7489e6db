"""Output regions and region-level dominance (Section 5.2, Definition 8).

An :class:`OutputRegion` is the image, under the workload's mapping
functions, of one ``(left cell, right cell, join condition)`` triple — the
unit of work CAQE's optimizer schedules.  Its *region query lineage*
(``RQL``, Table 1) starts as the queries whose join signatures intersected
(Section 5.1) and shrinks as tuple-level results of other regions dominate
it for individual queries.  The coarse join creates regions as the rows of
one :class:`RegionTable`; MQLA's coarse skyline works on its columns, and
only the regions that survive it become objects.

Region dominance over a subspace ``V`` (Definition 8) compares bound
corners:

* ``R_i`` **dominates** ``R_j``  iff ``u_i <=_V l_j`` — every possible
  point of ``R_i`` dominates every possible point of ``R_j``;
* ``R_i`` **partially dominates** ``R_j`` iff some point of ``R_i`` *could*
  dominate some point of ``R_j`` (``l_i <=_V u_j`` with a strict dimension)
  — the condition under which the dependency graph draws an edge;
* otherwise the regions are incomparable.

The coarse skyline and the dependency graph answer both tests for every
subspace from one comparison code per region pair
(:func:`repro.skyline.dominance.dominance_codes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import ExecutionError


def _check_regions(
    ids: "Sequence[int]",
    lower: np.ndarray,
    upper: np.ndarray,
    rql: "Sequence[int] | np.ndarray",
) -> None:
    """The invariants of :class:`OutputRegion`, over the rows of one or
    more regions: bounds of one arity with ``lower <= upper``, and a
    lineage that serves some query.  Raises for the first offending row."""
    if lower.shape != upper.shape:
        raise ExecutionError("region bound arity mismatch")
    inverted = (lower > upper).any(axis=tuple(range(1, lower.ndim)))
    bad = np.flatnonzero(inverted | (np.asarray(rql) == 0))
    if bad.size:
        k = bad[0]
        if inverted[k]:
            raise ExecutionError(f"region #{ids[k]}: lower bound exceeds upper bound")
        raise ExecutionError(f"region #{ids[k]} serves no query")


@dataclass
class OutputRegion:
    """One schedulable unit of tuple-level work."""

    region_id: int
    left_cell_id: int
    right_cell_id: int
    condition_name: str
    #: Output-space bounds over the grid's dimensions (full output space).
    lower: np.ndarray
    upper: np.ndarray
    #: Query-lineage bitmask at creation time (bit i = workload query i).
    rql: int
    #: Coordinate box on the output grid (inclusive).
    coord_lo: tuple[int, ...]
    coord_hi: tuple[int, ...]
    #: Estimated number of join results this region will materialise.
    est_join_count: float
    #: Sizes of the contributing input cells (for Equation 9).
    left_size: int = 0
    right_size: int = 0
    #: Queries the region can still contribute to (shrinks at run time).
    active_rql: int = field(default=0)

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        _check_regions(
            [self.region_id], self.lower[None], self.upper[None], [self.rql]
        )
        if self.active_rql == 0:
            self.active_rql = self.rql

    @classmethod
    def _unchecked(cls, columns: "dict[str, Sequence]") -> "list[OutputRegion]":
        """One instance per row of ``columns`` (field name -> values),
        without :meth:`__post_init__`: for rows :func:`_check_regions` has
        passed, with float bounds and a nonzero ``active_rql``."""
        names = [f.name for f in fields(cls)]
        regions = []
        for values in zip(*(columns[name] for name in names)):
            region = cls.__new__(cls)
            # In declaration order, as the generated ``__init__`` assigns
            # them: the instances share its attribute-key layout.
            for name, value in zip(names, values):
                setattr(region, name, value)
            regions.append(region)
        return regions

    @cached_property
    def cell_count(self) -> int:
        """Total grid cells of the coordinate box.

        The scheduler reads this on every exact-vs-sampled branch test;
        the box is fixed once scheduling starts, so the first read's value
        is kept for the region's lifetime.
        """
        count = 1
        for a, b in zip(self.coord_lo, self.coord_hi):
            count *= b - a + 1
        return count

    def serves(self, query_bit: int) -> bool:
        return bool(self.active_rql & (1 << query_bit))

    def deactivate_query(self, query_bit: int) -> None:
        self.active_rql &= ~(1 << query_bit)

    @property
    def is_discarded(self) -> bool:
        return self.active_rql == 0

    def __repr__(self) -> str:
        return (
            f"OutputRegion(#{self.region_id}, cells=({self.left_cell_id},"
            f"{self.right_cell_id}), jc={self.condition_name}, "
            f"rql={self.active_rql:#x})"
        )


@dataclass
class RegionTable:
    """Regions as columns, one row per region in creation order.

    What the coarse join creates and the coarse skyline and dependency
    graph read: most regions of a correlated workload are discarded at
    cell level, so they never need to exist as :class:`OutputRegion`
    objects.  ``len`` is the number of regions created; the coarse
    skyline narrows ``active_rql`` in place (0 = discarded).
    """

    region_id: np.ndarray  # int64 (n,)
    left_cell_id: np.ndarray  # int64 (n,)
    right_cell_id: np.ndarray  # int64 (n,)
    #: Row -> index into ``condition_names``.
    condition: np.ndarray  # intp (n,)
    condition_names: "tuple[str, ...]"
    lower: np.ndarray  # float (n, d)
    upper: np.ndarray  # float (n, d)
    coord_lo: np.ndarray  # int (n, d)
    coord_hi: np.ndarray  # int (n, d)
    est_join_count: np.ndarray  # float (n,)
    rql: np.ndarray  # int64 (n,)
    active_rql: np.ndarray  # int64 (n,)
    left_size: np.ndarray  # int64 (n,)
    right_size: np.ndarray  # int64 (n,)

    def __len__(self) -> int:
        return len(self.region_id)

    @classmethod
    def from_regions(cls, regions: "Sequence[OutputRegion]") -> "RegionTable":
        """The table whose rows are ``regions``, in the given order, each
        with its current ``active_rql``."""
        names = tuple(dict.fromkeys(r.condition_name for r in regions))
        code = {name: k for k, name in enumerate(names)}
        d = len(regions[0].lower) if regions else 0

        def column(attr: str, dtype: type) -> np.ndarray:
            return np.asarray([getattr(r, attr) for r in regions], dtype=dtype)

        def matrix(attr: str, dtype: type) -> np.ndarray:
            return np.asarray(
                [getattr(r, attr) for r in regions], dtype=dtype
            ).reshape(len(regions), d)

        return cls(
            region_id=column("region_id", np.int64),
            left_cell_id=column("left_cell_id", np.int64),
            right_cell_id=column("right_cell_id", np.int64),
            condition=np.asarray(
                [code[r.condition_name] for r in regions], dtype=np.intp
            ),
            condition_names=names,
            lower=matrix("lower", float),
            upper=matrix("upper", float),
            coord_lo=matrix("coord_lo", np.intp),
            coord_hi=matrix("coord_hi", np.intp),
            est_join_count=column("est_join_count", float),
            rql=column("rql", np.int64),
            active_rql=column("active_rql", np.int64),
            left_size=column("left_size", np.int64),
            right_size=column("right_size", np.int64),
        )

    def materialise(
        self, rows: "Sequence[int] | np.ndarray | None" = None
    ) -> "list[OutputRegion]":
        """:class:`OutputRegion` objects for ``rows`` (default: every row),
        in the given order, with their current ``active_rql`` — except a
        discarded row's, which resets to ``rql`` as in
        :class:`OutputRegion`.

        The rows' invariants are checked once, as one array pass
        (:func:`_check_regions`); the objects are then built without
        re-checking each one.
        """
        idx = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.intp)
        ids = self.region_id[idx]
        rql = self.rql[idx]
        _check_regions(ids, self.lower[idx], self.upper[idx], rql)
        active = self.active_rql[idx]
        names = self.condition_names
        lower = self.lower.astype(float, copy=False)
        upper = self.upper.astype(float, copy=False)
        return OutputRegion._unchecked(
            {
                "region_id": ids.tolist(),
                "left_cell_id": self.left_cell_id[idx].tolist(),
                "right_cell_id": self.right_cell_id[idx].tolist(),
                "condition_name": [names[c] for c in self.condition[idx].tolist()],
                "lower": [lower[row] for row in idx.tolist()],
                "upper": [upper[row] for row in idx.tolist()],
                "rql": rql.tolist(),
                "coord_lo": [tuple(lo) for lo in self.coord_lo[idx].tolist()],
                "coord_hi": [tuple(hi) for hi in self.coord_hi[idx].tolist()],
                "est_join_count": self.est_join_count[idx].tolist(),
                "left_size": self.left_size[idx].tolist(),
                "right_size": self.right_size[idx].tolist(),
                "active_rql": np.where(active == 0, rql, active).tolist(),
            }
        )


__all__ = [
    "OutputRegion",
    "RegionTable",
]
