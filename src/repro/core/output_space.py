"""The abstract multi-query output space (Section 5).

MQLA evaluates the workload coarsely over a ``d``-dimensional abstraction
of the *output* of the shared plan, where ``d`` is the total number of
skyline dimensions used across the workload.  :class:`OutputGrid` is that
abstraction: a uniform grid over the output-dimension ranges.  Output
*cells* are grid cells (Table 1's ``O_x``); output *regions* are the
hyper-rectangles a pair of input cells maps onto, expressed as coordinate
boxes over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

import numpy as np

from repro.errors import ExecutionError

#: Default grid resolution per output dimension.
DEFAULT_DIVISIONS = 8


@dataclass(frozen=True)
class OutputGrid:
    """Uniform grid over the workload's output dimensions."""

    dims: tuple[str, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    divisions: int = DEFAULT_DIVISIONS
    # Derived geometry caches (see __post_init__); excluded from
    # equality/repr so the grid still compares by its defining fields.
    _lows_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _spans_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _widths_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.dims:
            raise ExecutionError("output grid needs at least one dimension")
        if not (len(self.dims) == len(self.lows) == len(self.highs)):
            raise ExecutionError("output grid dims/lows/highs arity mismatch")
        if self.divisions < 1:
            raise ExecutionError(f"divisions must be >= 1, got {self.divisions}")
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi:
                raise ExecutionError(f"grid lower bound {lo} exceeds upper bound {hi}")
        # Geometry is immutable, so the derived arrays every coordinate
        # computation reads are built once (the dataclass is frozen; the
        # caches are non-field attributes, so equality/hash are untouched).
        lows_arr = np.asarray(self.lows)
        highs_arr = np.asarray(self.highs)
        spans = np.where(highs_arr > lows_arr, highs_arr - lows_arr, 1.0)
        object.__setattr__(self, "_lows_arr", lows_arr)
        object.__setattr__(self, "_spans_arr", spans)
        object.__setattr__(self, "_widths_arr", spans / self.divisions)

    @property
    def dimensions(self) -> int:
        return len(self.dims)

    def _spans(self) -> np.ndarray:
        return self._spans_arr

    def coord_of(self, vector: np.ndarray) -> tuple[int, ...]:
        """Grid coordinate of an output point (clamped into range)."""
        vec = np.asarray(vector, dtype=float)
        if len(vec) != self.dimensions:
            raise ExecutionError(
                f"point has {len(vec)} dims, grid has {self.dimensions}"
            )
        rel = (vec - self._lows_arr) / self._spans_arr
        coords = np.floor(rel * self.divisions).astype(int)
        coords = np.clip(coords, 0, self.divisions - 1)
        return tuple(int(c) for c in coords)

    def coords_of(self, vectors: np.ndarray) -> np.ndarray:
        """:meth:`coord_of` for many points at once; ``vectors`` is ``(n, d)``.

        Identical elementwise float operations to the scalar form, so row
        ``i`` equals ``coord_of(vectors[i])`` bit for bit.
        """
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != self.dimensions:
            raise ExecutionError(
                f"points have shape {vecs.shape}, grid has {self.dimensions} dims"
            )
        rel = (vecs - self._lows_arr) / self._spans_arr
        coords = np.floor(rel * self.divisions).astype(int)
        return np.clip(coords, 0, self.divisions - 1)

    def cell_lower(self, coord: "tuple[int, ...]") -> np.ndarray:
        self._check_coord(coord)
        return self._lows_arr + np.asarray(coord) * self._widths_arr

    def cell_upper(self, coord: "tuple[int, ...]") -> np.ndarray:
        self._check_coord(coord)
        return self._lows_arr + (np.asarray(coord) + 1) * self._widths_arr

    def cell_lowers(self, coords: np.ndarray) -> np.ndarray:
        """Lower corners of many cells at once; ``coords`` is ``(n, d)``."""
        return self._lows_arr + np.asarray(coords) * self._widths_arr

    def cell_uppers(self, coords: np.ndarray) -> np.ndarray:
        """Upper corners of many cells at once; ``coords`` is ``(n, d)``.

        Row ``i`` equals ``cell_upper(coords[i])`` bit for bit — the
        broadcast performs the same elementwise operations.
        """
        return self._lows_arr + (np.asarray(coords) + 1) * self._widths_arr

    def box_of(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> "tuple[tuple[int, ...], tuple[int, ...]]":
        """Coordinate box (inclusive both ends) covering ``[lower, upper]``."""
        return (self.coord_of(lower), self.coord_of(upper))

    @staticmethod
    def box_cell_count(lo: "tuple[int, ...]", hi: "tuple[int, ...]") -> int:
        count = 1
        for a, b in zip(lo, hi):
            if b < a:
                raise ExecutionError(f"invalid coordinate box: {lo} .. {hi}")
            count *= b - a + 1
        return count

    @staticmethod
    def cells_in_box(
        lo: "tuple[int, ...]", hi: "tuple[int, ...]"
    ) -> "Iterator[tuple[int, ...]]":
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        return product(*ranges)

    @staticmethod
    def box_coords(
        lo: "tuple[int, ...]", hi: "tuple[int, ...]"
    ) -> np.ndarray:
        """All coordinates of a box as one ``(cells, d)`` array.

        Rows appear in :meth:`cells_in_box`'s (row-major) order.
        """
        axes = [np.arange(a, b + 1, dtype=np.intp) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def _check_coord(self, coord: "tuple[int, ...]") -> None:
        if len(coord) != self.dimensions:
            raise ExecutionError(
                f"coordinate {coord} has wrong arity for {self.dimensions}-d grid"
            )
        for c in coord:
            if not 0 <= c < self.divisions:
                raise ExecutionError(f"coordinate {coord} outside grid")


def grid_for_cells(
    dims: "tuple[str, ...]",
    lower_bounds: "np.ndarray | list[np.ndarray]",
    upper_bounds: "np.ndarray | list[np.ndarray]",
    divisions: int = DEFAULT_DIVISIONS,
) -> OutputGrid:
    """Build the output grid spanning a set of region bounds (one row —
    or one vector — per region)."""
    if len(lower_bounds) == 0:
        raise ExecutionError("cannot size an output grid with no regions")
    lows = np.min(np.asarray(lower_bounds), axis=0)
    highs = np.max(np.asarray(upper_bounds), axis=0)
    return OutputGrid(
        dims=tuple(dims),
        lows=tuple(float(x) for x in lows),
        highs=tuple(float(x) for x in highs),
        divisions=divisions,
    )


__all__ = ["DEFAULT_DIVISIONS", "OutputGrid", "grid_for_cells"]
