"""Sort-Filter-Skyline (Chomicki et al. [6]).

SFS presorts the input by a monotone scoring function (we use the
entropy-free sum of the compared dimensions).  After sorting, a point can
never be dominated by a *later* point, so the window never evicts: every
admitted point is final, which is what makes SFS the natural engine for
sort-based progressive baselines such as SSMJ.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.skyline.dominance import ComparisonCounter
from repro.skyline.window import SkylineWindow


def sfs_order(points: np.ndarray, dims: "Sequence[int] | None" = None) -> np.ndarray:
    """Row order used by SFS: ascending sum over the compared dimensions."""
    matrix = np.asarray(points, dtype=float)
    view = matrix if dims is None else matrix[:, list(dims)]
    scores = view.sum(axis=1)
    return np.argsort(scores, kind="stable")


def sfs_skyline(
    points: np.ndarray,
    dims: "Sequence[int] | None" = None,
    counter: "ComparisonCounter | None" = None,
) -> "list[int]":
    """Skyline row-indices via SFS (ascending index order)."""
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d matrix of points, got shape {matrix.shape}")
    window = SkylineWindow(dims=dims, counter=counter)
    for row_index in sfs_order(matrix, dims):
        # With exact arithmetic the presort makes evictions impossible; with
        # float64 score ties a dominating point can land after its victim,
        # so the window's normal eviction path handles those corner cases.
        window.insert(int(row_index), matrix[row_index])
    return sorted(window.keys)


__all__ = ["sfs_order", "sfs_skyline"]
