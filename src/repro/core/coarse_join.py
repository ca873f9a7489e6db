"""Coarse-level join evaluation (Section 5.1, MQLA step 1).

For every pair of leaf cells (one per table) and every join condition in
the workload, intersect the cells' join signatures.  A non-empty
intersection guarantees at least one tuple-level join result, so the pair
becomes an :class:`~repro.core.region.OutputRegion`; an empty intersection
proves the pair can never contribute to queries using that condition and
the pair is skipped entirely — join work the shared plan never performs.

Region bounds in output space are derived by pushing the input-cell bounds
through the (monotone) mapping functions; the estimated join cardinality
comes from the signature overlap under a uniform-value assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.output_space import DEFAULT_DIVISIONS, OutputGrid, grid_for_cells
from repro.core.region import OutputRegion
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.partition.quadtree import Partitioning
from repro.partition.signatures import common_values
from repro.query.workload import Workload


@dataclass(frozen=True)
class CoarseJoinResult:
    """Everything MQLA's later steps need."""

    regions: "list[OutputRegion]"
    grid: OutputGrid
    #: (left_cell_id, right_cell_id, condition) pairs pruned by signatures.
    pruned_pairs: int


def _estimate_join_count(
    left_sig: frozenset,
    right_sig: frozenset,
    shared: frozenset,
    left_size: int,
    right_size: int,
) -> float:
    """Expected matches assuming values are uniform within each cell."""
    if not shared:
        return 0.0
    per_left = left_size / max(len(left_sig), 1)
    per_right = right_size / max(len(right_sig), 1)
    return len(shared) * per_left * per_right


def _corner_maps(
    partitioning: Partitioning, cell_idx: np.ndarray
) -> "tuple[dict[str, np.ndarray], dict[str, np.ndarray]]":
    """Lower and upper corner of leaf ``cell_idx[k]`` in row ``k``, each as
    one column per measure attribute."""
    leaves = partitioning.leaves
    lower = np.asarray([c.bounds.lower for c in leaves], dtype=float)[cell_idx]
    upper = np.asarray([c.bounds.upper for c in leaves], dtype=float)[cell_idx]
    attrs = partitioning.measure_attrs
    return (
        {a: lower[:, k] for k, a in enumerate(attrs)},
        {a: upper[:, k] for k, a in enumerate(attrs)},
    )


def coarse_join(
    workload: Workload,
    left_partitioning: Partitioning,
    right_partitioning: Partitioning,
    stats: ExecutionStats,
    *,
    divisions: int = DEFAULT_DIVISIONS,
    touching: "tuple[frozenset[int], frozenset[int]] | None" = None,
) -> CoarseJoinResult:
    """Run the signature-driven coarse join and build the output regions.

    ``touching`` — ``(left cell ids, right cell ids)`` — keeps only the
    pairs with at least one cell in those sets: the delta join of an
    append-only epoch (new-left x all-right plus old-left x new-right).
    A restricted join may legitimately find nothing; it then returns no
    regions, over a unit grid no region indexes, instead of raising.
    """
    output_dims = workload.output_dims
    functions = [workload.function_for(d) for d in output_dims]
    conditions = workload.join_conditions
    # Query bitmask per join condition: which workload queries use it.
    condition_rql = {
        c.name: sum(
            1 << qi
            for qi, q in enumerate(workload)
            if q.join_condition.name == c.name
        )
        for c in conditions
    }

    # Pass 1: signature tests, charged one by one in pair order, pick the
    # contributing (left cell, right cell, condition) triples.  A restricted
    # join visits only its pairs, in the same order: every right cell for a
    # new left cell, only the new right cells for an old one.
    left_leaves = left_partitioning.leaves
    right_leaves = right_partitioning.leaves
    every_right = range(len(right_leaves))
    new_right = every_right
    if touching is not None:
        new_right = [
            ri for ri in every_right if right_leaves[ri].cell_id in touching[1]
        ]
    raw: "list[tuple[int, int, str, float]]" = []
    pruned = 0
    for li, left_cell in enumerate(left_leaves):
        new_left = touching is not None and left_cell.cell_id in touching[0]
        for ri in every_right if new_left else new_right:
            right_cell = right_leaves[ri]
            for condition in conditions:
                stats.record_coarse_comparisons(1)  # one signature test
                left_sig = left_cell.signature(condition.name)
                right_sig = right_cell.signature(condition.name)
                shared = common_values(left_sig, right_sig)
                if not shared:
                    pruned += 1
                    continue
                est = _estimate_join_count(
                    left_sig, right_sig, shared, left_cell.size, right_cell.size
                )
                raw.append((li, ri, condition.name, est))
    if not raw:
        if touching is None:
            raise ExecutionError(
                "coarse join produced no output regions: no cell pair "
                "satisfies any join condition"
            )
        unit = np.zeros((1, len(output_dims))), np.ones((1, len(output_dims)))
        return CoarseJoinResult(
            regions=[],
            grid=grid_for_cells(output_dims, *unit, divisions=divisions),
            pruned_pairs=pruned,
        )

    # Output bounds of every contributing pair at once: gather the cell
    # corners by pair index and push them through each mapping function in
    # one vectorised call per output dimension — elementwise the same
    # float operations as mapping one pair at a time.
    left_lower, left_upper = _corner_maps(
        left_partitioning, np.asarray([r[0] for r in raw], dtype=np.intp)
    )
    right_lower, right_upper = _corner_maps(
        right_partitioning, np.asarray([r[1] for r in raw], dtype=np.intp)
    )
    lower = np.empty((len(raw), len(functions)))
    upper = np.empty_like(lower)
    for k, fn in enumerate(functions):
        # Column assignment copies (and repeats a constant bound).
        lower[:, k], upper[:, k] = fn.apply_bounds(
            left_lower, left_upper, right_lower, right_upper
        )

    # Pass 2: size the grid, then materialise regions with coordinate boxes
    # — `coords_of` performs the same elementwise float operations as the
    # scalar `box_of`, so each row matches the per-region call bit for bit.
    grid = grid_for_cells(output_dims, lower, upper, divisions=divisions)
    box_lo = grid.coords_of(lower).tolist()
    box_hi = grid.coords_of(upper).tolist()
    regions: list[OutputRegion] = []
    for region_id, (li, ri, condition_name, est) in enumerate(raw):
        left_cell, right_cell = left_leaves[li], right_leaves[ri]
        regions.append(
            OutputRegion(
                region_id=region_id,
                left_cell_id=left_cell.cell_id,
                right_cell_id=right_cell.cell_id,
                condition_name=condition_name,
                lower=lower[region_id],
                upper=upper[region_id],
                rql=condition_rql[condition_name],
                coord_lo=tuple(box_lo[region_id]),
                coord_hi=tuple(box_hi[region_id]),
                est_join_count=max(est, 1.0),
                left_size=left_cell.size,
                right_size=right_cell.size,
            )
        )
    return CoarseJoinResult(regions=regions, grid=grid, pruned_pairs=pruned)


__all__ = ["CoarseJoinResult", "coarse_join"]
