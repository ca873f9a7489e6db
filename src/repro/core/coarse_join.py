"""Coarse-level join evaluation (Section 5.1, MQLA step 1).

For every pair of leaf cells (one per table) and every join condition in
the workload, intersect the cells' join signatures.  A non-empty
intersection guarantees at least one tuple-level join result, so the pair
becomes an output region; an empty intersection proves the pair can never
contribute to queries using that condition and the pair is skipped
entirely — join work the shared plan never performs.

All signature tests of a condition are one product: each side's leaves
become a ``(leaves x values)`` 0/1 incidence matrix over the values the
left signatures hold, and ``left @ right.T`` counts every pair's shared
values at once.  The regions come out as the columns of a
:class:`~repro.core.region.RegionTable`.

Region bounds in output space are derived by pushing the input-cell bounds
through the (monotone) mapping functions; the estimated join cardinality
comes from the signature overlap under a uniform-value assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.output_space import DEFAULT_DIVISIONS, OutputGrid, grid_for_cells
from repro.core.region import RegionTable
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.partition.cells import LeafCell
from repro.partition.quadtree import Partitioning
from repro.query.workload import Workload


@dataclass(frozen=True)
class CoarseJoinResult:
    """Everything MQLA's later steps need."""

    regions: RegionTable
    grid: OutputGrid
    #: (left_cell_id, right_cell_id, condition) pairs pruned by signatures.
    pruned_pairs: int


def _shared_counts(
    left: "tuple[LeafCell, ...]", right: "tuple[LeafCell, ...]", condition: str
) -> np.ndarray:
    """``shared[li, ri] = |sig(left[li]) & sig(right[ri])|`` for one condition.

    Values are matched with the signatures' own set semantics (hash and
    ``==``, so ``1 == 1.0`` and any hashable key works), except that a NaN
    never matches — not even itself.  The float64 product is exact: each
    entry is a count far below 2**53.
    """
    vocab: "dict[object, int]" = {}
    left_cols = [
        [vocab.setdefault(v, len(vocab)) for v in leaf.signature(condition) if v == v]
        for leaf in left
    ]
    right_cols = [
        [vocab[v] for v in leaf.signature(condition) if v in vocab] for leaf in right
    ]

    def incidence(cols: "list[list[int]]") -> np.ndarray:
        matrix = np.zeros((len(cols), len(vocab)))
        rows = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
        matrix[rows, np.fromiter(chain.from_iterable(cols), np.intp, len(rows))] = 1.0
        return matrix

    return incidence(left_cols) @ incidence(right_cols).T


def _per_value(leaves: "tuple[LeafCell, ...]", condition: str) -> np.ndarray:
    """Each leaf's tuples per distinct key value (the uniform assumption)."""
    sizes = np.asarray([leaf.size for leaf in leaves], dtype=float)
    counts = np.asarray(
        [max(len(leaf.signature(condition)), 1) for leaf in leaves], dtype=float
    )
    return sizes / counts


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
    first_region_id: int = 0,
) -> CoarseJoinResult:
    """Run the signature-driven coarse join and build the output regions.

    Regions are numbered from ``first_region_id`` in (left cell, right
    cell, condition) order.  ``touching`` — ``(left cell ids, right cell
    ids)`` — keeps only the pairs with at least one cell in those sets:
    the delta join of an append-only epoch (new-left x all-right plus
    old-left x new-right).  A restricted join may legitimately find
    nothing; it then returns no regions, over a unit grid no region
    indexes, instead of raising.
    """
    output_dims = workload.output_dims
    functions = [workload.function_for(d) for d in output_dims]
    conditions = workload.join_conditions
    # Query bitmask per join condition: which workload queries use it.
    condition_rql = np.asarray(
        [
            sum(
                1 << qi
                for qi, q in enumerate(workload)
                if q.join_condition.name == c.name
            )
            for c in conditions
        ],
        dtype=np.int64,
    )

    # Signature tests: every visited (left cell, right cell, condition)
    # triple, each charged as its own coarse comparison.  A restricted
    # join visits the pairs with a new cell on either side.
    left_leaves = left_partitioning.leaves
    right_leaves = right_partitioning.leaves
    visited = np.ones((len(left_leaves), len(right_leaves)), dtype=bool)
    if touching is not None:
        new_left = np.asarray([c.cell_id in touching[0] for c in left_leaves], bool)
        new_right = np.asarray([c.cell_id in touching[1] for c in right_leaves], bool)
        visited = new_left[:, None] | new_right[None, :]
    shared = np.stack(
        [_shared_counts(left_leaves, right_leaves, c.name) for c in conditions],
        axis=-1,
    )
    tests = int(visited.sum()) * len(conditions)
    stats.record_signature_tests(tests)
    # Row-major nonzero: (left, right, condition) ascending, the order in
    # which a loop over the triples would create the regions.
    li, ri, ci = np.nonzero(visited[:, :, None] & (shared > 0))
    pruned = tests - len(li)
    # Expected matches under uniform values within each cell: the same two
    # multiplies, in the same order, as ``shared * per_left * per_right``
    # for one pair.
    per_left = np.stack([_per_value(left_leaves, c.name) for c in conditions])
    per_right = np.stack([_per_value(right_leaves, c.name) for c in conditions])
    est = shared[li, ri, ci] * per_left[ci, li] * per_right[ci, ri]

    lower = np.empty((len(li), len(functions)))
    upper = np.empty_like(lower)
    if len(li):
        # Output bounds of every contributing pair at once: gather the
        # cell corners by pair index and push them through each mapping
        # function in one vectorised call per output dimension —
        # elementwise the same float operations as mapping one pair at a
        # time.
        left_lower, left_upper = _corner_maps(left_partitioning, li)
        right_lower, right_upper = _corner_maps(right_partitioning, ri)
        for k, fn in enumerate(functions):
            # Column assignment copies (and repeats a constant bound).
            lower[:, k], upper[:, k] = fn.apply_bounds(
                left_lower, left_upper, right_lower, right_upper
            )
        grid = grid_for_cells(output_dims, lower, upper, divisions=divisions)
    elif touching is None:
        raise ExecutionError(
            "coarse join produced no output regions: no cell pair "
            "satisfies any join condition"
        )
    else:
        unit = np.zeros((1, len(output_dims))), np.ones((1, len(output_dims)))
        grid = grid_for_cells(output_dims, *unit, divisions=divisions)
    # Coordinate boxes: `coords_of` performs the same elementwise float
    # operations as the scalar `box_of`, so each row matches the
    # per-region call bit for bit.
    left_ids = np.asarray([c.cell_id for c in left_leaves], dtype=np.int64)
    right_ids = np.asarray([c.cell_id for c in right_leaves], dtype=np.int64)
    left_sizes = np.asarray([c.size for c in left_leaves], dtype=np.int64)
    right_sizes = np.asarray([c.size for c in right_leaves], dtype=np.int64)
    rql = condition_rql[ci]
    table = RegionTable(
        region_id=first_region_id + np.arange(len(li), dtype=np.int64),
        left_cell_id=left_ids[li],
        right_cell_id=right_ids[ri],
        condition=ci,
        condition_names=tuple(c.name for c in conditions),
        lower=lower,
        upper=upper,
        coord_lo=grid.coords_of(lower),
        coord_hi=grid.coords_of(upper),
        est_join_count=np.maximum(est, 1.0),
        rql=rql,
        active_rql=rql.copy(),
        left_size=left_sizes[li],
        right_size=right_sizes[ri],
    )
    return CoarseJoinResult(regions=table, grid=grid, pruned_pairs=pruned)


__all__ = ["CoarseJoinResult", "coarse_join"]
