"""Coarse-level join evaluation (Section 5.1, MQLA step 1).

For every pair of leaf cells (one per table) and every join condition in
the workload, intersect the cells' join signatures.  A non-empty
intersection guarantees at least one tuple-level join result, so the pair
becomes an output region; an empty intersection proves the pair can never
contribute to queries using that condition and the pair is skipped
entirely — join work the shared plan never performs.

No signature is built.  A leaf's signature is the set of values its range
of the partitioning's key column holds, so all signature tests of a
condition are one product: both key columns get value ids from one
``np.unique``, each side's leaves become a ``(leaves x values)`` 0/1
incidence matrix, and ``left @ right.T`` counts every pair's shared
values at once.  The regions come out as the columns of a
:class:`~repro.core.region.RegionTable`.

Region bounds in output space are derived by pushing the input-cell bounds
through the (monotone) mapping functions; the estimated join cardinality
comes from the signature overlap under a uniform-value assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.output_space import DEFAULT_DIVISIONS, OutputGrid, grid_for_cells
from repro.core.region import RegionTable
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.partition.quadtree import Partitioning
from repro.query.workload import Workload


@dataclass(frozen=True)
class CoarseJoinResult:
    """Everything MQLA's later steps need."""

    regions: RegionTable
    grid: OutputGrid
    #: (left_cell_id, right_cell_id, condition) pairs pruned by signatures.
    pruned_pairs: int


def _value_ids(left: np.ndarray, right: np.ndarray) -> "tuple[np.ndarray, int]":
    """Ids for the rows of two key columns (left rows first), and the
    count of ids that can match.

    Two rows share an id iff a Python set would hold their values as one
    element: equal by hash and ``==`` (so ``1 == 1.0`` and any hashable
    key works), and a NaN only by identity — every NaN row of a numeric
    column is its own element, as each ``tolist`` NaN is a new object.
    Ids below the returned count are the values that can match; a NaN
    never matches, not even itself, so NaN ids lie above it.
    """
    lk, rk = left.dtype.kind, right.dtype.kind
    merged: "np.ndarray | None" = None
    if lk == rk and lk in "US":
        merged = np.concatenate([left, right])
    elif lk in "biuf" and rk in "biuf":
        merged = np.concatenate([left, right])
        # numpy's ``==`` is Python's only while no integer key rounds.
        if merged.dtype.kind == "f" and any(
            side.dtype.kind != "f"
            and not np.array_equal(side.astype(merged.dtype).astype(side.dtype), side)
            for side in (left, right)
        ):
            merged = None
    if merged is not None:
        values, ids = np.unique(merged, return_inverse=True)
        nan = np.flatnonzero(merged != merged)
        ids[nan] = len(values) + np.arange(len(nan))
        return ids, len(values)
    # Object keys, or kinds numpy compares differently from Python.
    rows = left.tolist() + right.tolist()
    vocab: "dict[object, int]" = {}
    for v in rows:
        if v == v:
            vocab.setdefault(v, len(vocab))
    matchable = len(vocab)
    by_identity: "dict[int, int]" = {}
    return (
        np.fromiter(
            (
                vocab[v] if v == v
                else by_identity.setdefault(id(v), matchable + len(by_identity))
                for v in rows
            ),
            np.intp,
            len(rows),
        ),
        matchable,
    )


def _leaf_values(
    partitioning: Partitioning, ids: np.ndarray, matchable: int
) -> "tuple[np.ndarray, np.ndarray]":
    """One side's ``(leaves x matchable)`` 0/1 incidence of the values its
    leaves hold, and each leaf's count of distinct values — NaN rows
    included, the size of its signature."""
    leaves = partitioning.cell_count
    leaf = np.repeat(np.arange(leaves), partitioning.sizes)
    nan = ids >= matchable
    incidence = np.zeros((leaves, matchable))
    incidence[leaf[~nan], ids[~nan]] = 1.0
    distinct = incidence.sum(axis=1)
    if nan.any():
        width = int(ids.max()) + 1
        pairs = np.unique(leaf[nan] * width + ids[nan])
        distinct += np.bincount(pairs // width, minlength=leaves)
    return incidence, distinct


def _corner_maps(
    partitioning: Partitioning, cell_idx: np.ndarray
) -> "tuple[dict[str, np.ndarray], dict[str, np.ndarray]]":
    """Lower and upper corner of leaf ``cell_idx[k]`` in row ``k``, each as
    one column per measure attribute."""
    lower = partitioning.lower[cell_idx]
    upper = partitioning.upper[cell_idx]
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

    # Per condition: the leaves' shared value counts as one product of
    # the two sides' incidences (exact in float64: each count is far
    # below 2**53), and each leaf's tuples per distinct value.
    left_sizes = left_partitioning.sizes
    right_sizes = right_partitioning.sizes
    shared: "list[np.ndarray]" = []
    per_left: "list[np.ndarray]" = []
    per_right: "list[np.ndarray]" = []
    for c in conditions:
        ids, matchable = _value_ids(
            left_partitioning.keys[c.name], right_partitioning.keys[c.name]
        )
        split = len(left_partitioning.order)
        left_inc, left_distinct = _leaf_values(
            left_partitioning, ids[:split], matchable
        )
        right_inc, right_distinct = _leaf_values(
            right_partitioning, ids[split:], matchable
        )
        shared.append(left_inc @ right_inc.T)
        per_left.append(left_sizes / np.maximum(left_distinct, 1))
        per_right.append(right_sizes / np.maximum(right_distinct, 1))
    shared_counts = np.stack(shared, axis=-1)
    hit = shared_counts > 0
    n_left, n_right = len(left_sizes), len(right_sizes)
    visited = n_left * n_right
    if touching is not None:
        new_left = np.isin(np.arange(n_left), list(touching[0]))
        new_right = np.isin(np.arange(n_right), list(touching[1]))
        pairs = new_left[:, None] | new_right[None, :]
        hit &= pairs[:, :, None]
        visited = int(pairs.sum())
    # Signature tests: every visited (left cell, right cell, condition)
    # triple, each charged as its own coarse comparison.  A restricted
    # join visits the pairs with a new cell on either side.
    tests = visited * len(conditions)
    stats.record_signature_tests(tests)
    # Row-major nonzero: (left, right, condition) ascending, the order in
    # which a loop over the triples would create the regions.
    li, ri, ci = np.nonzero(hit)
    pruned = tests - len(li)
    # Expected matches under uniform values within each cell: the same two
    # multiplies, in the same order, as ``shared * per_left * per_right``
    # for one pair.
    est = (
        shared_counts[li, ri, ci]
        * np.stack(per_left)[ci, li]
        * np.stack(per_right)[ci, ri]
    )

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
    rql = condition_rql[ci]
    table = RegionTable(
        region_id=first_region_id + np.arange(len(li), dtype=np.int64),
        left_cell_id=li.astype(np.int64),
        right_cell_id=ri.astype(np.int64),
        condition=ci,
        condition_names=tuple(c.name for c in conditions),
        lower=lower,
        upper=upper,
        coord_lo=grid.coords_of(lower),
        coord_hi=grid.coords_of(upper),
        est_join_count=np.maximum(est, 1.0),
        rql=rql,
        active_rql=rql.copy(),
        left_size=left_sizes[li].astype(np.int64),
        right_size=right_sizes[ri].astype(np.int64),
    )
    return CoarseJoinResult(regions=table, grid=grid, pruned_pairs=pruned)


__all__ = ["CoarseJoinResult", "coarse_join"]
