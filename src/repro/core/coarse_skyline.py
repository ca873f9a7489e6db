"""Coarse-level skyline evaluation (Section 5.2, MQLA step 2).

Region-level dominance over the min-max cuboid, bottom-up: a region that is
non-dominated in a child subspace is — by Theorem 1 — non-dominated in the
parent, so it skips the membership test there (Corollary 1's sharing at the
region granularity) while staying a dominator of the regions that are
tested.

Dominance between two regions is only meaningful when they serve a common
query (Section 5.2).  Because a region's initial lineage is fixed by its
join condition, candidates at a node partition into equal-lineage groups,
within which full dominance is transitive — so the non-dominated set equals
that of a sequential sorted (SFS-style) pass.  A group is a candidate at a
node as a whole, so each group is compared once for every node: one
comparison code per region pair (:func:`~repro.skyline.dominance.dominance_codes`)
and one subspace-table lookup give the nodes at which the pair is a
dominance (:func:`dominated_subspaces`).  The work tracks the survivors:
the strongest regions (smallest upper-corner sums) probe the rest in one
block, and the regions still open at some node settle among themselves
in one all-pairs pass, the backstop that keeps every node's
result exact.  The comparison count *charged* is the one the sequential
pass would have performed at each node (each unseeded candidate compares
against the surviving regions that precede it in ascending upper-corner
order over the node's subspace; a dominator always precedes its victims
in that order).

A region fully dominated at a query's preference subspace can never
contribute to that query and loses the query from its active lineage; a
region dominated for *every* query it served is discarded before
tuple-level processing even starts — MQLA's "avoid redundant work".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.region import RegionTable
from repro.core.stats import ExecutionStats
from repro.plan.minmax_cuboid import MinMaxCuboid
from repro.query.workload import Workload
from repro.skyline.dominance import subspace_table, subspace_union

#: Lineage groups of up to this many regions code every pair at once.
_ALL_PAIRS_MAX = 1024
#: Above it, this many regions of smallest upper-corner sum probe every
#: region first.
_PROBES = 16


@dataclass
class CoarseSkylineResult:
    """Non-dominated region ids per cuboid subspace, plus per-query sets.

    Held as flags over ``ids`` (the regions the coarse skyline read); the
    id sets are built on first access — the engine reads none of them.
    """

    ids: np.ndarray
    alive: np.ndarray
    survivor_flags: "dict[int, np.ndarray]"
    contributing_flags: "dict[str, np.ndarray]"

    @cached_property
    def nondominated(self) -> "dict[int, set[int]]":
        """mask -> set of region ids non-dominated over that subspace."""
        return {m: self._ids(f) for m, f in self.survivor_flags.items()}

    @cached_property
    def reg(self) -> "dict[str, set[int]]":
        """query name -> region ids that can contribute (REG(Q_j))."""
        return {q: self._ids(f) for q, f in self.contributing_flags.items()}

    @cached_property
    def discarded(self) -> "set[int]":
        """Region ids discarded for every query they served."""
        return set(self.ids[~self.alive].tolist())

    def _ids(self, flags: np.ndarray) -> "set[int]":
        return set(self.ids[flags & self.alive].tolist())


def dominated_subspaces(
    lower: np.ndarray, upper: np.ndarray, table_word: np.ndarray, full: int
) -> np.ndarray:
    """``bits[j]``: the subspaces of ``table_word`` (one
    :func:`subspace_table` word) on which some region ``i`` of the group
    fully dominates region ``j`` (``U_i`` dominates ``L_j``), exact for
    every bit of ``full`` — the subspaces the caller reads.

    Up to ``_ALL_PAIRS_MAX`` regions, every region is coded against every
    other.  Above that, the ``_PROBES`` regions of smallest full-space
    upper-corner sum probe every region first — on correlated data they
    already close nearly every region (dominated on every subspace of
    ``full``) — and the regions still open then code each other
    all-pairs.  On each subspace full dominance is transitive (``U_i <=
    L_j <= U_j <= L_k``) and irreflexive, so a region dominated there has
    a dominator undominated there, which is never closed and so is in the
    final pass: the result is exact whatever the probes resolved, and the
    probe set is only a heuristic.
    """
    n = len(lower)
    bits = np.zeros(n, dtype=table_word.dtype)
    full_bits = table_word.dtype.type(full)
    if n > _ALL_PAIRS_MAX:
        probes = np.argsort(upper.sum(axis=1), kind="stable")[:_PROBES]
        bits |= subspace_union(upper[probes], lower, table_word)
    open_ = np.flatnonzero((bits & full_bits) != full_bits)
    bits[open_] |= subspace_union(upper[open_], lower[open_], table_word)
    return bits


def sequential_comparison_count(
    sums: np.ndarray, survivors: np.ndarray, charged: np.ndarray
) -> int:
    """Comparisons a sorted sequential pass would perform.

    Candidates are visited in ascending ``(sums, position)`` order —
    ``sums`` are the upper-corner sums over the subspace, positions index
    them — and each charged candidate compares against the ``survivors``
    (ascending positions) that precede it; its potential dominators all
    precede it in that order.  Only the survivors are sorted: a charged
    candidate is preceded by every survivor of smaller sum (one
    ``searchsorted``) and, when its sum ties theirs, by the tied ones of
    smaller position.
    """
    surv_sums = sums[survivors]
    by_sum = np.argsort(surv_sums, kind="stable")
    surv_sums = surv_sums[by_sum]
    charged_sums = sums[charged]
    block = np.searchsorted(surv_sums, charged_sums, side="left")
    total = int(block.sum())
    if not len(surv_sums):
        return total
    # ``searchsorted`` places NaN last, as the sort does; NaNs tie.
    after = surv_sums.take(block, mode="clip")
    tie = (after == charged_sums) | (np.isnan(after) & np.isnan(charged_sums))
    if tie.any():
        # Survivors as one key, ordered as (sum, position): the start of
        # their sum's tie block, then their position.
        stride = len(sums) + 1
        keys = np.searchsorted(surv_sums, surv_sums, side="left") * stride
        keys += survivors[by_sum]
        block = block[tie]
        total += int(
            (np.searchsorted(keys, block * stride + charged[tie]) - block).sum()
        )
    return total


def coarse_skyline(
    workload: Workload,
    cuboid: MinMaxCuboid,
    regions: RegionTable,
    stats: ExecutionStats,
    prunable_queries: "int | None" = None,
) -> CoarseSkylineResult:
    """Populate the cuboid with non-dominated regions, bottom-up, and
    narrow ``regions.active_rql`` in place (0 = discarded).

    ``prunable_queries`` masks which workload queries may lose regions to
    region-level dominance.  Region pruning relies on the dominating
    region being *guaranteed* to produce a join result for the query
    (signature intersection); a per-query selection can filter that
    guaranteed result away, so queries with filters must keep every region
    and rely on tuple-level processing instead.  ``None`` derives the mask
    from the workload (queries without filters).

    Each equal-lineage group is coded once for every cuboid subspace it
    is a candidate at (:func:`dominated_subspaces`); Theorem-1 seeding and
    the per-subspace charges are then boolean and sort work per mask.
    Charges are recorded per (mask, group), masks bottom-up and groups by
    ascending lineage, the order of a per-mask evaluation.
    """
    if prunable_queries is None:
        prunable_queries = 0
        for qi, query in enumerate(workload):
            if not query.has_filters:
                prunable_queries |= 1 << qi
    output_dims = workload.output_dims
    table = cuboid.lattice.table
    masks = cuboid.masks
    positions = [[output_dims.index(n) for n in table.names(m)] for m in masks]
    kernel = subspace_table(
        len(output_dims), [sum(1 << p for p in pos) for pos in positions]
    )
    width = kernel.dtype.itemsize * 8  # mask k is bit k % width of word k // width
    qserve = [cuboid.node(m).qserve for m in masks]
    mask_index = {m: k for k, m in enumerate(masks)}
    children = [[mask_index[c] for c in cuboid.node(m).children] for m in masks]

    # The not-yet-discarded rows; positions below index into them.
    rows = np.flatnonzero(regions.active_rql != 0)
    n_regions = len(rows)
    lower_all = regions.lower[rows]
    upper_all = regions.upper[rows]
    rql_all = regions.active_rql[rows]
    ids_all = regions.region_id[rows]

    # mask -> survivor flags over ``rows`` positions; mask index -> the
    # charges of its groups, ascending lineage.
    survivors = {m: np.zeros(n_regions, dtype=bool) for m in masks}
    charges: "list[list[int]]" = [[] for _ in masks]
    # Equal-lineage groups: full dominance is transitive inside each, and
    # a group is a candidate at a mask as a whole.
    for rql_value in np.unique(rql_all).tolist():
        relevant = [k for k in range(len(masks)) if rql_value & qserve[k]]
        if not relevant:
            continue
        group = np.flatnonzero(rql_all == rql_value)
        lo, up = lower_all[group], upper_all[group]
        bits = []
        for w in range(len(kernel)):
            full = sum(1 << (k % width) for k in relevant if k // width == w)
            bits.append(dominated_subspaces(lo, up, kernel[w], full) if full else None)
        flags: "dict[int, np.ndarray]" = {}
        for k in relevant:
            seeded = np.zeros(len(group), dtype=bool)
            for c in children[k]:
                seeded |= flags[c]
            dominated = ((bits[k // width] >> (k % width)) & 1).astype(bool)
            flags[k] = keep = seeded | ~dominated
            charges[k].append(
                sequential_comparison_count(
                    up[:, positions[k]].sum(axis=1),
                    np.flatnonzero(keep),
                    np.flatnonzero(~seeded),
                )
            )
            survivors[masks[k]][group[keep]] = True
    for group_charges in charges:
        for count in group_charges:
            stats.record_coarse_comparisons(count)

    # Per-query contribution flags and lineage shrinking: a prunable query
    # is dropped from every region it was created for that did not survive
    # at the query's node.
    created_rql = regions.rql[rows]
    active = rql_all.copy()
    contributing: "dict[str, np.ndarray]" = {}
    for qi, query in enumerate(workload):
        serves = ((created_rql >> qi) & 1).astype(bool)
        if (prunable_queries >> qi) & 1:
            keeps = survivors[cuboid.query_nodes[query.name]]
            active[serves & ~keeps] &= ~(np.int64(1) << qi)
            serves &= keeps
        contributing[query.name] = serves
    regions.active_rql[rows] = active

    alive = active != 0
    stats.record_region_discarded(int(np.count_nonzero(~alive)))
    return CoarseSkylineResult(
        ids=ids_all,
        alive=alive,
        survivor_flags=survivors,
        contributing_flags=contributing,
    )


__all__ = [
    "CoarseSkylineResult",
    "coarse_skyline",
    "dominated_subspaces",
    "sequential_comparison_count",
]
