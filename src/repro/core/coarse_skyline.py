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
that of a sequential sorted (SFS-style) pass.  We compute it with
vectorised matrix tests whose work tracks the survivors: the strongest
regions (smallest upper-corner sums) probe the rest in growing blocks, and
the survivors settle among themselves in one all-pairs pass, the backstop
that keeps the result exact when sums round equal (see
:func:`dominated_flags`).  Each group is sorted once, and the comparison
count *charged* is the one the sequential pass would have performed (each
unseeded candidate compares against the surviving regions that precede it
in ascending upper-corner order; a dominator always precedes its victims in
that order).

A region fully dominated at a query's preference subspace can never
contribute to that query and loses the query from its active lineage; a
region dominated for *every* query it served is discarded before
tuple-level processing even starts — MQLA's "avoid redundant work".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.region import RegionTable
from repro.core.stats import ExecutionStats
from repro.plan.minmax_cuboid import MinMaxCuboid
from repro.query.workload import Workload
from repro.skyline.dominance import dominance_mask

#: Probe positions stop here: past the ``_CHUNK`` strongest regions of a
#: lineage group the survivors settle among themselves in one all-pairs
#: pass.  Also the row-chunk size of every pairwise test (bounds peak
#: memory).
_CHUNK = 512
#: Size of the first probe block; each next block is ``_GROWTH`` x larger.
_FIRST_PROBES = 16
_GROWTH = 4


@dataclass
class CoarseSkylineResult:
    """Non-dominated region ids per cuboid subspace, plus per-query sets."""

    #: mask -> set of region ids non-dominated over that subspace.
    nondominated: "dict[int, set[int]]"
    #: query name -> region ids that can contribute (the paper's REG(Q_j)).
    reg: "dict[str, set[int]]"
    #: Region ids discarded for every query they served.
    discarded: "set[int]"


def _dominated_by(
    upper_dominators: np.ndarray, lower_candidates: np.ndarray
) -> np.ndarray:
    """For each candidate, is it fully dominated by any of the dominators?"""
    flags = np.zeros(len(lower_candidates), dtype=bool)
    for start in range(0, len(upper_dominators), _CHUNK):
        u = upper_dominators[start : start + _CHUNK]
        flags |= dominance_mask(u, lower_candidates).any(axis=0)
    return flags


def dominated_flags(
    lower: np.ndarray,
    upper: np.ndarray,
    *,
    order: "np.ndarray | None" = None,
    seeded: "np.ndarray | None" = None,
) -> np.ndarray:
    """``flags[j]`` true iff some region i fully dominates region j.

    ``lower``/``upper`` are already restricted to the subspace columns.
    ``seeded`` (bool per region) marks regions that survived at a child
    node: they are not tested, so their flag is False, but they stay
    dominators of the others.  ``order`` is the stable argsort of the
    upper-corner sums, when the caller already has it.

    Up to ``2 * _CHUNK`` regions, every region is tested against every
    other.  Above that, the regions are visited in ascending upper-corner
    sum order, the order in which a dominator precedes its victims
    (``U_i`` dominating ``L_j`` gives ``sum(U_i) < sum(L_j) <= sum(U_j)``).
    The still-undominated regions at sorted positions ``[start, stop)``
    probe the still-undominated ones at positions ``>= start``, in blocks
    of 16, 64, 256, ... up to position ``_CHUNK``; on correlated data the
    first block already dominates nearly every region.  The survivors then
    test each other all-pairs.  Full dominance is transitive, so each
    dominated region has a dominator that is itself undominated, never
    flagged, and therefore in the survivors pass: the result is exact
    whatever the probes resolved.  That pass is the backstop for sums
    that round equal, where a dominator can sort after its victim.
    """
    n = len(lower)
    tested = np.ones(n, dtype=bool) if seeded is None else ~seeded
    flags = np.zeros(n, dtype=bool)
    if n <= 2 * _CHUNK:
        flags[tested] = _dominated_by(upper, lower[tested])
        return flags
    if order is None:
        order = np.argsort(upper.sum(axis=1), kind="stable")
    lo, up, tested = lower[order], upper[order], tested[order]
    dominated = np.zeros(n, dtype=bool)  # by sorted position
    start, size = 0, _FIRST_PROBES
    while start < _CHUNK:
        stop = min(start + size, _CHUNK)
        probes = start + np.flatnonzero(~dominated[start:stop])
        targets = start + np.flatnonzero(tested[start:] & ~dominated[start:])
        dominated[targets[_dominated_by(up[probes], lo[targets])]] = True
        start, size = stop, size * _GROWTH
    survivors = np.flatnonzero(~dominated)
    targets = survivors[tested[survivors]]
    dominated[targets[_dominated_by(up[survivors], lo[targets])]] = True
    flags[order] = dominated
    return flags


def sequential_comparison_count(
    upper: np.ndarray,
    survivors: np.ndarray,
    charged: np.ndarray,
    order: "np.ndarray | None" = None,
) -> int:
    """Comparisons a sorted sequential pass would perform.

    Candidates are visited in ascending upper-corner-sum order (``order``,
    the stable argsort of those sums, when the caller already has it);
    each charged candidate compares against the survivors that precede it
    (its potential dominators all precede it in that order).
    """
    if order is None:
        order = np.argsort(upper.sum(axis=1), kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    survivor_ranks = np.sort(rank[survivors])
    preceding = np.searchsorted(survivor_ranks, rank[charged], side="left")
    return int(preceding.sum())


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
    """
    if prunable_queries is None:
        prunable_queries = 0
        for qi, query in enumerate(workload):
            if not query.has_filters:
                prunable_queries |= 1 << qi
    output_dims = workload.output_dims
    table = cuboid.lattice.table

    # The not-yet-discarded rows; positions below index into them.
    rows = np.flatnonzero(regions.active_rql != 0)
    n_regions = len(rows)
    lower_all = regions.lower[rows]
    upper_all = regions.upper[rows]
    rql_all = regions.active_rql[rows]
    ids_all = regions.region_id[rows]

    # mask -> survivor flags over ``rows`` positions.
    survivors: "dict[int, np.ndarray]" = {}
    for mask in cuboid.masks:
        node = cuboid.node(mask)
        positions = [output_dims.index(n) for n in table.names(mask)]
        survivors_here = np.zeros(n_regions, dtype=bool)
        survivors[mask] = survivors_here
        cand_idx = np.flatnonzero((rql_all & node.qserve) != 0)
        if len(cand_idx) == 0:
            continue
        seeded = np.zeros(n_regions, dtype=bool)
        for child in node.children:
            if child in survivors:
                seeded |= survivors[child]
        # Equal-lineage groups: full dominance is transitive inside each.
        cand_rql = rql_all[cand_idx]
        for rql_value in np.unique(cand_rql):
            group = cand_idx[cand_rql == rql_value]
            lo = lower_all[np.ix_(group, positions)]
            up = upper_all[np.ix_(group, positions)]
            seeded_flags = seeded[group]
            order = np.argsort(up.sum(axis=1), kind="stable")
            survivor_flags = seeded_flags | ~dominated_flags(
                lo, up, order=order, seeded=seeded_flags
            )
            stats.record_coarse_comparisons(
                sequential_comparison_count(
                    up,
                    np.flatnonzero(survivor_flags),
                    np.flatnonzero(~seeded_flags),
                    order,
                )
            )
            survivors_here[group[survivor_flags]] = True

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
    discarded = set(ids_all[~alive].tolist())
    stats.record_region_discarded(len(discarded))
    nondominated = {
        mask: set(ids_all[flags & alive].tolist()) for mask, flags in survivors.items()
    }
    reg = {
        name: set(ids_all[flags & alive].tolist())
        for name, flags in contributing.items()
    }
    return CoarseSkylineResult(nondominated=nondominated, reg=reg, discarded=discarded)


__all__ = [
    "CoarseSkylineResult",
    "coarse_skyline",
    "dominated_flags",
    "sequential_comparison_count",
]
