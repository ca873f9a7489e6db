"""The region dependency graph (Section 5.3.2, Definition 9).

A directed edge ``R_i -> R_j`` annotated with query set ``W_{i,j}`` records
that, for those queries, tuples produced by ``R_i`` could dominate output
cells of ``R_j`` — so ``R_i`` should be considered for execution first
(Example 17).  The optimizer schedules only *root* regions (no incoming
edges); processing or discarding a region removes its edges, promoting new
roots (Algorithm 1).

Mutual partial dominance would create 2-cycles in which neither region
precedes the other; we draw an edge only when the advantage is asymmetric
(``R_i`` can reach into ``R_j``'s space but not vice versa) or when the
dominance is full.  Longer cycles are still possible in principle; the
optimizer breaks deadlocks by treating every remaining region as a root
(see :meth:`DependencyGraph.force_roots`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.output_space import OutputGrid
from repro.core.region import RegionTable
from repro.core.stats import ExecutionStats
from repro.plan.minmax_cuboid import MinMaxCuboid
from repro.query.workload import Workload
from repro.skyline.dominance import subspace_matrix, subspace_table

#: Rows per block of the edge pass (bounds its transposed temporary).
_EDGE_ROWS = 512


@dataclass
class DependencyGraph:
    """Algorithm 1's scheduling order as one edge matrix.

    Node ``k`` is region ``ids[k]`` (ascending); ``edges[i, j]`` is the
    query bitmask of the edge ``ids[i] -> ids[j]`` (0 = no edge, never on
    the diagonal).  Removing a node only clears its ``alive`` flag, so an
    edge is *live* while both its ends are alive; ``indeg[j]`` counts the
    live edges into a live node ``j``.
    """

    ids: np.ndarray  # int64 (n,), ascending
    edges: np.ndarray  # int64 (n, n)
    indeg: np.ndarray  # int64 (n,)
    alive: np.ndarray  # bool (n,)
    #: region id -> node index.
    index: "dict[int, int]"

    @classmethod
    def from_edges(cls, ids: np.ndarray, edges: np.ndarray) -> "DependencyGraph":
        """A graph over ascending ``ids``, every node alive; ``edges``
        (taken, not copied) loses its diagonal — no node precedes itself."""
        ids = np.asarray(ids, dtype=np.int64)
        np.fill_diagonal(edges, 0)
        return cls(
            ids=ids,
            edges=edges,
            indeg=np.count_nonzero(edges, axis=0).astype(np.int64),
            alive=np.ones(len(ids), dtype=bool),
            index=dict(zip(ids.tolist(), range(len(ids)))),
        )

    def out_edges(self, region_id: int) -> "tuple[np.ndarray, np.ndarray]":
        """Live targets of ``region_id``'s edges, ascending, and each
        edge's query mask (both empty unless ``region_id`` is live)."""
        k = self.index.get(region_id, -1)
        if k < 0 or not self.alive[k]:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        targets = np.flatnonzero(self.edges[k])
        targets = targets[self.alive[targets]]
        return self.ids[targets], self.edges[k, targets]

    @property
    def nodes(self) -> "set[int]":
        return set(self.ids[self.alive].tolist())

    def roots(self) -> np.ndarray:
        """Live nodes without a live incoming edge, ascending."""
        return self.ids[self.alive & (self.indeg == 0)]

    def successors(self, region_id: int) -> "dict[int, int]":
        """Live targets of ``region_id``'s edges -> query mask, ascending."""
        targets, masks = self.out_edges(region_id)
        return dict(zip(targets.tolist(), masks.tolist()))

    def remove_node(self, region_ids: "int | np.ndarray") -> "set[int]":
        """Remove processed/discarded regions (one id or an id array;
        unknown and already removed ids are skipped); return the live
        nodes this made roots.

        Each removed live node drops each of its out-edges from its
        target's in-degree once, so a batch leaves the survivors exactly
        as removing its ids one by one in any order would.  A removed
        node's own ``indeg`` is no longer maintained.
        """
        index, alive = self.index, self.alive
        ks = [
            k
            for k in map(index.get, np.atleast_1d(region_ids).tolist())
            if k is not None and alive[k]
        ]
        if not ks:
            return set()
        ks = np.unique(ks) if len(ks) > 1 else np.asarray(ks)
        self.alive[ks] = False
        # One decrement per edge out of a removed node.
        targets = np.nonzero(self.edges[ks])[1]
        np.subtract.at(self.indeg, targets, 1)
        targets = targets[self.alive[targets]]
        return set(self.ids[targets[self.indeg[targets] == 0]].tolist())

    def force_roots(self) -> np.ndarray:
        """Deadlock breaker: drop every edge; all live nodes are roots."""
        self.edges[:] = 0
        self.indeg[:] = 0
        return self.ids[self.alive]

    def edge_count(self) -> int:
        live = self.alive
        return int(np.count_nonzero(self.edges[np.ix_(live, live)]))

    def check_invariants(self) -> None:
        """Check the matrix against itself; raises ``AssertionError`` on
        the first disagreement: ids ascend and ``index`` inverts them, no
        node has a self-edge, and every live node's ``indeg`` is its count
        of live in-edges.  A test-side check."""

        def expect(condition: bool, message: str) -> None:
            if not condition:
                raise AssertionError(f"DependencyGraph invariant: {message}")

        n = len(self.ids)
        expect(bool((np.diff(self.ids) > 0).all()), "ids do not ascend")
        expect(
            self.index == dict(zip(self.ids.tolist(), range(n))),
            "index does not invert ids",
        )
        expect(not np.diagonal(self.edges).any(), "a self-edge")
        live = self.alive
        expect(
            np.array_equal(
                self.indeg[live],
                np.count_nonzero(self.edges[np.ix_(live, live)], axis=0),
            ),
            "indeg of a live node != its live in-edges",
        )

    def __contains__(self, region_id: int) -> bool:
        k = self.index.get(region_id, -1)
        return k >= 0 and bool(self.alive[k])


def build_dependency_graph(
    workload: Workload,
    cuboid: MinMaxCuboid,
    regions: RegionTable,
    grid: "OutputGrid",
    stats: ExecutionStats,
) -> DependencyGraph:
    """Definition 9 over the surviving (non-discarded) regions (vectorised).

    The edge condition follows Definition 8 case 2 at *cell* granularity:
    ``R_i -> R_j`` for query ``Q`` iff some output cell of ``R_i``, when
    populated, would dominate some output cell of ``R_j`` — i.e. the upper
    corner of ``R_i``'s best (lowest) cell dominates the lower corner of
    ``R_j``'s worst (highest) cell over ``Q``'s subspace.  When the relation
    holds both ways neither region strictly precedes the other, so no edge
    is drawn (avoids trivial 2-cycles among overlapping regions).

    Charged coarse comparisons model a sort-merge evaluation: only pairs
    passing the corner-sum prefilter are counted as examined, per query.

    Every pair is coded once on all dimensions (:func:`dominance_codes`)
    and one :func:`subspace_table` gather reads the ``can`` relation of
    every query's subspace from it as a query bitmap; the edges of all
    queries are then ``can & ~can.T`` restricted to the queries both ends
    serve.
    """
    output_dims = workload.output_dims
    table = cuboid.lattice.table
    rows = np.flatnonzero(regions.active_rql != 0)
    ids = regions.region_id[rows]
    n = len(rows)
    if n < 2:
        return DependencyGraph.from_edges(ids, np.zeros((n, n), dtype=np.int64))

    # Per-region corner vectors at cell granularity.
    widths = (np.asarray(grid.highs) - np.asarray(grid.lows)) / grid.divisions
    widths = np.where(widths > 0, widths, 1.0)
    lows = np.asarray(grid.lows)
    best_cell_upper = lows + (regions.coord_lo[rows] + 1) * widths
    worst_cell_lower = lows + regions.coord_hi[rows] * widths
    rql = regions.active_rql[rows]

    query_positions = [
        [output_dims.index(nm) for nm in table.names(cuboid.query_nodes[q.name])]
        for q in workload
    ]
    # Edge masks are int64 query bitmaps: one table word holds them all.
    word = subspace_table(
        len(output_dims), [sum(1 << p for p in pos) for pos in query_positions]
    )[0]
    # can[i, j] bit q: a populated cell of i could dominate a cell of j
    # over query q's subspace.
    can = subspace_matrix(best_cell_upper, worst_cell_lower, word)

    for qi, positions in enumerate(query_positions):
        idx = np.flatnonzero((rql >> qi) & 1)
        if len(idx) < 2:
            continue
        # Sort-merge-equivalent examined-pair count: pairs passing the
        # corner-sum prefilter sum(u_best_i) < sum(l_worst_j).
        s = np.sort(best_cell_upper[np.ix_(idx, positions)].sum(axis=1))
        t = worst_cell_lower[np.ix_(idx, positions)].sum(axis=1)
        stats.record_coarse_comparisons(
            int(np.searchsorted(s, t, side="left").sum())
        )

    # Into int64 lineage bitmaps: a uint64 word (past 32 queries) casts
    # bit for bit.
    edge_queries = np.empty((n, n), dtype=np.int64)
    for a in range(0, n, _EDGE_ROWS):
        block = edge_queries[a : a + _EDGE_ROWS]
        np.bitwise_and(
            can[a : a + _EDGE_ROWS], ~can[:, a : a + _EDGE_ROWS].T, out=block
        )
        block &= rql[a : a + _EDGE_ROWS, None]
        block &= rql[None, :]
    return DependencyGraph.from_edges(ids, edge_queries)


__all__ = ["DependencyGraph", "build_dependency_graph"]
