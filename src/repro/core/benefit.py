"""The contract-driven cost/benefit model (Section 5.3).

For each candidate region the optimizer needs, at current virtual time
``t_curr``:

* ``t_c`` — the estimated virtual time tuple-level processing will take
  (the *cost* of considering the region);
* ``ProgEst(R_c, Q_i, t_c)`` (Equation 10) — how many results the region
  can *progressively* output for each query: the Buchta cardinality
  estimate of Equation 9 scaled by the fraction of the region's output
  cells that no other region can dominate (Definition 11's progressive
  cell count);
* ``CSM(R_c)`` (Equation 8) — the weighted sum over queries of the
  estimated utility those results would earn under each query's contract
  at time ``t_curr + t_c``.

Progressive cell counts are exact when the region's coordinate box is
small (:func:`prog_count_exact`, Definition 11/Example 18 semantics) and
fall back to a sampled approximation for large boxes — estimation
error is acceptable here because the optimizer re-ranks after every region
anyway (Section 5.3's feedback-driven iteration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.contracts.base import Contract
from repro.core.clock import CostModel
from repro.core.output_space import OutputGrid
from repro.core.region import OutputRegion, RegionTable
from repro.errors import ExecutionError
from repro.plan.minmax_cuboid import MinMaxCuboid
from repro.query.workload import Workload
from repro.skyline.dominance import all_lt_broadcast, dominance_broadcast, dominance_mask
from repro.skyline.estimate import buchta_skyline_size

#: Above this many output cells the exact progressive count switches to the
#: sampled approximation (:func:`prog_ratio_sampled`).
EXACT_CELL_LIMIT = 256
#: Above this many potential dominators the exact count is skipped too.
EXACT_DOMINATOR_LIMIT = 16


def prog_count_exact(
    region: OutputRegion,
    dominators: "list[OutputRegion]",
    positions: "tuple[int, ...]",
    grid: OutputGrid,
) -> "tuple[int, int]":
    """Definition 11: (non-dominatable cells, total cells) of ``region``.

    A cell of ``region`` is at risk for the examined query iff some other
    contributing region has a cell whose upper corner dominates this cell's
    lower corner (Definition 8 case 2 at cell granularity); the most
    dominating cell any region can populate is the one at its coordinate
    lower corner.
    """
    threats = [d.coord_lo for d in dominators if d.region_id != region.region_id]
    return _exact_count(
        region,
        np.asarray(threats, dtype=np.intp).reshape(len(threats), len(region.coord_lo)),
        positions,
        grid,
    )


def _exact_count(
    region: OutputRegion,
    threat_coord_lo: np.ndarray,
    positions: "tuple[int, ...]",
    grid: OutputGrid,
) -> "tuple[int, int]":
    """:func:`prog_count_exact` against threats given by the grid
    coordinates of their lower corners."""
    pos = list(positions)
    total = OutputGrid.box_cell_count(region.coord_lo, region.coord_hi)
    if not len(threat_coord_lo):
        return total, total
    threat_uppers = grid.cell_uppers(threat_coord_lo)[:, pos]
    cell_lowers = grid.cell_lowers(
        OutputGrid.box_coords(region.coord_lo, region.coord_hi)
    )
    at_risk = dominance_mask(threat_uppers, cell_lowers[:, pos]).any(axis=0)
    return int(total - int(at_risk.sum())), total


#: Lattice resolution per dimension for the sampled progressive ratio.
_SAMPLES_PER_DIM = 3


#: Cartesian index grids for :func:`_sample_lattice`, keyed by ``(k, d)``.
_LATTICE_IDX: "dict[tuple[int, int], np.ndarray]" = {}

#: Largest broadcast temporary (in elements) one estimator pass builds;
#: wider passes run in chunks of pairs.
_BROADCAST_CAP = 1 << 17


def _lattice_index(d: int) -> "tuple[int, np.ndarray]":
    """``k`` and the ``(k**d, d)`` cartesian axis indices of the sample
    lattice over ``d`` dimensions, in ``meshgrid``'s row-major order."""
    k = _SAMPLES_PER_DIM if d <= 4 else 2
    idx = _LATTICE_IDX.get((k, d))
    if idx is None:
        ranges = [np.arange(k, dtype=np.intp)] * d
        mesh = np.meshgrid(*ranges, indexing="ij")
        idx = np.column_stack([m.ravel() for m in mesh])
        _LATTICE_IDX[(k, d)] = idx
    return k, idx


def _sample_lattice(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A deterministic lattice of cell-center points inside ``[lo, hi]``.

    One array-endpoint ``linspace`` call builds every axis at once —
    elementwise it performs the same arithmetic as a per-dimension
    ``linspace``, so the points are bit-identical to the scalar form —
    and a cached cartesian index grid expands the axes to sample rows in
    ``meshgrid``'s row-major order.
    """
    d = len(lo)
    k, idx = _lattice_index(d)
    pad = (hi - lo) / (2 * k)
    axes = np.linspace(lo + pad, hi - pad, k, axis=0)  # (k, d)
    return axes[idx, np.arange(d, dtype=np.intp)[None, :]]


def _sample_lattices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`_sample_lattice` of ``P`` boxes in one call: ``(P, d)``
    corners in, ``(P, k**d, d)`` points out.

    Bit-identical to the per-box form.  ``linspace`` chooses its
    arithmetic (``i * step`` or ``i / div * delta``) once per call, from
    whether *any* step is zero, so one degenerate box switches the whole
    batch; with ``k`` in {2, 3} the two forms agree anyway — the end
    points are ``start`` and ``stop`` exactly, and the middle point of
    ``k == 3`` is ``delta / 2`` either way.
    """
    d = lo.shape[1]
    k, idx = _lattice_index(d)
    pad = (hi - lo) / (2 * k)
    axes = np.linspace(lo + pad, hi - pad, k, axis=1)  # (P, k, d)
    return axes[:, idx, np.arange(d, dtype=np.intp)]


def prog_ratio_sampled(
    lower: np.ndarray,
    upper: np.ndarray,
    dominator_lowers: np.ndarray,
) -> float:
    """Sampled estimate of the non-dominated fraction of a region's box.

    The at-risk part of the box is the *union* of upper-orthants above the
    dominators' lower corners (the staircase of Definition 11); a fixed
    lattice of sample points estimates that union's share directly, without
    assuming that the dominators' orthants overlap independently.
    """
    if len(dominator_lowers) == 0:
        return 1.0
    return _sampled_ratio(_sample_lattice(lower, upper), dominator_lowers)


def _sampled_ratio(samples: np.ndarray, dominator_lowers: np.ndarray) -> float:
    """The sampled non-dominated fraction over a precomputed lattice."""
    dominated = dominance_mask(dominator_lowers, samples).any(axis=0)
    return float(1.0 - dominated.mean())


def _chunks(n: int, per_item: int) -> "list[slice]":
    """Slices of ``range(n)`` whose ``per_item``-wide broadcasts stay
    within :data:`_BROADCAST_CAP` elements (at least one item each)."""
    step = max(1, _BROADCAST_CAP // max(per_item, 1))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _padded_rows(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Scatter ``values`` — consecutive runs of ``counts[i] >= 1`` rows —
    into a ``(len(counts), max(counts), width)`` block padded with +inf
    corners, which dominate nothing."""
    if len(values) == len(counts):  # every run is one row
        return values[:, None, :]
    starts = np.cumsum(counts) - counts
    pos = np.arange(len(values)) - np.repeat(starts, counts)
    out = np.full((len(counts), int(counts.max()), values.shape[1]), np.inf)
    out[np.repeat(np.arange(len(counts)), counts), pos] = values
    return out


def _dominated_counts(threats: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``counts[i, s]``: how many rows of ``threats[i]`` dominate
    ``points[i, s]``, broadcast in chunks of rows."""
    out = np.empty(points.shape[:2], dtype=np.int32)
    for sl in _chunks(len(points), threats.shape[1] * points.shape[1]):
        out[sl] = dominance_broadcast(
            threats[sl, :, None, :], points[sl, None, :, :], axis=3
        ).sum(axis=1, dtype=np.int32)
    return out


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"BenefitModel invariant: {message}")


@dataclass
class RegionEstimate:
    """Cached per-region estimates feeding the CSM."""

    t_c: float
    #: ProgEst per workload-query bit (len == |S_Q|).
    prog_est: np.ndarray


class _CountTable:
    """Resident count rows of one estimator branch over one subspace width.

    Row ``t`` belongs to the pair ``(region[t], query[t])`` — a region row
    and a query of this width — and holds the pair's points over the
    query's subspace, the region's upper corner on that subspace, and per
    point how many currently reaching same-lineage regions dominate it.
    A sampled-branch row's points are the box's sample lattice.  An
    exact-branch row's points are the lower corners of the box's grid
    cells *projected onto the subspace*: every projected cell stands for
    the same number ``mult[t]`` of full-dimension cells, all with the
    same count, so the row is that many times shorter than the box.
    Points past a row's own number are NaN, which dominates and is
    dominated by nothing, so their counts stay 0 and every read is a
    plain row reduction.  Rows are appended in batches and tombstoned
    (``live`` False), never reused.
    """

    __slots__ = (
        "points", "counts", "upper", "mult", "region", "query", "live", "size",
    )

    def __init__(self, width: int, n_points: int) -> None:
        self.points = np.full((0, n_points, width), np.nan)
        self.counts = np.zeros((0, n_points), dtype=np.int32)
        self.upper = np.zeros((0, width))
        self.mult = np.zeros(0, dtype=np.int64)
        self.region = np.zeros(0, dtype=np.intp)
        self.query = np.zeros(0, dtype=np.intp)
        self.live = np.zeros(0, dtype=bool)
        self.size = 0

    def add(
        self,
        region: np.ndarray,
        query: np.ndarray,
        upper: np.ndarray,
        points: np.ndarray,
        counts: np.ndarray,
        mult: np.ndarray,
    ) -> np.ndarray:
        """Append one row per pair; returns the new rows' indices."""
        n_points = points.shape[1]
        start, end = self.size, self.size + len(region)
        cap = len(self.live)
        if end > cap or n_points > self.points.shape[1]:
            self._grow(
                max(end, 2 * cap, 64) if end > cap else cap,
                max(n_points, self.points.shape[1]),
            )
        self.points[start:end, :n_points] = points
        self.counts[start:end, :n_points] = counts
        self.upper[start:end] = upper
        self.mult[start:end] = mult
        self.region[start:end] = region
        self.query[start:end] = query
        self.live[start:end] = True
        self.size = end
        return np.arange(start, end)

    def _grow(self, cap: int, n_points: int) -> None:
        size, width = self.size, self.points.shape[2]
        points = np.full((cap, n_points, width), np.nan)
        points[:size, : self.points.shape[1]] = self.points[:size]
        counts = np.zeros((cap, n_points), dtype=np.int32)
        counts[:size, : self.counts.shape[1]] = self.counts[:size]
        self.points, self.counts = points, counts
        for name in ("upper", "mult", "region", "query", "live"):
            old = getattr(self, name)
            grown = np.zeros((cap, *old.shape[1:]), dtype=old.dtype)
            grown[:size] = old[:size]
            setattr(self, name, grown)


class BenefitModel:
    """Computes and caches CSM inputs for Algorithm 1."""

    def __init__(
        self,
        workload: Workload,
        cuboid: MinMaxCuboid,
        grid: OutputGrid,
        contracts: "dict[str, Contract]",
        cost_model: CostModel,
        *,
        exact_cell_limit: int = EXACT_CELL_LIMIT,
    ) -> None:
        self.workload = workload
        self.grid = grid
        self.cost_model = cost_model
        self.exact_cell_limit = exact_cell_limit
        self.contracts = [contracts[q.name] for q in workload]
        # Homogeneous-workload fast path: when every contract is the same
        # class, Eq. 8 utilities for all queries come from one fused
        # broadcast (bit-identical per row to the per-contract calls).
        contract_types = {type(c) for c in self.contracts}
        self._fused_contract_type = (
            contract_types.pop() if len(contract_types) == 1 else None
        )
        output_dims = workload.output_dims
        table = cuboid.lattice.table
        self.query_positions: list[tuple[int, ...]] = [
            tuple(output_dims.index(n) for n in table.names(cuboid.query_nodes[q.name]))
            for q in workload
        ]
        self.query_dims = [len(p) for p in self.query_positions]
        n_q = len(workload)
        # ``_axis_lowers[d, c]``: lower bound of grid coordinate ``c`` on
        # output dimension ``d``, by ``grid.cell_lowers``' own arithmetic.
        n_d = len(output_dims)
        self._axis_lowers = grid.cell_lowers(
            np.repeat(np.arange(grid.divisions)[:, None], n_d, axis=1)
        ).T
        self._qbits = np.arange(n_q, dtype=np.int64)
        # Queries are grouped by subspace width: one count table per
        # (width, branch), and every event flush and cached read makes one
        # pass per group instead of one per query.  ``_qlocal[qi]`` is the
        # query's index inside its group, ``_pos_w[w]`` the group's
        # ``(queries, w)`` subspace columns.
        self._qwidth = np.asarray(self.query_dims, dtype=np.intp)
        self._width_qis = {
            w: np.flatnonzero(self._qwidth == w) for w in sorted(set(self.query_dims))
        }
        self._qlocal = np.zeros(n_q, dtype=np.intp)
        self._pos_w: "dict[int, np.ndarray]" = {}
        for w, qis in self._width_qis.items():
            self._qlocal[qis] = np.arange(len(qis))
            self._pos_w[w] = np.asarray(
                [self.query_positions[qi] for qi in qis.tolist()], dtype=np.intp
            ).reshape(len(qis), w)
        # Event-driven ProgEst cache, ``(region row, qi)`` indexed.  A
        # candidate's ProgEst is a pure function of its *reach set* (the
        # active same-lineage regions whose lower corner enters its box),
        # so an entry stays valid until some reaching region departs —
        # :meth:`_flush_events` evicts exactly the entries whose reach set
        # an event changed.
        self._prog_val: "np.ndarray | None" = None
        self._prog_ok: "np.ndarray | None" = None
        # Resident per-(region row, qi) state, set at a pair's first touch
        # (its first estimate) and kept current by the event flush:
        # ``_reach`` is the size of the reach set (-1 before the first
        # touch); a pair with a non-empty reach set owns one live count
        # row, ``_slot`` in the table of its query's width and branch
        # (``_exact``).
        self._reach: "np.ndarray | None" = None
        self._slot: "np.ndarray | None" = None
        self._exact: "np.ndarray | None" = None
        self._tables: "dict[tuple[int, bool], _CountTable]" = {}
        # Departure events ``(region rows, qis)`` queued by note_removed /
        # note_deactivation and applied together at the next read
        # (:meth:`_flush_events`).
        self._pend: "list[tuple[np.ndarray, np.ndarray]]" = []
        # Per-width active-membership snapshot (see :meth:`_members_of`),
        # dropped by every membership change.
        self._members: "dict[int, tuple[np.ndarray, ...]]" = {}
        #: Estimated final result count per query (needed by cardinality
        #: contracts); populated via :meth:`set_result_estimates`.
        self.result_estimates = np.ones(n_q)
        # Global region arrays for vectorised ProgCount estimation; filled by
        # :meth:`attach_regions` and kept in sync via note_* callbacks.
        self._lower_all: "np.ndarray | None" = None
        self._upper_all: "np.ndarray | None" = None
        self._cupper_all: "np.ndarray | None" = None
        self._coord_lo_all: "np.ndarray | None" = None
        self._coord_hi_all: "np.ndarray | None" = None
        # Per-width ``(queries, regions, w)`` stacks of the three corner
        # matrices over each query's subspace, rebuilt by
        # :meth:`attach_regions`.
        self._lower_w: "dict[int, np.ndarray]" = {}
        self._upper_w: "dict[int, np.ndarray]" = {}
        self._cupper_w: "dict[int, np.ndarray]" = {}
        self._rql_all: "np.ndarray | None" = None
        self._active_all: "np.ndarray | None" = None
        # Regions registered by attach_regions — only their events are
        # tracked, so only they may hold ProgEst cache entries.  Unlike
        # ``_active_all`` this never flips back off.
        self._attached_all: "np.ndarray | None" = None
        # Static per-region scalars (Buchta cardinalities, t_c, cell
        # counts) computed once at attach time, so batched gathers
        # replace per-iteration lookups.
        self._cards_all: "np.ndarray | None" = None
        self._cost_all: "np.ndarray | None" = None
        self._ccnt_all: "np.ndarray | None" = None
        # Every region array, cache key and count-table slot is indexed by
        # *row* ``region_id - _base``, ``_base`` being the smallest attached
        # id: a continuous epoch's ids start where the previous epoch's
        # ended, and its arrays span only its own regions.
        self._base = 0

    def set_result_estimates(self, totals: "dict[str, float]") -> None:
        for qi, query in enumerate(self.workload):
            self.result_estimates[qi] = max(totals.get(query.name, 1.0), 1.0)

    # ------------------------------------------------------------------ #
    # Region-array bookkeeping
    # ------------------------------------------------------------------ #
    def attach_regions(
        self, regions: "RegionTable | Sequence[OutputRegion]"
    ) -> None:
        """Register the run's alive regions for vectorised estimation: the
        rows of ``regions`` that still serve a query."""
        table = (
            regions
            if isinstance(regions, RegionTable)
            else RegionTable.from_regions(list(regions))
        )
        src = np.flatnonzero(table.active_rql != 0)
        ids = table.region_id[src]
        self._tables = {}
        self._members = {}
        self._pend = []
        n_q = len(self.workload)
        n_d = len(self.workload.output_dims)
        self._base = int(ids.min()) if ids.size else 0
        n_rows = int(ids.max()) - self._base + 1 if ids.size else 0
        self._lower_all = np.zeros((n_rows, n_d))
        self._upper_all = np.zeros((n_rows, n_d))
        self._cupper_all = np.zeros((n_rows, n_d))
        self._coord_lo_all = np.zeros((n_rows, n_d), dtype=np.intp)
        self._coord_hi_all = np.zeros((n_rows, n_d), dtype=np.intp)
        self._rql_all = np.zeros(n_rows, dtype=np.int64)
        self._active_all = np.zeros(n_rows, dtype=bool)
        self._prog_val = np.zeros((n_rows, n_q))
        self._prog_ok = np.zeros((n_rows, n_q), dtype=bool)
        self._reach = np.full((n_rows, n_q), -1, dtype=np.int64)
        self._slot = np.full((n_rows, n_q), -1, dtype=np.intp)
        self._exact = np.zeros((n_rows, n_q), dtype=bool)
        self._cards_all = np.zeros((n_rows, n_q))
        self._cost_all = np.zeros(n_rows)
        self._ccnt_all = np.zeros(n_rows, dtype=np.int64)
        if ids.size:
            rows = ids - self._base
            self._lower_all[rows] = table.lower[src]
            self._upper_all[rows] = table.upper[src]
            self._coord_lo_all[rows] = table.coord_lo[src]
            self._coord_hi_all[rows] = table.coord_hi[src]
            # Upper corner of each region's lowest cell — the corner
            # Definition 11's threat test compares.
            self._cupper_all[rows] = self.grid.cell_uppers(self._coord_lo_all[rows])
            self._rql_all[rows] = table.active_rql[src]
            self._active_all[rows] = True
            est = table.est_join_count[src]
            self._cards_all[rows] = self._cardinalities(est)
            self._cost_all[rows] = self._costs(
                est, table.left_size[src] + table.right_size[src]
            )
            self._ccnt_all[rows] = np.prod(
                self._coord_hi_all[rows] - self._coord_lo_all[rows] + 1, axis=1
            )
        self._attached_all = self._active_all.copy()
        # Geometry is immutable from here on, so each width group's
        # subspace columns are stacked once.
        self._lower_w, self._upper_w, self._cupper_w = {}, {}, {}
        for w, pos in self._pos_w.items():
            for full, stacked in (
                (self._lower_all, self._lower_w),
                (self._upper_all, self._upper_w),
                (self._cupper_all, self._cupper_w),
            ):
                stacked[w] = np.ascontiguousarray(full[:, pos].transpose(1, 0, 2))

    def _cardinalities(self, est: np.ndarray) -> np.ndarray:
        """:meth:`cardinality` of every region (rows) for every query,
        bit for bit: ``math.log`` and Python's ``**`` per region (numpy's
        ``log`` and ``power`` round differently), one division per
        subspace width."""
        logs = [0.0 if n <= 1.0 else math.log(n) for n in est.tolist()]
        small = np.where(est > 0.0, est, 0.0)  # ``max(0.0, n)``
        out = np.empty((len(est), len(self.workload)))
        for w, qis in self._width_qis.items():
            power = np.asarray([x ** (w - 1) for x in logs], dtype=float)
            out[:, qis] = np.where(est <= 1.0, small, power / math.factorial(w - 1))[
                :, None
            ]
        return out

    def _costs(self, est: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """:meth:`estimate_cost` of every region, bit for bit: the
        per-insert ``math.log`` per region, then the same ``+`` and ``×``
        in the same order over arrays."""
        cm = self.cost_model
        est_join = np.where(est < 0.0, 0.0, est)  # ``max(est, 0.0)``
        scan = cm.join_probe * sizes
        materialise = (
            cm.join_result + cm.mapping * len(self.workload.output_dims)
        ) * est_join
        per_insert = np.asarray(
            [max(1.0, math.log(max(e, 2.0))) for e in est_join.tolist()], dtype=float
        )
        skyline = cm.skyline_comparison * est_join * per_insert
        return cm.region_overhead + scan + materialise + skyline

    def lineage(self, region_ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Current lineage masks and lower corners of attached regions."""
        rows = np.asarray(region_ids, dtype=np.intp) - self._base
        return self._rql_all[rows], self._lower_all[rows]

    def note_removed(self, region_ids: "int | np.ndarray") -> None:
        """Regions were processed or fully discarded (one id or an id
        array; ids never attached or already gone are skipped)."""
        if self._active_all is None:
            return
        rows, inside = self._attached_rows(region_ids)
        rows = rows[inside]
        rows = rows[self._active_all[rows]]
        if not rows.size:
            return
        if rows.size > 1:
            rows = np.unique(rows)
        k, qis = np.nonzero((self._rql_all[rows][:, None] >> self._qbits) & 1)
        self._pend.append((rows[k], qis))
        self._members.clear()
        self._active_all[rows] = False
        self._prog_ok[rows, :] = False

    def note_deactivation(
        self, region_ids: "int | np.ndarray", query_bits: "int | np.ndarray"
    ) -> None:
        """Regions lost queries from their lineage: ``query_bits[i]`` from
        ``region_ids[i]`` (two scalars or two equal-length arrays; a pair
        may repeat)."""
        if self._active_all is None:
            return
        rows, inside = self._attached_rows(region_ids)
        rows = rows[inside]
        qis = np.asarray(query_bits, dtype=np.intp).reshape(-1)[inside]
        bits = np.int64(1) << qis
        live = self._active_all[rows] & ((self._rql_all[rows] & bits) != 0)
        if live.any():
            # A repeated pair departs once.
            pairs = np.unique(rows[live] * len(self.workload) + qis[live])
            self._pend.append(np.divmod(pairs, len(self.workload)))
            self._members.clear()
        np.bitwise_and.at(self._rql_all, rows, ~bits)
        self._prog_ok[rows, qis] = False

    def _attached_rows(
        self, region_ids: "int | np.ndarray"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Array rows of ``region_ids`` (flattened), and which of them lie
        inside the attached range."""
        rows = np.asarray(region_ids, dtype=np.intp).reshape(-1) - self._base
        n_rows = 0 if self._rql_all is None else len(self._rql_all)
        return rows, (rows >= 0) & (rows < n_rows)

    def _flush_events(self) -> None:
        """Apply the queued departure events, one pass per count table.

        An event ``(region, query)`` says the region left the query's
        active lineage.  For every live pair of that query whose box the
        region's lower corner enters (strictly below the pair's upper
        corner on the subspace) it lowers the resident reach count by one,
        evicts the cached ProgEst and subtracts the region's domination
        from the count row.  Geometry is immutable, membership only
        shrinks and an event fires once per ``(region, query)``, so every
        resident value is a sum of independent per-event terms: applying
        a batch together equals flushing after every event.  Rows of
        departed pairs are tombstoned first, and a row whose reach count
        reaches 0 goes too — its pair reads its cardinality from then on.
        """
        if not self._pend:
            return
        rows = np.concatenate([r for r, _ in self._pend]).astype(np.intp, copy=False)
        qis = np.concatenate([q for _, q in self._pend]).astype(np.intp, copy=False)
        self._pend = []
        widths = self._qwidth[qis]
        for (w, exact), table in self._tables.items():
            sel = widths == w
            if table.size and sel.any():
                self._flush_table(table, exact, rows[sel], qis[sel])

    def _flush_table(
        self,
        table: _CountTable,
        exact: bool,
        ev_rows: np.ndarray,
        ev_qis: np.ndarray,
    ) -> None:
        """:meth:`_flush_events` for one table and its width's events."""
        # Every departed pair queued its own event: its row goes first.
        own = self._slot[ev_rows, ev_qis]
        gone = (own >= 0) & (self._exact[ev_rows, ev_qis] == exact)
        if gone.any():
            table.live[own[gone]] = False
            self._slot[ev_rows[gone], ev_qis[gone]] = -1
        t = np.flatnonzero(table.live[: table.size])
        if not t.size:
            return
        reg, q = table.region[t], table.query[t]
        w = table.upper.shape[1]
        j = self._qlocal[ev_qis]
        ev_lower = self._lower_w[w][j, ev_rows]
        upper = table.upper[t]
        # hit[i, e]: event e's region enters row i's box on row i's query.
        hit_rows, hit_events = [], []
        for sl in _chunks(len(t), len(ev_rows)):
            hit = all_lt_broadcast(ev_lower[None, :, :], upper[sl, None, :])
            hit &= ev_qis[None, :] == q[sl, None]
            i, e = np.nonzero(hit)
            hit_rows.append(i + sl.start)
            hit_events.append(e)
        i = np.concatenate(hit_rows)
        if not i.size:
            return
        n_hit = np.bincount(i, minlength=len(t))
        got = np.flatnonzero(n_hit)
        n_hit = n_hit[got]
        rt, rr, rq = t[got], reg[got], q[got]
        self._reach[rr, rq] -= n_hit
        self._prog_ok[rr, rq] = False
        threat = self._cupper_w[w][j, ev_rows] if exact else ev_lower
        table.counts[rt] -= _dominated_counts(
            _padded_rows(threat[np.concatenate(hit_events)], n_hit),
            table.points[rt],
        )
        emptied = self._reach[rr, rq] == 0
        if emptied.any():
            table.live[rt[emptied]] = False
            self._slot[rr[emptied], rq[emptied]] = -1

    def _members_of(self, w: int) -> "tuple[np.ndarray, ...]":
        """Active lineage members of every query of width ``w``:
        ``(query, row, lower, start, count)`` — per member its query's
        index in the group, its region row and its lower corner on that
        query's subspace, grouped by query with rows ascending; the
        group's members of query ``j`` are ``start[j]`` onward,
        ``count[j]`` of them.  Read from the eagerly kept membership
        arrays, so it needs no flush; cached until the next membership
        change."""
        cached = self._members.get(w)
        if cached is None:
            qis = self._width_qis[w]
            member = ((self._rql_all[None, :] >> qis[:, None]) & 1).astype(bool)
            member &= self._active_all[None, :]
            mq, mr = np.nonzero(member)
            count = np.bincount(mq, minlength=len(qis))
            cached = (mq, mr, self._lower_w[w][mq, mr], np.cumsum(count) - count, count)
            self._members[w] = cached
        return cached

    def active_serving(self, qi: int) -> "tuple[np.ndarray, np.ndarray]":
        """Ids and projected lower corners of alive regions serving ``qi``.

        Array-native replacement for scanning the executor's alive dict:
        ``note_removed``/``note_deactivation`` keep ``_active_all`` and the
        rql bits current eagerly, so the membership mask is exact at any
        point in the step; queued events stay queued for the next
        estimate.
        """
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before queries")
        _, rows, lowers, start, count = self._members_of(int(self._qwidth[qi]))
        j = self._qlocal[qi]
        end = start[j] + count[j]
        return rows[start[j] : end] + self._base, lowers[start[j] : end]

    # ------------------------------------------------------------------ #
    # Cost side
    # ------------------------------------------------------------------ #
    def estimate_cost(self, region: OutputRegion) -> float:
        """Estimated virtual time ``t_c`` to process ``region`` — the
        definition :meth:`attach_regions` evaluates for every region at
        once (:meth:`_costs`)."""
        cm = self.cost_model
        est_join = max(region.est_join_count, 0.0)
        scan = cm.join_probe * (region.left_size + region.right_size)
        materialise = (cm.join_result + cm.mapping * len(self.workload.output_dims)) * est_join
        # Each inserted tuple pays roughly one window scan per cuboid level;
        # ln(est_join) approximates the window size it meets.
        per_insert = max(1.0, math.log(max(est_join, 2.0)))
        skyline = cm.skyline_comparison * est_join * per_insert
        return cm.region_overhead + scan + materialise + skyline

    # ------------------------------------------------------------------ #
    # Benefit side
    # ------------------------------------------------------------------ #
    def cardinality(self, region: OutputRegion, qi: int) -> float:
        """Equation 9 for one region and query — the definition
        :meth:`attach_regions` evaluates for every region at once
        (:meth:`_cardinalities`)."""
        d = self.query_dims[qi]
        return buchta_skyline_size(region.est_join_count, d)

    def _reaching_dominators(
        self, region: OutputRegion, qi: int
    ) -> "tuple[np.ndarray, np.ndarray, list[int]]":
        """Rows of the active same-lineage regions whose lower corner
        reaches into ``region``'s box over query ``qi``'s subspace.

        Only these can lower the progressive ratio (a corner at or above the
        box's upper bound in some dimension threatens no cell), so both the
        exact and the sampled estimators are evaluated over this set — which
        makes the set the *complete* input fingerprint of a cached ratio.
        """
        positions = list(self.query_positions[qi])
        member = ((self._rql_all >> qi) & 1).astype(bool)
        member &= self._active_all
        rows, inside = self._attached_rows(region.region_id)
        member[rows[inside]] = False
        ids = np.flatnonzero(member)
        lowers = self._lower_all[np.ix_(ids, positions)]
        reach = (lowers < region.upper[positions]).all(axis=1)
        return ids[reach], lowers[reach], positions

    def prog_ratio(self, region: OutputRegion, qi: int) -> float:
        """``ProgCount / CellCount`` against the currently active regions,
        computed from scratch (the estimator's reference; it reads only
        the eagerly kept membership, never the resident state)."""
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before estimation")
        ids, dominator_lowers, positions = self._reaching_dominators(region, qi)
        if len(ids) == 0:
            return 1.0
        if (
            region.cell_count <= self.exact_cell_limit
            and len(ids) <= EXACT_DOMINATOR_LIMIT
        ):
            safe, total = _exact_count(
                region, self._coord_lo_all[ids], tuple(positions), self.grid
            )
            return safe / total if total else 0.0
        lo = region.lower[positions]
        hi = region.upper[positions]
        return prog_ratio_sampled(lo, hi, dominator_lowers)

    def estimate(self, region: OutputRegion) -> RegionEstimate:
        """``t_c`` and per-query ProgEst for one region."""
        return self.estimate_roots([region])[0]

    def estimate_roots(
        self, regions: "list[OutputRegion]"
    ) -> "list[RegionEstimate]":
        """:meth:`estimate_roots_arrays` packaged per region."""
        t_c, prog = self.estimate_roots_arrays(regions)
        return [
            RegionEstimate(t_c=float(t_c[k]), prog_est=prog[k])
            for k in range(len(regions))
        ]

    def estimate_roots_arrays(
        self,
        regions: "list[OutputRegion] | None" = None,
        *,
        rid_arr: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Estimates for one optimizer iteration's candidate set.

        Returns ``(t_c, prog)`` — the cost vector and the ``(regions,
        queries)`` ProgEst matrix — in four stages: cached values are
        gathered (:meth:`_gather_hits`); a missed pair that already holds
        resident state is read from it without a reach test
        (:meth:`_read_resident`); the rest get a reach test, a resident
        reach count and a count row (:meth:`_first_touch`); the values are
        written back to the cache.  Results are bit-identical to
        ``prog_ratio × cardinality`` computed from scratch per candidate.

        Candidates are named by id — the hot caller (the scheduler loop)
        passes ``rid_arr``, a sorted ``intp`` array, and no object list —
        and every one must have been attached: estimates read the
        attached geometry, and only attached regions take part in the
        events that keep the cached values current.
        """
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before estimation")
        self._flush_events()
        if rid_arr is None:
            rid_arr = np.asarray(
                [r.region_id for r in regions or ()], dtype=np.intp
            )
        if not rid_arr.size:
            return np.zeros(0), np.zeros((0, len(self.workload)))
        # From here on every ``rid`` is an array row.
        rid_arr = rid_arr - self._base
        if (
            int(rid_arr.min()) < 0
            or int(rid_arr.max()) >= len(self._attached_all)
            or not bool(self._attached_all[rid_arr].all())
        ):
            raise ExecutionError(
                "estimate_roots_arrays() requires attached regions"
            )
        prog, miss_k, miss_q = self._gather_hits(rid_arr)
        if miss_k.size:
            rows = rid_arr[miss_k]
            vals, touch = self._read_resident(rows, miss_q)
            if touch.any():
                vals[touch] = self._first_touch(rows[touch], miss_q[touch])
            prog[miss_k, miss_q] = vals
            self._prog_val[rows, miss_q] = vals
            self._prog_ok[rows, miss_q] = True
        return self._cost_all[rid_arr], prog

    def _gather_hits(
        self, rows: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The ``(candidates, queries)`` ProgEst matrix with every cached
        value filled in (0 where a candidate does not serve the query),
        and the ``(candidate, query)`` lineage pairs that missed."""
        bits = ((self._rql_all[rows][:, None] >> self._qbits) & 1).astype(bool)
        ok = self._prog_ok[rows]
        prog = np.where(bits & ok, self._prog_val[rows], 0.0)
        miss_k, miss_q = np.nonzero(bits & ~ok)
        return prog, miss_k, miss_q

    def _read_resident(
        self, rows: np.ndarray, qis: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """ProgEst of missed pairs read from their resident state, and the
        mask of pairs that need :meth:`_first_touch` instead.

        The branch choice is monotone — the reach count only falls and a
        box's cell count is fixed — so a resident row stays valid for its
        branch; the one transition is a small box whose sampled row's
        reach count fell to :data:`EXACT_DOMINATOR_LIMIT`, which moves to
        the exact branch.  A reach count of 0 reads the cardinality, the
        value both branches give an empty reach set.
        """
        reach = self._reach[rows, qis]
        exact = self._exact[rows, qis]
        small = self._ccnt_all[rows] <= self.exact_cell_limit
        switch = (reach > 0) & ~exact & small & (reach <= EXACT_DOMINATOR_LIMIT)
        vals = np.zeros(len(rows))
        zero = reach == 0
        vals[zero] = self._cards_all[rows[zero], qis[zero]]
        read = np.flatnonzero((reach > 0) & ~switch)
        if read.size:
            rr, rq = rows[read], qis[read]
            slots = self._slot[rr, rq]
            keys = 2 * self._qwidth[rq] + exact[read]
            for (w, branch), table in self._tables.items():
                sel = np.flatnonzero(keys == 2 * w + branch)
                if not sel.size:
                    continue
                at_risk = table.counts[slots[sel]] > 0
                if branch:
                    total = self._ccnt_all[rr[sel]]
                    at_risk = table.mult[slots[sel]] * at_risk.sum(axis=1)
                    ratio = (total - at_risk) / total
                else:
                    ratio = 1.0 - at_risk.mean(axis=1)
                vals[read[sel]] = ratio * self._cards_all[rr[sel], rq[sel]]
        return vals, (reach < 0) | switch

    def _first_touch(self, rows: np.ndarray, qis: np.ndarray) -> np.ndarray:
        """ProgEst of pairs without usable resident state, one pass per
        subspace width: reach test against the active members, resident
        reach count, and a count row for every non-empty reach set."""
        vals = np.empty(len(rows))
        widths = self._qwidth[qis]
        for w in np.unique(widths).tolist():
            sel = np.flatnonzero(widths == w)
            vals[sel] = self._first_touch_width(w, rows[sel], qis[sel])
        return vals

    def _first_touch_width(
        self, w: int, rows: np.ndarray, qis: np.ndarray
    ) -> np.ndarray:
        """:meth:`_first_touch` for the pairs of one width: one reach
        broadcast against every member of the width group (masked to each
        pair's own query), then the exact and the sampled rows."""
        j = self._qlocal[qis]
        upper = self._upper_w[w][j, rows]
        mq, mr, mlo = self._members_of(w)[:3]
        n_dom = np.zeros(len(rows), dtype=np.int64)
        hit_pairs, hit_ids = [], []
        if mr.size:
            for sl in _chunks(len(rows), len(mr)):
                # hit[p, m]: member m serves pair p's query and its lower
                # corner enters p's box over that subspace.
                hit = all_lt_broadcast(mlo[None, :, :], upper[sl, None, :])
                hit &= mq[None, :] == j[sl, None]
                hit &= mr[None, :] != rows[sl, None]
                n_dom[sl] = hit.sum(axis=1)
                p, m = np.nonzero(hit)
                hit_pairs.append(p + sl.start)
                hit_ids.append(mr[m])
        self._reach[rows, qis] = n_dom
        vals = self._cards_all[rows, qis]  # an empty reach set: ratio 1
        if not n_dom.any():
            return vals
        pair, ids = np.concatenate(hit_pairs), np.concatenate(hit_ids)
        small = self._ccnt_all[rows] <= self.exact_cell_limit
        exact = small & (n_dom <= EXACT_DOMINATOR_LIMIT)
        # A switching pair's sampled row is superseded by its exact row.
        stale = self._slot[rows, qis][exact & (n_dom > 0)]
        if (stale >= 0).any():
            self._tables[(w, False)].live[stale[stale >= 0]] = False
        for branch in (True, False):
            sel = (n_dom > 0) & (exact == branch)
            if sel.any():
                keep = sel[pair]
                vals[sel] = self._add_rows(
                    w, branch, rows[sel], qis[sel], upper[sel], n_dom[sel],
                    ids[keep],
                )
        return vals

    def _add_rows(
        self,
        w: int,
        exact: bool,
        rows: np.ndarray,
        qis: np.ndarray,
        upper: np.ndarray,
        n_dom: np.ndarray,
        ids: np.ndarray,
    ) -> np.ndarray:
        """Build, store and read the count rows of first-touched pairs of
        one width and branch; ``ids`` lists each pair's reaching members,
        pair after pair.  Returns the pairs' ProgEst."""
        j = self._qlocal[qis]
        corners = (self._cupper_w if exact else self._lower_w)[w][
            np.repeat(j, n_dom), ids
        ]
        offsets = np.concatenate(([0], np.cumsum(n_dom)))
        if exact:
            pos = self._pos_w[w][j]
            size = self._coord_hi_all[rows] - self._coord_lo_all[rows] + 1
            n_points = int(np.take_along_axis(size, pos, axis=1).prod(axis=1).max())
        else:
            n_points = len(_lattice_index(w)[1])
        table = self._tables.get((w, exact))
        if table is None:
            table = self._tables[(w, exact)] = _CountTable(w, n_points)
        ratio = np.empty(len(rows))
        per_pair = n_points * (int(n_dom.max()) + len(self.workload.output_dims))
        for sl in _chunks(len(rows), per_pair):
            r, q = rows[sl], qis[sl]
            if exact:
                points, mult = self._box_cells(r, pos[sl])
            else:
                points = _sample_lattices(self._lower_w[w][j[sl], r], upper[sl])
                mult = np.ones(len(r), dtype=np.int64)
            threats = _padded_rows(
                corners[offsets[sl.start] : offsets[sl.stop]], n_dom[sl]
            )
            counts = _dominated_counts(threats, points)
            self._slot[r, q] = table.add(r, q, upper[sl], points, counts, mult)
            self._exact[r, q] = exact
            at_risk = counts > 0
            if exact:
                total = self._ccnt_all[r]
                ratio[sl] = (total - mult * at_risk.sum(axis=1)) / total
            else:
                ratio[sl] = 1.0 - at_risk.mean(axis=1)
        return ratio * self._cards_all[rows, qis]

    def _box_cells(
        self, rows: np.ndarray, pos: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each region's box cells projected onto a subspace: the lower
        corners on the ``pos`` columns of the box's distinct projected
        cells (row-major over ``pos``, NaN-padded to the largest), and how
        many full-dimension cells each one stands for.  The corners are
        read from :attr:`_axis_lowers`, so each equals its column of
        ``grid.cell_lowers(OutputGrid.box_coords(lo, hi))``."""
        lo = np.take_along_axis(self._coord_lo_all[rows], pos, axis=1)
        size = np.take_along_axis(self._coord_hi_all[rows], pos, axis=1) - lo + 1
        n_sub = size.prod(axis=1)
        # Row-major strides over the subspace: its last column is fastest.
        stride = np.ones_like(size)
        stride[:, :-1] = np.cumprod(size[:, :0:-1], axis=1)[:, ::-1]
        flat = np.arange(int(n_sub.max()))
        coords = lo[:, None, :] + (
            flat[None, :, None] // stride[:, None, :]
        ) % size[:, None, :]
        cells = self._axis_lowers[pos[:, None, :], coords]
        cells[flat[None, :] >= n_sub[:, None]] = np.nan
        return cells, self._ccnt_all[rows] // n_sub

    def check_invariants(self) -> None:
        """Check the resident estimator state against a from-scratch
        recompute; raises ``AssertionError`` on the first disagreement.

        After a flush: every live count row belongs to an active lineage
        pair and is that pair's one slot; every resident reach count
        equals the size of the pair's reach set recomputed from the
        current membership, and the pair holds a live row iff that set is
        non-empty; every row's points equal its box's lattice (or
        projected cells) rebuilt from the geometry, and its counts the
        per-point dominator counts rebuilt from the reach set; every
        cached ProgEst is on a touched lineage pair and equals the value
        of ``prog_ratio``'s branch over the rebuilt counts.  A test-side
        check, one broadcast per query.
        """
        if self._active_all is None:
            return
        self._flush_events()
        member = ((self._rql_all[:, None] >> self._qbits) & 1).astype(bool)
        member &= self._active_all[:, None]
        owned = np.zeros_like(member)
        for (w, exact), table in self._tables.items():
            t = np.flatnonzero(table.live[: table.size])
            reg, q = table.region[t], table.query[t]
            _expect(bool(member[reg, q].all()), "a live row of a departed pair")
            _expect(
                bool((self._slot[reg, q] == t).all())
                and bool((self._exact[reg, q] == exact).all())
                and bool((self._qwidth[q] == w).all()),
                "a live row that is not its pair's slot",
            )
            owned[reg, q] = True
        touched = member & (self._reach >= 0)
        _expect(not (owned & ~touched).any(), "a row without a reach count")
        _expect(not (self._prog_ok & ~touched).any(), "a cached ProgEst off a touched pair")
        for qi in range(len(self.workload)):
            rows = np.flatnonzero(touched[:, qi])
            if rows.size:
                self._check_query(qi, rows, np.flatnonzero(member[:, qi]), owned[rows, qi])

    def _check_query(
        self, qi: int, rows: np.ndarray, ids: np.ndarray, owned: np.ndarray
    ) -> None:
        """:meth:`check_invariants` for the touched pairs of one query."""
        w = self.query_dims[qi]
        pos = list(self.query_positions[qi])
        lowers = self._lower_all[ids][:, pos]
        upper = self._upper_all[rows][:, pos]
        hit = all_lt_broadcast(lowers[None, :, :], upper[:, None, :])
        hit &= ids[None, :] != rows[:, None]
        n_dom = hit.sum(axis=1)
        where = f"query {qi}"
        _expect(np.array_equal(self._reach[rows, qi], n_dom), f"reach counts of {where}")
        _expect(np.array_equal(owned, n_dom > 0), f"live rows of {where}")
        small = self._ccnt_all[rows] <= self.exact_cell_limit
        exact = self._exact[rows, qi]
        vals = self._cards_all[rows, qi].copy()  # an empty reach set: ratio 1
        for branch in (True, False):
            sel = np.flatnonzero(owned & (exact == branch))
            if not sel.size:
                continue
            r = rows[sel]
            table, slots = self._tables[(w, branch)], self._slot[r, qi]
            if branch:
                _expect(
                    bool((small[sel] & (n_dom[sel] <= EXACT_DOMINATOR_LIMIT)).all()),
                    f"an exact row over the limits in {where}",
                )
                points, mult = self._box_cells(r, np.tile(pos, (len(r), 1)))
                corners = self._cupper_all[ids][:, pos]
            else:
                points = _sample_lattices(self._lower_all[r][:, pos], upper[sel])
                mult = np.ones(len(r), dtype=np.int64)
                corners = lowers
            n = points.shape[1]
            stored = table.points[slots]
            _expect(
                np.array_equal(stored[:, :n], points, equal_nan=True)
                and bool(np.isnan(stored[:, n:]).all())
                and np.array_equal(table.mult[slots], mult)
                and np.array_equal(table.upper[slots], upper[sel]),
                f"row geometry in {where}",
            )
            counts = np.zeros(points.shape[:2], dtype=np.int64)
            # Pairs of similar reach-set size together; each pair's
            # reaching corners first (a stable argsort of its hit row),
            # +inf past them.
            by_size = np.argsort(n_dom[sel], kind="stable")
            for part in np.array_split(by_size, max(1, len(sel) // 16)):
                part_hit = hit[sel[part]]
                first = np.argsort(~part_hit, axis=1, kind="stable")
                first = first[:, : n_dom[sel[part]].max()]
                threats = np.where(
                    np.take_along_axis(part_hit, first, axis=1)[:, :, None],
                    corners[first],
                    np.inf,
                )
                counts[part] = dominance_broadcast(
                    threats[:, :, None, :], points[part][:, None, :, :], axis=3
                ).sum(axis=1)
            _expect(
                np.array_equal(table.counts[slots, :n], counts)
                and not table.counts[slots, n:].any(),
                f"row counts in {where}",
            )
            at_risk = counts > 0
            if branch:
                total = self._ccnt_all[r]
                ratio = (total - mult * at_risk.sum(axis=1)) / total
            else:
                ratio = 1.0 - at_risk.mean(axis=1)
            vals[sel] = ratio * self._cards_all[r, qi]
        ok = self._prog_ok[rows, qi]
        # A cached value is read from the branch prog_ratio would take.
        stale = owned & (exact != (small & (n_dom <= EXACT_DOMINATOR_LIMIT)))
        _expect(not (ok & stale).any(), f"a cached ProgEst of a stale branch in {where}")
        _expect(
            np.array_equal(self._prog_val[rows[ok], qi], vals[ok]),
            f"cached ProgEst in {where}",
        )

    # ------------------------------------------------------------------ #
    # Equation 8
    # ------------------------------------------------------------------ #
    def csm(
        self,
        region: OutputRegion,
        estimate: RegionEstimate,
        weights: np.ndarray,
        now: float,
    ) -> float:
        """Cumulative Satisfaction Metric at virtual time ``now``."""
        if len(weights) != len(self.workload):
            raise ExecutionError("weight vector arity mismatch")
        report_time = now + estimate.t_c
        total = 0.0
        for qi in range(len(self.workload)):
            batch = float(estimate.prog_est[qi])
            if batch <= 0.0 or weights[qi] <= 0.0:
                continue
            total += weights[qi] * self.contracts[qi].batch_utility(
                report_time, batch, float(self.result_estimates[qi])
            )
        return total

    def csm_batch(
        self,
        estimates: "list[RegionEstimate]",
        weights: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Equation 8 for many candidate regions at once (one optimizer
        iteration scores every root; this keeps that scoring vectorised)."""
        if not estimates:
            return np.zeros(0)
        t_c = np.asarray([e.t_c for e in estimates])
        prog = np.vstack([e.prog_est for e in estimates])  # (R, Q)
        return self.csm_batch_arrays(t_c, prog, weights, now)

    def csm_batch_arrays(
        self,
        t_c: np.ndarray,
        prog: np.ndarray,
        weights: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """:meth:`csm_batch` over the array form estimate_roots_arrays
        returns — no per-region object packaging in between."""
        if not len(t_c):
            return np.zeros(0)
        times = now + t_c
        total = np.zeros(len(t_c))
        fused = (
            self._fused_contract_type.fused_tuple_utilities(
                self.contracts, times
            )
            if self._fused_contract_type is not None
            else None
        )
        for qi in range(len(self.workload)):
            if weights[qi] <= 0.0:
                continue
            if fused is not None:
                # Same elementwise ops and accumulation order as the
                # per-contract branch — the utilities matrix is just
                # computed in one broadcast.
                batches = prog[:, qi]
                utilities = np.where(batches > 0, batches * fused[qi], 0.0)
            else:
                utilities = self.contracts[qi].batch_utilities(
                    times, prog[:, qi], float(self.result_estimates[qi])
                )
            total += weights[qi] * utilities
        return total


# --------------------------------------------------------------------- #
# Cross-tenant ranking (docs/ARCHITECTURE.md §13.2)
# --------------------------------------------------------------------- #
# Equation 8 already prices a region's marginal benefit in a currency
# that is comparable *across queries* (contract utility per unit virtual
# time); summing over a workload keeps the unit, so the same currency is
# comparable across whole submissions — and hence across tenants.  The
# serving scheduler extends the model with exactly two tenant-level
# terms: a fair-share weight scaling the benefit, and a deficit-round-
# robin correction that pulls starved tenants forward.


@dataclass(frozen=True)
class TenantOffer:
    """One tenant's bid in the cross-tenant region auction.

    ``csm`` is the tenant's best root CSM (Eq. 8 via Eq. 10 progressive
    estimates) from :meth:`repro.core.caqe.LiveRun.peek_best_csm`;
    ``deficit`` is virtual time the tenant is owed under its fair share
    (entitled minus received service).
    """

    tenant: str
    csm: float
    weight: float = 1.0
    deficit: float = 0.0
    tier: int = 1


def cross_tenant_scores(
    offers: "Sequence[TenantOffer]", fairness_pressure: float = 0.0
) -> np.ndarray:
    """Score each offer: ``weight * csm + pressure * max(deficit, 0)``.

    The first term is Eq. 8 scaled by the tenant's fair-share weight;
    the second converts owed virtual time into the same benefit currency
    at a configured exchange rate, so a starved tenant's offer rises
    linearly with its deficit and eventually wins any auction (bounded
    starvation).  Pure and vectorised — the scheduler calls this once
    per region pick.
    """
    if not offers:
        return np.zeros(0)
    csm = np.asarray([o.csm for o in offers], dtype=float)
    weight = np.asarray([o.weight for o in offers], dtype=float)
    deficit = np.asarray([o.deficit for o in offers], dtype=float)
    return weight * csm + float(fairness_pressure) * np.maximum(deficit, 0.0)


def rank_offers(
    offers: "Sequence[TenantOffer]", fairness_pressure: float = 0.0
) -> "list[int]":
    """Offer indices best-first; ties break toward the earlier offer.

    The stable descending sort mirrors the tie-break of
    :meth:`LiveRun.step`'s root ranking, so the cross-tenant pick is
    deterministic for any fixed submission order.
    """
    if not offers:
        return []
    scores = cross_tenant_scores(offers, fairness_pressure)
    return np.argsort(-scores, kind="stable").tolist()


__all__ = [
    "EXACT_CELL_LIMIT",
    "BenefitModel",
    "RegionEstimate",
    "TenantOffer",
    "cross_tenant_scores",
    "prog_count_exact",
    "prog_ratio_sampled",
    "rank_offers",
]
