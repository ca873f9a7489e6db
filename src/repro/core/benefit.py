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
fall back to a volume-ratio approximation for large boxes — estimation
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
from repro.core.region import OutputRegion
from repro.errors import ExecutionError
from repro.plan.minmax_cuboid import MinMaxCuboid
from repro.query.workload import Workload
from repro.skyline.dominance import all_lt_broadcast, dominance_broadcast, dominance_mask
from repro.skyline.estimate import buchta_skyline_size

#: Above this many output cells the exact progressive count switches to the
#: volume approximation.
EXACT_CELL_LIMIT = 256
#: Above this many potential dominators the exact count is skipped too.
EXACT_DOMINATOR_LIMIT = 16


def prog_count_exact(
    region: OutputRegion,
    dominators: "list[OutputRegion]",
    positions: "tuple[int, ...]",
    grid: OutputGrid,
    cell_lowers: "np.ndarray | None" = None,
) -> "tuple[int, int]":
    """Definition 11: (non-dominatable cells, total cells) of ``region``.

    A cell of ``region`` is at risk for the examined query iff some other
    contributing region has a cell whose upper corner dominates this cell's
    lower corner (Definition 8 case 2 at cell granularity); the most
    dominating cell any region can populate is the one at its coordinate
    lower corner.

    ``cell_lowers`` optionally carries the precomputed full-dimension
    lower corners of the region's box (``grid.cell_lowers`` over
    ``OutputGrid.box_coords``) — pure immutable geometry, so a memoised
    copy is bit-identical to recomputing it.
    """
    pos = list(positions)
    threats = [d for d in dominators if d.region_id != region.region_id]
    total = OutputGrid.box_cell_count(region.coord_lo, region.coord_hi)
    if not threats:
        return total, total
    threat_uppers = grid.cell_uppers(
        np.asarray([d.coord_lo for d in threats], dtype=np.intp)
    )[:, pos]
    if cell_lowers is None:
        cell_lowers = grid.cell_lowers(
            OutputGrid.box_coords(region.coord_lo, region.coord_hi)
        )
    at_risk = dominance_mask(threat_uppers, cell_lowers[:, pos]).any(axis=0)
    return int(total - int(at_risk.sum())), total


def prog_ratio_volume(
    region: OutputRegion,
    dominators: "list[OutputRegion]",
    positions: "tuple[int, ...]",
) -> float:
    """Volume approximation of ``ProgCount / CellCount``.

    For each potential dominator, the at-risk part of the region's box is
    the sub-box strictly above the dominator's lower corner; assuming
    independent overlaps, the safe fraction is the product of per-dominator
    safe fractions.  With many overlapping dominators the independence
    assumption over-counts and the product collapses toward zero, so the
    benefit model prefers :func:`prog_ratio_sampled`; this form is kept for
    the cheap two-dominator cases and as the documented naive baseline.
    """
    pos = list(positions)
    lo = region.lower[pos]
    hi = region.upper[pos]
    width = np.maximum(hi - lo, 1e-12)
    others = [d for d in dominators if d.region_id != region.region_id]
    if not others:
        return 1.0
    other_lo = np.vstack([d.lower[pos] for d in others])
    reach = np.all(other_lo < hi, axis=1)  # can the dominator enter the box?
    if not np.any(reach):
        return 1.0
    fracs = np.prod(
        np.clip((hi - np.maximum(lo, other_lo[reach])) / width, 0.0, 1.0), axis=1
    )
    safe = float(np.prod(1.0 - fracs))
    return max(safe, 0.0)


#: Lattice resolution per dimension for the sampled progressive ratio.
_SAMPLES_PER_DIM = 3


#: Cartesian index grids for :func:`_sample_lattice`, keyed by ``(k, d)``.
_LATTICE_IDX: "dict[tuple[int, int], np.ndarray]" = {}


def _sample_lattice(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A deterministic lattice of cell-center points inside ``[lo, hi]``.

    One array-endpoint ``linspace`` call builds every axis at once —
    elementwise it performs the same arithmetic as a per-dimension
    ``linspace``, so the points are bit-identical to the scalar form —
    and a cached cartesian index grid expands the axes to sample rows in
    ``meshgrid``'s row-major order.
    """
    d = len(lo)
    k = _SAMPLES_PER_DIM if d <= 4 else 2
    pad = (hi - lo) / (2 * k)
    axes = np.linspace(lo + pad, hi - pad, k, axis=0)  # (k, d)
    idx = _LATTICE_IDX.get((k, d))
    if idx is None:
        ranges = [np.arange(k, dtype=np.intp)] * d
        mesh = np.meshgrid(*ranges, indexing="ij")
        idx = np.column_stack([m.ravel() for m in mesh])
        _LATTICE_IDX[(k, d)] = idx
    return axes[idx, np.arange(d, dtype=np.intp)[None, :]]


def prog_ratio_sampled(
    lower: np.ndarray,
    upper: np.ndarray,
    dominator_lowers: np.ndarray,
) -> float:
    """Sampled estimate of the non-dominated fraction of a region's box.

    The at-risk part of the box is the *union* of upper-orthants above the
    dominators' lower corners (the staircase of Definition 11); a fixed
    lattice of sample points estimates that union's share directly, without
    the independence assumption that breaks the product form.
    """
    if len(dominator_lowers) == 0:
        return 1.0
    return _sampled_ratio(_sample_lattice(lower, upper), dominator_lowers)


def _sampled_ratio(samples: np.ndarray, dominator_lowers: np.ndarray) -> float:
    """The sampled non-dominated fraction over a precomputed lattice."""
    dominated = dominance_mask(dominator_lowers, samples).any(axis=0)
    return float(1.0 - dominated.mean())


@dataclass
class RegionEstimate:
    """Cached per-region estimates feeding the CSM."""

    t_c: float
    #: ProgEst per workload-query bit (len == |S_Q|).
    prog_est: np.ndarray


class _SampleCounts:
    """Per-query incremental dominator counts over region sample lattices.

    Row ``slot[rid]`` holds, for each lattice sample of region ``rid``, how
    many *currently reaching* same-lineage regions dominate that sample.
    The sampled progressive ratio is then ``1 - mean(counts > 0)`` — read in
    O(S) — and stays exact under Algorithm 1's only membership events
    (region removal and lineage loss) via one vectorised subtraction of the
    departing region's domination mask per event.
    """

    __slots__ = ("samples", "counts", "slot_arr", "rids", "live", "size")

    def __init__(self, n_samples: int, width: int, n_ids: int) -> None:
        cap = 64
        self.samples = np.empty((cap, n_samples, width))
        self.counts = np.zeros((cap, n_samples), dtype=np.int32)
        #: ``slot_arr[region_id]`` is the row index, or -1 when absent —
        #: an array so batched lookups stay loop-free.  Indexed and sized
        #: by the model's region rows: only attached regions own a row.
        self.slot_arr = np.full(n_ids, -1, dtype=np.int64)
        #: Row → owning region id (stale for tombstoned rows, which the
        #: ``live`` mask filters out of every batched read).
        self.rids = np.zeros(cap, dtype=np.intp)
        #: Rows whose region still owns them.  Dropped rows are tombstoned
        #: (never reused, never read), so event maintenance skips them.
        self.live = np.zeros(cap, dtype=bool)
        self.size = 0

    def drop(self, region_id: int) -> None:
        if region_id < len(self.slot_arr):
            row = self.slot_arr[region_id]
            if row >= 0:
                self.live[row] = False
            self.slot_arr[region_id] = -1

    def add(
        self, region_id: int, samples: np.ndarray, counts: np.ndarray
    ) -> int:
        if self.size == len(self.samples):
            def grown(arr: np.ndarray) -> np.ndarray:
                out = np.empty((2 * len(arr), *arr.shape[1:]), dtype=arr.dtype)
                out[: self.size] = arr[: self.size]
                return out

            self.samples = grown(self.samples)
            self.counts = grown(self.counts)
            grown_rids = np.zeros(2 * len(self.rids), dtype=np.intp)
            grown_rids[: self.size] = self.rids[: self.size]
            self.rids = grown_rids
            grown_live = np.zeros(2 * len(self.live), dtype=bool)
            grown_live[: self.size] = self.live[: self.size]
            self.live = grown_live
        row = self.size
        self.samples[row] = samples
        self.counts[row] = counts
        self.slot_arr[region_id] = row
        self.rids[row] = region_id
        self.live[row] = True
        self.size += 1
        return row


class _CellCounts:
    """Per-query incremental threat counts over regions' exact cell boxes.

    The exact-branch analogue of :class:`_SampleCounts`: row ``slot[rid]``
    holds, for each grid cell of region ``rid``'s box (first ``ncells``
    entries; the rest is padding), how many currently reaching same-lineage
    regions could dominate that cell.  Definition 11's progressive count is
    then ``total - count_nonzero(counts > 0)`` — read in O(cells) — and the
    same removal/deactivation events that keep the sample counts current
    subtract the departing region's per-cell domination mask here.
    """

    __slots__ = (
        "cells", "counts", "ncells", "slot_arr", "rids", "live", "size",
        "limit", "arange",
    )

    def __init__(self, limit: int, width: int, n_ids: int) -> None:
        cap = 64
        self.limit = limit
        self.arange = np.arange(limit)
        self.cells = np.zeros((cap, limit, width))
        self.counts = np.zeros((cap, limit), dtype=np.int32)
        self.ncells = np.zeros(cap, dtype=np.intp)
        self.slot_arr = np.full(n_ids, -1, dtype=np.int64)
        self.rids = np.zeros(cap, dtype=np.intp)
        #: Same tombstone discipline as :class:`_SampleCounts`.
        self.live = np.zeros(cap, dtype=bool)
        self.size = 0

    def drop(self, region_id: int) -> None:
        if region_id < len(self.slot_arr):
            row = self.slot_arr[region_id]
            if row >= 0:
                self.live[row] = False
            self.slot_arr[region_id] = -1

    def add(
        self, region_id: int, cells: np.ndarray, counts: np.ndarray
    ) -> int:
        if self.size == len(self.cells):
            def grown(arr: np.ndarray) -> np.ndarray:
                out = np.zeros((2 * len(arr), *arr.shape[1:]), dtype=arr.dtype)
                out[: self.size] = arr[: self.size]
                return out

            self.cells = grown(self.cells)
            self.counts = grown(self.counts)
            self.ncells = grown(self.ncells)
            self.rids = grown(self.rids)
            self.live = grown(self.live)
        row = self.size
        n = len(cells)
        self.cells[row, :n] = cells
        self.cells[row, n:] = 0.0
        self.counts[row, :n] = counts
        self.counts[row, n:] = 0
        self.ncells[row] = n
        self.slot_arr[region_id] = row
        self.rids[row] = region_id
        self.live[row] = True
        self.size += 1
        return row


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
        # Memoised time-invariant input: the sample lattice depends only on
        # a region's immutable geometry, so it survives every change to the
        # progressive term.
        self._lattices: "dict[tuple[int, int], np.ndarray]" = {}
        # Full-dimension cell lower corners of each region's coordinate
        # box — immutable geometry the exact branch re-reads on every
        # recomputation, so one copy per region is kept for its lifetime.
        self._boxes: "dict[int, np.ndarray]" = {}
        # Event-driven ProgEst cache, ``(region row, qi)`` indexed.  A
        # candidate's ProgEst is a pure function of its *reach set* (the
        # active same-lineage regions whose lower corner enters its box),
        # so an entry stays valid until some reaching region departs —
        # :meth:`note_removed`/:meth:`note_deactivation` evict exactly the
        # entries whose reach set the event changed, in one masked store.
        self._prog_val: "np.ndarray | None" = None
        self._prog_ok: "np.ndarray | None" = None
        # Sampled-branch incremental state, one structure per query; rows
        # are created lazily at a region's first sampled estimate and kept
        # current by :meth:`note_removed`/:meth:`note_deactivation`.
        self._scounts: "dict[int, _SampleCounts]" = {}
        # Exact-branch incremental state, same lifecycle.
        self._ecounts: "dict[int, _CellCounts]" = {}
        # Departure events queued by note_removed/note_deactivation and
        # applied in one vectorised pass per query at the next read
        # (:meth:`_flush_events`) — count subtraction commutes, so the
        # batch equals replaying the events one at a time.
        self._pending: "list[tuple[int, int]]" = []
        # Per-query active-membership snapshot ``(ids, lowers)`` reused
        # between events: membership changes always queue an event for the
        # affected query, so the flush is a complete invalidation point.
        self._member_cache: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        #: Estimated final result count per query (needed by cardinality
        #: contracts); populated via :meth:`set_result_estimates`.
        self.result_estimates = np.ones(len(workload))
        # Global region arrays for vectorised ProgCount estimation; filled by
        # :meth:`attach_regions` and kept in sync via note_* callbacks.
        self._lower_all: "np.ndarray | None" = None
        self._upper_all: "np.ndarray | None" = None
        self._cupper_all: "np.ndarray | None" = None
        # Contiguous per-query-subspace views of the three corner
        # matrices, rebuilt by :meth:`attach_regions`.
        self._lower_q: "list[np.ndarray]" = []
        self._upper_q: "list[np.ndarray]" = []
        self._cupper_q: "list[np.ndarray]" = []
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
        self._regions_by_row: "dict[int, OutputRegion]" = {}

    def set_result_estimates(self, totals: "dict[str, float]") -> None:
        for qi, query in enumerate(self.workload):
            self.result_estimates[qi] = max(totals.get(query.name, 1.0), 1.0)

    # ------------------------------------------------------------------ #
    # Region-array bookkeeping
    # ------------------------------------------------------------------ #
    def attach_regions(self, regions: "list[OutputRegion]") -> None:
        """Register the run's alive regions for vectorised estimation."""
        self._lattices.clear()
        self._boxes.clear()
        self._scounts.clear()
        self._ecounts.clear()
        self._pending.clear()
        self._member_cache.clear()
        n_q = len(self.workload)
        if not regions:
            self._lower_all = np.empty((0, len(self.workload.output_dims)))
            self._upper_all = np.empty((0, len(self.workload.output_dims)))
            self._cupper_all = np.empty((0, len(self.workload.output_dims)))
            self._rql_all = np.empty(0, dtype=np.int64)
            self._active_all = np.empty(0, dtype=bool)
            self._attached_all = np.empty(0, dtype=bool)
            self._prog_val = np.empty((0, n_q))
            self._prog_ok = np.empty((0, n_q), dtype=bool)
            self._cards_all = np.empty((0, n_q))
            self._cost_all = np.empty(0)
            self._ccnt_all = np.empty(0, dtype=np.int64)
            self._base = 0
            self._regions_by_row = {}
            self._subspace_cols()
            return
        self._base = min(r.region_id for r in regions)
        n_rows = max(r.region_id for r in regions) - self._base + 1
        self._lower_all = np.zeros((n_rows, len(self.workload.output_dims)))
        self._upper_all = np.zeros((n_rows, len(self.workload.output_dims)))
        self._cupper_all = np.zeros((n_rows, len(self.workload.output_dims)))
        self._rql_all = np.zeros(n_rows, dtype=np.int64)
        self._active_all = np.zeros(n_rows, dtype=bool)
        self._attached_all = np.zeros(n_rows, dtype=bool)
        self._prog_val = np.zeros((n_rows, n_q))
        self._prog_ok = np.zeros((n_rows, n_q), dtype=bool)
        self._cards_all = np.zeros((n_rows, n_q))
        self._cost_all = np.zeros(n_rows)
        self._ccnt_all = np.zeros(n_rows, dtype=np.int64)
        self._regions_by_row = {}
        for r in regions:
            row = r.region_id - self._base
            self._lower_all[row] = r.lower
            self._upper_all[row] = r.upper
            self._rql_all[row] = r.active_rql
            self._active_all[row] = True
            self._attached_all[row] = True
            self._cards_all[row] = [
                self.cardinality(r, qi) for qi in range(n_q)
            ]
            self._cost_all[row] = self.estimate_cost(r)
            self._ccnt_all[row] = r.cell_count
            self._regions_by_row[row] = r
        # Upper corner of each region's lowest cell — the corner Definition
        # 11's threat test compares; one broadcast covers every region.
        rows = np.asarray(sorted(self._regions_by_row), dtype=np.intp)
        coords = np.asarray(
            [self._regions_by_row[int(i)].coord_lo for i in rows], dtype=np.intp
        )
        self._cupper_all[rows] = self.grid.cell_uppers(coords)
        self._subspace_cols()

    def _subspace_cols(self) -> None:
        """Per-query contiguous corner matrices over each query subspace.

        Geometry is immutable after :meth:`attach_regions`, so slicing the
        query-subspace columns once replaces a fancy gather per estimator
        call and per event flush.
        """
        self._lower_q = []
        self._upper_q = []
        self._cupper_q = []
        for qi in range(len(self.workload)):
            p = list(self.query_positions[qi])
            self._lower_q.append(np.ascontiguousarray(self._lower_all[:, p]))
            self._upper_q.append(np.ascontiguousarray(self._upper_all[:, p]))
            self._cupper_q.append(np.ascontiguousarray(self._cupper_all[:, p]))

    def note_removed(self, region_id: int) -> None:
        """A region was processed or fully discarded."""
        row = self._attached_row(region_id)
        if row is None:
            return  # never attached: it holds no state and reaches nothing
        rql = int(self._rql_all[row])
        for qi in range(len(self.workload)):
            if (rql >> qi) & 1:
                self._pending.append((row, qi))
        self._active_all[row] = False
        self._prog_ok[row, :] = False
        self._boxes.pop(row, None)
        for qi in range(len(self.workload)):
            self._lattices.pop((row, qi), None)
            sc = self._scounts.get(qi)
            if sc is not None:
                sc.drop(row)
            ec = self._ecounts.get(qi)
            if ec is not None:
                ec.drop(row)

    def note_deactivation(self, region_id: int, query_bit: int) -> None:
        """A region lost one query from its lineage."""
        row = self._attached_row(region_id)
        if row is None:
            return
        self._pending.append((row, query_bit))
        self._rql_all[row] &= ~(np.int64(1) << query_bit)
        self._prog_ok[row, query_bit] = False
        # The region's own count rows for this query are dead from here on
        # (rql bits never come back), so event maintenance may skip them.
        sc = self._scounts.get(query_bit)
        if sc is not None:
            sc.drop(row)
        ec = self._ecounts.get(query_bit)
        if ec is not None:
            ec.drop(row)

    def _attached_row(self, region_id: int) -> "int | None":
        """``region_id``'s array row, or ``None`` outside the attached range."""
        row = region_id - self._base
        if self._rql_all is None or not 0 <= row < len(self._rql_all):
            return None
        return row

    def _flush_events(self) -> None:
        """Apply queued departure events in one vectorised pass per query.

        Each event subtracts the departing region's domination contribution
        from every initialised count row it reaches and evicts the ProgEst
        cache entries whose reach set it changed.  Geometry is immutable
        and events fire exactly once per ``(region, query)``, so integer
        subtraction commutes: applying a batch together equals replaying
        the events one at a time.  Rows belonging to departed regions are
        tombstoned (never read again), so their drift is unobservable.
        """
        if not self._pending or self._lower_all is None:
            self._pending.clear()
            return
        events = self._pending
        self._pending = []
        by_qi: "dict[int, list[int]]" = {}
        for rid, qi in events:
            by_qi.setdefault(qi, []).append(rid)
        for qi, rids in by_qi.items():
            self._member_cache.pop(qi, None)
            rid_arr = np.asarray(rids, dtype=np.intp)
            lowers = self._lower_q[qi][rid_arr]  # (E, p)
            # One (events, regions) reach broadcast serves everything in
            # this flush: a candidate's ProgEst entry dies iff some
            # departing region's lower corner enters its box over the
            # subspace, and the count-table targets gather the same mask
            # through their row -> region-id maps (a count row's upper
            # corner *is* its region's upper corner).
            reach_all = all_lt_broadcast(
                lowers[:, None, :], self._upper_q[qi][None, :, :], axis=2
            )
            if self._prog_ok is not None:
                self._prog_ok[reach_all.any(axis=0), qi] = False
            sc = self._scounts.get(qi)
            if sc is not None and sc.size:
                n = sc.size
                reach = reach_all[:, sc.rids[:n]]
                reach &= sc.live[None, :n]
                own = sc.slot_arr[rid_arr]
                valid = np.flatnonzero(own >= 0)
                if valid.size:
                    reach[valid, own[valid]] = False
                rows = np.flatnonzero(reach.any(axis=0))
                if rows.size:
                    dom = dominance_broadcast(
                        lowers[:, None, None, :],
                        sc.samples[rows][None, :, :, :],
                        axis=3,
                    )
                    sc.counts[rows] -= (dom & reach[:, rows, None]).sum(
                        axis=0, dtype=np.int32
                    )
            ec = self._ecounts.get(qi)
            if ec is not None and ec.size:
                n = ec.size
                reach = reach_all[:, ec.rids[:n]]
                reach &= ec.live[None, :n]
                own = ec.slot_arr[rid_arr]
                valid = np.flatnonzero(own >= 0)
                if valid.size:
                    reach[valid, own[valid]] = False
                rows = np.flatnonzero(reach.any(axis=0))
                if rows.size:
                    corners = self._cupper_q[qi][rid_arr]
                    cells = ec.cells[rows]
                    # Chunk the (events, rows, cells) broadcast to bound the
                    # temporary at ~8 * rows * limit * width floats.
                    for a in range(0, len(rids), 8):
                        b = min(a + 8, len(rids))
                        sub = reach[a:b][:, rows]
                        if not sub.any():
                            continue
                        dom = dominance_broadcast(
                            corners[a:b, None, None, :],
                            cells[None, :, :, :],
                            axis=3,
                        )
                        ec.counts[rows] -= (dom & sub[:, :, None]).sum(
                            axis=0, dtype=np.int32
                        )

    def active_serving(self, qi: int) -> "tuple[np.ndarray, np.ndarray]":
        """Ids and projected lower corners of alive regions serving ``qi``.

        Array-native replacement for scanning the executor's alive dict:
        ``note_removed``/``note_deactivation`` keep ``_active_all`` and the
        rql bits current eagerly, so the membership mask is exact at any
        point in the step.  Queued departure events are flushed first so
        the per-query member cache (shared with the estimator) is fresh.
        """
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before queries")
        if self._pending:
            self._flush_events()
        cached = self._member_cache.get(qi)
        if cached is None:
            member = self._active_all & (
                ((self._rql_all >> qi) & 1).astype(bool)
            )
            rows = np.flatnonzero(member)
            cached = (rows, self._lower_q[qi][rows])
            self._member_cache[qi] = cached
        rows, lowers_all = cached
        return rows + self._base, lowers_all

    # ------------------------------------------------------------------ #
    # Cost side
    # ------------------------------------------------------------------ #
    def estimate_cost(self, region: OutputRegion) -> float:
        """Estimated virtual time ``t_c`` to process ``region``."""
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
        """Equation 9 for one region and query."""
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
        member = self._active_all & (((self._rql_all >> qi) & 1).astype(bool))
        row = self._attached_row(region.region_id)
        if row is not None:
            member[row] = False
        ids = np.flatnonzero(member)
        lowers = self._lower_all[ids][:, positions]
        if len(ids):
            reach = np.all(lowers < region.upper[positions], axis=1)
            ids = ids[reach]
            lowers = lowers[reach]
        return ids, lowers, positions

    def prog_ratio(self, region: OutputRegion, qi: int) -> float:
        """``ProgCount / CellCount`` against the currently active regions."""
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before estimation")
        if self._pending:
            self._flush_events()
        ids, dominator_lowers, positions = self._reaching_dominators(region, qi)
        if len(ids) == 0:
            return 1.0
        if (
            region.cell_count <= self.exact_cell_limit
            and len(ids) <= EXACT_DOMINATOR_LIMIT
        ):
            dominators = [self._regions_by_row[int(row)] for row in ids]
            safe, total = prog_count_exact(
                region,
                dominators,
                tuple(positions),
                self.grid,
                cell_lowers=self._cell_lowers_for(region),
            )
            return safe / total if total else 0.0
        lo = region.lower[positions]
        hi = region.upper[positions]
        return prog_ratio_sampled(lo, hi, dominator_lowers)

    def _cell_lowers_for(self, region: OutputRegion) -> np.ndarray:
        """Full-dimension lower corners of the region's box cells (memoised)."""
        row = region.region_id - self._base
        lowers = self._boxes.get(row)
        if lowers is None:
            lowers = self.grid.cell_lowers(
                OutputGrid.box_coords(region.coord_lo, region.coord_hi)
            )
            self._boxes[row] = lowers
        return lowers

    def _lattice_for(
        self, region: OutputRegion, qi: int, positions: "list[int]"
    ) -> np.ndarray:
        key = (region.region_id - self._base, qi)
        samples = self._lattices.get(key)
        if samples is None:
            samples = _sample_lattice(
                region.lower[positions], region.upper[positions]
            )
            self._lattices[key] = samples
        return samples

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
        queries)`` ProgEst matrix.  The reach test — which active
        same-lineage regions can lower each candidate's progressive ratio —
        runs as one broadcast per query over the whole candidate set; per
        candidate only a changed reach set triggers an estimator call.
        Results are bit-identical to ``prog_ratio × cardinality`` computed
        from scratch per candidate.

        Candidates are named by id — the hot caller (the scheduler loop)
        passes ``rid_arr``, a sorted ``intp`` array, and no object list —
        and every one must have been attached: estimates read the
        attached geometry, and only attached regions take part in the
        events that keep the cached values current.
        """
        if self._active_all is None:
            raise ExecutionError("attach_regions() must run before estimation")
        if self._pending:
            self._flush_events()
        n_q = len(self.workload)
        if rid_arr is None:
            rid_arr = np.asarray(
                [r.region_id for r in regions or ()], dtype=np.intp
            )
        if not rid_arr.size:
            return np.zeros(0), np.zeros((0, n_q))
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
        by_row = self._regions_by_row
        prog = np.zeros((len(rid_arr), n_q))
        cards_m = self._cards_all[rid_arr]
        ccnt = self._ccnt_all[rid_arr]
        arql = self._rql_all[rid_arr]
        # One (candidates, queries) membership matrix; cached ProgEst values
        # are copied out in a single gather, so the per-query loop only
        # touches queries with at least one cache miss.
        bits = ((arql[:, None] >> np.arange(n_q, dtype=np.int64)[None, :]) & 1).astype(bool)
        hit_m = bits & self._prog_ok[rid_arr]
        np.copyto(prog, self._prog_val[rid_arr], where=hit_m)
        miss_m = bits & ~hit_m
        for qi in np.flatnonzero(miss_m.any(axis=0)).tolist():
            miss = np.flatnonzero(miss_m[:, qi])
            mrids = rid_arr[miss]
            sc = self._scounts.get(qi)
            ec = self._ecounts.get(qi)
            small = ccnt[miss] <= self.exact_cell_limit
            # Rows that already hold a count row skip the reach broadcast
            # entirely: the exact/sampled branch choice is monotone (an
            # exact row stays exact because ``n_dom`` only shrinks and the
            # cell count is fixed; an over-limit box can never turn exact),
            # and a row whose reach set emptied reads ratio 1.0 — exactly
            # the empty-reach shortcut value.
            if ec is not None:
                eslots = ec.slot_arr[mrids]
            else:
                eslots = np.full(len(miss), -1, dtype=np.int64)
            if sc is not None:
                sslots = sc.slot_arr[mrids]
            else:
                sslots = np.full(len(miss), -1, dtype=np.int64)
            e_read = (eslots >= 0) & small
            s_read = (sslots >= 0) & ~small
            if e_read.any():
                er = np.flatnonzero(e_read)
                es = eslots[er]
                counts = ec.counts[es] > 0
                counts &= ec.arange[None, :] < ec.ncells[es][:, None]
                at_risk = counts.sum(axis=1)
                totals = ccnt[miss[er]]
                vals = ((totals - at_risk) / totals) * cards_m[miss[er], qi]
                prog[miss[er], qi] = vals
                self._prog_val[mrids[er], qi] = vals
                self._prog_ok[mrids[er], qi] = True
            if s_read.any():
                sr = np.flatnonzero(s_read)
                ss = sslots[sr]
                ratios = 1.0 - (sc.counts[ss] > 0).mean(axis=1)
                vals = ratios * cards_m[miss[sr], qi]
                prog[miss[sr], qi] = vals
                self._prog_val[mrids[sr], qi] = vals
                self._prog_ok[mrids[sr], qi] = True
            rest = np.flatnonzero(~(e_read | s_read))
            if not rest.size:
                continue
            positions = list(self.query_positions[qi])
            rrids = mrids[rest]
            cached_member = self._member_cache.get(qi)
            if cached_member is None:
                member = self._active_all & (
                    ((self._rql_all >> qi) & 1).astype(bool)
                )
                ids_all = np.flatnonzero(member)
                lowers_all = self._lower_q[qi][ids_all]
                self._member_cache[qi] = (ids_all, lowers_all)
            else:
                ids_all, lowers_all = cached_member
            if len(ids_all) == 0:
                rrows = miss[rest]
                prog[rrows, qi] = cards_m[rrows, qi]
                self._prog_val[rrids, qi] = prog[rrows, qi]
                self._prog_ok[rrids, qi] = True
                continue
            # Attached geometry is immutable, so these rows hold the same
            # float64 values as each region's own ``upper``.
            uppers = self._upper_q[qi][rrids]
            # reach[r, i]: active member i can lower rest-row r's ratio.
            reach_r = all_lt_broadcast(lowers_all[None, :, :], uppers[:, None, :])
            reach_r &= ids_all[None, :] != rrids[:, None]
            n_dom_r = reach_r.sum(axis=1)
            # Scatter the rest-local data back to miss-local indexing so
            # the branch code below reads one coordinate system.
            reach = np.zeros((len(miss), len(ids_all)), dtype=bool)
            reach[rest] = reach_r
            n_dom = np.zeros(len(miss), dtype=n_dom_r.dtype)
            n_dom[rest] = n_dom_r
            zero_r = n_dom_r == 0
            if zero_r.any():
                zrows = miss[rest[zero_r]]
                prog[zrows, qi] = cards_m[zrows, qi]
                self._prog_val[rrids[zero_r], qi] = prog[zrows, qi]
                self._prog_ok[rrids[zero_r], qi] = True
            exact = np.zeros(len(miss), dtype=bool)
            exact[rest] = small[rest] & (n_dom_r <= EXACT_DOMINATOR_LIMIT) & ~zero_r
            scalar = rest[~zero_r]
            sinit = [j for j in scalar.tolist() if not exact[j]]
            scalar = scalar[exact[scalar]]
            if sinit and sc is not None:
                # Small-box rows that stayed sampled (n_dom still over the
                # exact limit) already hold a live count row — batched
                # read, not a re-init.
                sj = np.asarray(sinit, dtype=np.intp)
                slots2 = sc.slot_arr[mrids[sj]]
                have = slots2 >= 0
                if have.any():
                    sr2 = sj[have]
                    ss2 = slots2[have]
                    ratios = 1.0 - (sc.counts[ss2] > 0).mean(axis=1)
                    vals = ratios * cards_m[miss[sr2], qi]
                    prog[miss[sr2], qi] = vals
                    self._prog_val[mrids[sr2], qi] = vals
                    self._prog_ok[mrids[sr2], qi] = True
                    sinit = sj[~have].tolist()
            if sinit:
                # Sampled-branch first touches, initialised in one padded
                # broadcast: threat rows are padded with +inf corners,
                # which dominate nothing, so the per-row counts equal the
                # unpadded scalar initialisation exactly.
                latts = [
                    self._lattice_for(by_row[int(mrids[j])], qi, positions)
                    for j in sinit
                ]
                if sc is None:
                    sc = _SampleCounts(
                        len(latts[0]), len(positions), len(self._rql_all)
                    )
                    self._scounts[qi] = sc
                tmax = max(int(n_dom[j]) for j in sinit)
                thr = np.full((len(sinit), tmax, len(positions)), np.inf)
                for b, j in enumerate(sinit):
                    lw = lowers_all[reach[j]]
                    thr[b, : len(lw)] = lw
                samp = np.stack(latts)
                counts = dominance_broadcast(
                    thr[:, :, None, :], samp[:, None, :, :], axis=3
                ).sum(axis=1, dtype=np.int32)
                ratios = 1.0 - (counts > 0).mean(axis=1)
                for b, j in enumerate(sinit):
                    k = int(miss[j])
                    rid = int(mrids[j])
                    sc.add(rid, latts[b], counts[b])
                    prog[k, qi] = ratios[b] * cards_m[k, qi]
                    self._prog_val[rid, qi] = prog[k, qi]
                    self._prog_ok[rid, qi] = True
            if scalar.size:
                # Exact-branch first touches (every cached exact row was
                # already read above, so these are all row-less).  Cell
                # lattices pad to the widest box — padded columns are
                # sliced off before the count rows are stored — and threat
                # rows pad with +inf corners, which dominate nothing.
                if ec is None:
                    ec = _CellCounts(
                        self.exact_cell_limit,
                        len(positions),
                        len(self._rql_all),
                    )
                    self._ecounts[qi] = ec
                sl = scalar.tolist()
                cls = [
                    self._cell_lowers_for(by_row[int(mrids[j])])[:, positions]
                    for j in sl
                ]
                ncl = [len(c) for c in cls]
                cmax = max(ncl)
                cellp = np.full((len(sl), cmax, len(positions)), np.inf)
                tmax = max(int(n_dom[j]) for j in sl)
                thr = np.full((len(sl), tmax, len(positions)), np.inf)
                for b, j in enumerate(sl):
                    cellp[b, : ncl[b]] = cls[b]
                    tu = self._cupper_q[qi][ids_all[reach[j]]]
                    thr[b, : len(tu)] = tu
                counts = dominance_broadcast(
                    thr[:, :, None, :], cellp[:, None, :, :], axis=3
                ).sum(axis=1, dtype=np.int32)
                for b, j in enumerate(sl):
                    k = int(miss[j])
                    rid = int(mrids[j])
                    row = ec.add(rid, cls[b], counts[b, : ncl[b]])
                    total = int(ccnt[k])
                    safe = total - int((ec.counts[row, : ncl[b]] > 0).sum())
                    ratio = safe / total if total else 0.0
                    prog[k, qi] = ratio * cards_m[k, qi]
                    self._prog_val[rid, qi] = prog[k, qi]
                    self._prog_ok[rid, qi] = True
        return self._cost_all[rid_arr], prog

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
# Cross-tenant ranking (docs/ARCHITECTURE.md §15.2)
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
    "prog_ratio_volume",
    "rank_offers",
]
