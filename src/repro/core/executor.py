"""Contract-aware tuple-level execution (Section 6).

Given a region chosen by the optimizer, the executor:

1. **Tuple-level processing** — evaluates the equi-join between the
   region's input cells (hash join on the shared signature values), applies
   the workload's mapping functions, and inserts each output tuple into the
   shared min-max cuboid plan (which counts and charges every skyline
   comparison);
2. returns which tuples entered each query's candidate skyline and which
   earlier candidates were evicted (skyline-over-join is non-monotonic), so
   the driver can maintain progressive-reporting state;
3. exposes the produced vectors (``RegionOutcome.matrix``) for the
   driver's discard step (tuple results dominating whole not-yet-processed
   regions); the :class:`JoinResultStore` keeps each result's identity —
   its ``(left_row, right_row)`` pair — and nothing else.

Progressive *reporting* itself (deciding when a candidate is safe to emit)
lives in the driver (:mod:`repro.core.caqe`) because it needs the global
set of remaining regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.core.region import OutputRegion
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.query.joinkernel import (
    GroupedBuild,
    bucket_join,
    build_grouped,
    cell_join,
    probe_grouped,
)
from repro.partition.cells import CellRange
from repro.plan.shared_plan import WorkloadPlan
from repro.query.evaluate import apply_functions
from repro.query.predicates import JoinCondition
from repro.query.selection import selection_bitmasks
from repro.query.workload import Workload
from repro.relation import Relation

#: A memoised hash-join build side (docs/ARCHITECTURE.md §11): the cell's
#: key column and its grouped form — ``None`` when the keys are outside the
#: vectorised kernel's domain (NaN, non-numeric).
BuildSide = "tuple[np.ndarray, GroupedBuild | None]"

_STORE_INITIAL_CAPACITY = 1024


@dataclass(frozen=True, slots=True)
class ResultIdentity:
    """Stable identity of a join result across execution strategies."""

    left_row: int
    right_row: int

    def as_tuple(self) -> "tuple[int, int]":
        return (self.left_row, self.right_row)


class JoinResultStore:
    """Identities of all materialised join results of one run.

    Two append-only int64 columns (``left_row``, ``right_row``) with
    geometric growth; a result's key is its row — the consecutive
    insertion id :meth:`add_batch` hands out.  The store holds identities
    only: a region's output vectors travel on its
    :class:`RegionOutcome` (``matrix`` / ``key_base``), the windows keep
    the admitted ones, and nothing reads a vector by key afterwards.
    """

    __slots__ = ("_left", "_right", "_size")

    def __init__(self) -> None:
        self._left = np.empty(_STORE_INITIAL_CAPACITY, dtype=np.int64)
        self._right = np.empty(_STORE_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0

    def add_batch(
        self,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        vectors: np.ndarray,
        region_id: int,
    ) -> "list[int]":
        """Store one region's (already sorted) tuples; returns their keys.

        Keys are consecutive insertion ids in row order.  ``vectors`` only
        sizes the batch and ``region_id`` is not kept — the signature is
        the executor's commit call.
        """
        base = self._size
        end = base + len(vectors)
        self._write(base, end, left_rows, right_rows)
        return list(range(base, end))

    def _write(
        self, base: int, end: int, left_rows: np.ndarray, right_rows: np.ndarray
    ) -> None:
        """Set rows ``[base, end)`` and make ``end`` the size, growing the
        columns geometrically (rows below ``base`` are kept)."""
        if end > len(self._left):
            capacity = len(self._left)
            while capacity < end:
                capacity *= 2
            for name in ("_left", "_right"):
                grown = np.empty(capacity, dtype=np.int64)
                grown[:base] = getattr(self, name)[:base]
                setattr(self, name, grown)
        self._left[base:end] = left_rows
        self._right[base:end] = right_rows
        self._size = end

    def identity(self, key: int) -> ResultIdentity:
        if not 0 <= key < self._size:
            raise KeyError(key)
        return ResultIdentity(int(self._left[key]), int(self._right[key]))

    def columns(self) -> "tuple[np.ndarray, np.ndarray]":
        """The ``(left_row, right_row)`` columns, one row per key (views)."""
        return self._left[: self._size], self._right[: self._size]

    def load_columns(self, left_rows: np.ndarray, right_rows: np.ndarray) -> None:
        """Replace the contents with dumped columns (checkpoint restore)."""
        self._write(0, len(left_rows), left_rows, right_rows)

    def __len__(self) -> int:
        return self._size


@dataclass
class RegionOutcome:
    """Effects of tuple-level processing of one region."""

    region_id: int
    inserted_keys: "list[int]" = field(default_factory=list)
    #: Per query name: keys of this region admitted to the candidate skyline
    #: and still current once the whole region finished.
    admitted: "dict[str, list[int]]" = field(default_factory=dict)
    #: Per query name: previously-current keys evicted by this region.
    evicted: "dict[str, list[int]]" = field(default_factory=dict)
    join_count: int = 0
    #: Row-aligned vector matrix of ``inserted_keys`` (key ``key_base + i``
    #: is row ``i``; ``None`` for an empty join).  Lets the driver gather
    #: candidate vectors as one fancy index; it is the only place the
    #: region's vectors live once the windows have taken their admissions.
    matrix: "np.ndarray | None" = None
    key_base: int = 0


def join_cell_pair(
    left: Relation,
    right: Relation,
    left_cell: CellRange,
    right_cell: CellRange,
    condition: JoinCondition,
    stats: ExecutionStats,
) -> "tuple[np.ndarray, np.ndarray]":
    """Hash-join two leaf cells; returns global (left, right) row indices.

    The pairs come from the order-exact vectorised kernel
    (:func:`repro.query.joinkernel.cell_join`), which reproduces the
    reference bucket loop's output — values *and* order — and falls back
    to that loop for key columns outside its domain.
    """
    left_values = condition.left_values(left)[left_cell.indices]
    right_values = condition.right_values(right)[right_cell.indices]
    # Building the hash table scans both cells once.
    stats.record_join_probes(left_cell.size + right_cell.size)
    return cell_join(
        left_values, right_values, left_cell.indices, right_cell.indices
    )


class RegionExecutor:
    """Runs tuple-level processing for scheduled regions."""

    def __init__(
        self,
        workload: Workload,
        left: Relation,
        right: Relation,
        plan: WorkloadPlan,
        store: JoinResultStore,
        stats: ExecutionStats,
        *,
        fault_hook: "Callable[[OutputRegion], None] | None" = None,
        build_cache: "dict[tuple[int, str], BuildSide] | None" = None,
    ) -> None:
        self.workload = workload
        self.left = left
        self.right = right
        self.plan = plan
        self.store = store
        self.stats = stats
        #: Chaos-testing hook consulted at the top of :meth:`process`; it
        #: may raise :class:`~repro.errors.RegionFailure`.  Failing *before*
        #: any store/plan mutation keeps shared state consistent, so a
        #: retried region is a clean re-execution (no duplicate inserts).
        self.fault_hook = fault_hook
        # Hash-join build tables memoised per (cell, join condition): a cell
        # shared by many surviving regions is hashed once, not once per
        # region.  The scan is still *charged* each time — the virtual cost
        # model prices the paper's algorithm, the cache only removes Python
        # re-execution — so metrics and schedules are unchanged.  Callers
        # may inject a cache to reuse build tables across executors (the
        # serving layer keys one per workload signature: same relations +
        # same config partition identically, so entries stay valid).
        self._build_cache: "dict[tuple[int, str], BuildSide]" = (
            build_cache if build_cache is not None else {}
        )
        self._functions = tuple(
            workload.function_for(d) for d in workload.output_dims
        )
        self._conditions = {c.name: c for c in workload.join_conditions}
        #: query name -> bit position, for lineage masks.
        self.query_bits = {q.name: i for i, q in enumerate(workload)}
        # Per-row selection lineage, evaluated once per base table
        # (Section 6's cell query-lineage at tuple granularity).
        if any(q.has_filters for q in workload):
            self._sel_left = selection_bitmasks(workload, left, "left")
            self._sel_right = selection_bitmasks(workload, right, "right")
            self.stats.record_join_probes(left.cardinality + right.cardinality)
        else:
            self._sel_left = None
            self._sel_right = None

    def _build_side(
        self, left_cell: CellRange, condition: JoinCondition
    ) -> "tuple[np.ndarray, GroupedBuild | None]":
        """The memoised hash-join build side of one (cell, condition)."""
        cache_key = (left_cell.cell_id, condition.name)
        side = self._build_cache.get(cache_key)
        if side is None:
            left_values = np.asarray(
                condition.left_values(self.left)[left_cell.indices]
            )
            side = (left_values, build_grouped(left_values))
            self._build_cache[cache_key] = side
        return side

    def _join_cells(
        self,
        left_cell: CellRange,
        right_cell: CellRange,
        condition: JoinCondition,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:func:`join_cell_pair` with the build side served from cache."""
        # The virtual clock still pays for both scans every time — the cache
        # elides repeated Python work, not modelled algorithm cost.
        self.stats.record_join_probes(left_cell.size + right_cell.size)
        left_values, grouped = self._build_side(left_cell, condition)
        right_values = condition.right_values(self.right)[right_cell.indices]
        local = (
            probe_grouped(grouped, right_values) if grouped is not None else None
        )
        if local is None:
            # Keys outside the kernel's domain on either side (NaN,
            # non-numeric): the bucket loop is the only path for them.
            local = bucket_join(left_values, right_values)
        left_local, right_local = local
        return (
            np.asarray(left_cell.indices, dtype=np.intp)[left_local],
            np.asarray(right_cell.indices, dtype=np.intp)[right_local],
        )

    def process(
        self,
        region: OutputRegion,
        left_cell: CellRange,
        right_cell: CellRange,
    ) -> RegionOutcome:
        """Join, project, and insert one region's tuples into the shared plan."""
        if region.is_discarded:
            raise ExecutionError(f"region #{region.region_id} was discarded")
        if self.fault_hook is not None:
            self.fault_hook(region)
        self.stats.record_region_processed(region.region_id)
        condition = self._conditions[region.condition_name]
        left_idx, right_idx = self._join_cells(left_cell, right_cell, condition)
        # Selection pushdown: drop join pairs that no query's filters accept
        # before paying materialisation.
        if self._sel_left is not None and len(left_idx):
            tuple_masks = (
                region.active_rql
                & self._sel_left[left_idx]
                & self._sel_right[right_idx]
            )
            keep = tuple_masks != 0
            left_idx, right_idx = left_idx[keep], right_idx[keep]
            tuple_masks = tuple_masks[keep]
        else:
            tuple_masks = np.full(len(left_idx), region.active_rql, dtype=np.int64)
        outcome = RegionOutcome(region_id=region.region_id, join_count=len(left_idx))
        if len(left_idx) == 0:
            return outcome
        self.stats.record_join_results(
            len(left_idx), mapping_functions=len(self._functions)
        )
        matrix = apply_functions(
            self._functions, self.left, self.right, left_idx, right_idx
        )
        # Insert a region's tuples best-first (ascending coordinate sum, the
        # SFS presort): dominating tuples enter the windows early, so most
        # later tuples are rejected after very few comparisons and eviction
        # churn within the region disappears.
        self.stats.clock.charge_sort(len(matrix))
        order = np.argsort(matrix.sum(axis=1), kind="stable")
        # Columnar commit (docs/ARCHITECTURE.md §11): identity-column append,
        # array-native plan walk, and per-query set algebra.  Within one
        # batch a key's admission always precedes any eviction of it (only
        # later inserts evict) and each happens at most once per query, so
        # the keys still current / newly invalid after the whole region
        # are exactly ``admitted - evicted`` / ``evicted - admitted`` over
        # the batch totals.
        sorted_matrix = matrix[order]
        keys = self.store.add_batch(
            left_idx[order], right_idx[order], sorted_matrix, region.region_id
        )
        outcome.inserted_keys = keys
        base = keys[0]
        admitted_rows, evicted_keys = self.plan.insert_batch_columnar(
            keys, sorted_matrix, tuple_masks[order]
        )
        for query in self.workload:
            name = query.name
            rows = admitted_rows.get(name)
            adm = set((rows + base).tolist()) if rows is not None else set()
            evi = set(evicted_keys.get(name, ()))
            outcome.admitted[name] = [
                k
                for k in sorted(adm - evi)
                if self.plan.is_candidate(name, k)
            ]
            outcome.evicted[name] = sorted(evi - adm)
        outcome.matrix = sorted_matrix
        outcome.key_base = base
        return outcome


__all__ = [
    "JoinResultStore",
    "RegionExecutor",
    "RegionOutcome",
    "ResultIdentity",
    "join_cell_pair",
]
