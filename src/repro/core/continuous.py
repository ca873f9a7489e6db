"""Continuous CAQE: contract-driven processing over growing base tables.

The paper processes a finite input; its motivating applications (stock
tickers, travel feeds) are append-only streams.  This module provides the
natural extension: an epoch-based engine that accepts batches of new base
tuples and maintains every query's skyline incrementally on one
persistent shared plan and result store.

Semantics per epoch:

* the *delta join* — new-left x all-right plus old-left x new-right — goes
  through :class:`~repro.core.caqe.CAQE`'s MQLA stage, and the epoch is a
  :class:`~repro.core.caqe.LiveRun` over its regions: Algorithm 1's CSM
  ranking, dependency graph, coarse pruning, tuple-level discard,
  feedback, retry / quarantine and journal, unchanged.  A skyline does
  not depend on insertion order, so the order moves timestamps and
  charges, never the result sets;
* **new results**: what the epoch's run reported progressively — a
  candidate is emitted, and timestamped, once no remaining region of the
  epoch can dominate it;
* **retractions**: previously reported results dominated by newer data.
  Finite-input CAQE never retracts (it only reports finalised results); a
  stream cannot offer that guarantee, so consumers receive a changelog.

Invariant (verified by the tests): after any number of epochs, for every
query ``reported-so-far minus retracted`` equals the reference skyline of
the cumulative tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.contracts.base import Contract
from repro.contracts.score import ResultLog
from repro.core.caqe import (
    CAQE,
    CAQEConfig,
    LiveRun,
    _restore_run_state,
    check_workload_shape,
    partition_attrs,
)
from repro.core.executor import JoinResultStore
from repro.core.stats import ExecutionStats
from repro.errors import DurabilityError, ExecutionError
from repro.partition.quadtree import (
    Partitioning,
    partitioning_of,
    quadtree_partition,
)
from repro.plan.shared_plan import WorkloadPlan
from repro.query.workload import Workload
from repro.relation import Relation, concat
from repro.robustness.recovery import RegionSupervisor
from repro.robustness.sanitize import QuarantineReport, sanitize_relation

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.durability.runtime import RunDurability


@dataclass
class EpochResult:
    """Changelog for one processed epoch."""

    epoch: int
    #: Per query: result identities newly reported this epoch.
    new_results: "dict[str, set[tuple[int, int]]]"
    #: Per query: previously reported identities retracted this epoch.
    retracted: "dict[str, set[tuple[int, int]]]"
    virtual_time: float
    #: Failed region evaluations retried this epoch (recovery layer).
    region_retries: int = 0
    #: Regions that exhausted their retries and were quarantined.
    regions_quarantined: int = 0

    def net_change(self, query_name: str) -> int:
        return len(self.new_results[query_name]) - len(self.retracted[query_name])


class _EpochJournal:
    """The run's one journal as an epoch's :class:`LiveRun` sees it.

    Each region record is tagged with its epoch and snapshotted as engine
    state plus run state; :meth:`close` leaves the journal open for the
    next epoch (:meth:`ContinuousCAQE.close` owns it).
    """

    def __init__(
        self, engine: "ContinuousCAQE", durability: "RunDurability"
    ) -> None:
        self._engine = engine
        self._durability = durability

    def on_region_complete(
        self,
        record: "dict[str, Any]",
        dump_run: "Callable[[], dict[str, Any]]",
    ) -> None:
        engine = self._engine
        self._durability.on_region_complete(
            {**record, "epoch": engine._epoch},
            lambda: engine._dump_state(dump_run()),
        )

    def close(self) -> None:
        pass


class ContinuousCAQE:
    """Epoch-based contract-driven execution over append-only tables."""

    def __init__(
        self,
        workload: Workload,
        contracts: "dict[str, Contract]",
        config: "CAQEConfig | None" = None,
        *,
        _fresh: bool = True,
    ) -> None:
        missing = [q.name for q in workload if q.name not in contracts]
        if missing:
            raise ExecutionError(f"missing contracts for queries: {missing}")
        self._cuboid = check_workload_shape(workload)
        self.config = config or CAQEConfig()
        if self.config.query_time_budget is not None:
            # The virtual clock is cumulative across epochs: a budget
            # would lapse once and then degrade every later epoch.
            raise ExecutionError(
                "ContinuousCAQE does not support query_time_budget"
            )
        self.workload = workload
        self.contracts = dict(contracts)
        self._engine = CAQE(self.config)
        self.stats = ExecutionStats.with_cost_model(self.config.cost_model)
        self.plan = WorkloadPlan(
            self._cuboid,
            counter=self.stats.comparison_counter,
            assume_dva=self.config.assume_dva,
        )
        self.store = JoinResultStore()
        self.logs = {q.name: ResultLog(q.name) for q in workload}
        self._reported: dict[str, set[int]] = {q.name: set() for q in workload}
        self._left: "Relation | None" = None
        self._right: "Relation | None" = None
        #: Leaves of the cumulative tables, each delta's appended in turn.
        self._left_part: "Partitioning | None" = None
        self._right_part: "Partitioning | None" = None
        #: Cell ids (left, right) the current epoch appended.
        self._new_cells: "tuple[list[int], list[int]]" = ([], [])
        self._epoch = 0
        #: First region id of the current epoch (ids are unique run-wide).
        self._region_seq = 0
        #: Journal sequence number and fault-decision cursor at the last
        #: epoch boundary; mid-epoch, the epoch's run state carries them.
        self._seq = 0
        self._rng_cursor = 0
        #: ``(region_retries, regions_quarantined)`` when the epoch began.
        self._epoch_base = (0, 0)
        # Robustness layer (docs/ARCHITECTURE.md §9): one supervisor for
        # the whole run, so a region quarantined in one epoch stays out.
        self._supervisor = (
            RegionSupervisor(self.config.retry_policy)
            if self.config.enable_recovery
            else None
        )
        #: Sanitizer reports keyed "side@epochN", only for dirty deltas.
        self.quarantine: dict[str, QuarantineReport] = {}
        # Durability layer (docs/ARCHITECTURE.md §10.5): one journal for
        # every epoch, snapshots on cadence plus at every epoch boundary.
        self._durability: "RunDurability | None" = None
        if self.config.enable_journal and _fresh:
            from repro.durability.journal import (
                RegionJournal,
                continuous_fingerprint,
            )
            from repro.durability.runtime import RunDurability

            directory = self.config.journal_dir
            fingerprint = continuous_fingerprint(self.config, workload)
            self._durability = RunDurability(
                RegionJournal.create(directory, fingerprint),
                directory,
                fingerprint,
                self.config.checkpoint_every_regions,
            )

    def close(self) -> None:
        """Release the journal file handle (no-op when journal is off)."""
        if self._durability is not None:
            self._durability.close()

    # ------------------------------------------------------------------ #
    @property
    def left(self) -> "Relation | None":
        return self._left

    @property
    def right(self) -> "Relation | None":
        return self._right

    def current_skyline(self, query_name: str) -> "set[tuple[int, int]]":
        return self._identities(self.plan.current_skyline(query_name))

    def _identities(self, keys: "Iterable[int]") -> "set[tuple[int, int]]":
        return {self.store.identity(k).as_tuple() for k in keys}

    # ------------------------------------------------------------------ #
    def process_epoch(
        self,
        left_delta: "Relation | None" = None,
        right_delta: "Relation | None" = None,
    ) -> EpochResult:
        """Append deltas, run Algorithm 1 over their join, emit a changelog."""
        if left_delta is None and right_delta is None:
            raise ExecutionError("an epoch needs at least one delta")
        self._epoch += 1
        self._epoch_base = (
            self.stats.region_retries,
            self.stats.regions_quarantined,
        )
        self._new_cells = (
            self._append(left_delta, "left"),
            self._append(right_delta, "right"),
        )
        return self._run_epoch(self._open_epoch())

    def _open_epoch(self) -> "LiveRun | None":
        """The MQLA stage over the epoch's delta join, as a steppable run
        (``None`` while one table is still empty: nothing joins yet)."""
        left_part, right_part = self._left_part, self._right_part
        if self._left is None or self._right is None:
            return None
        if left_part is None or right_part is None:  # set with the relations
            return None
        self.workload.validate(self._left, self._right)
        new_left, new_right = self._new_cells
        rs = self._engine._mqla(
            self.workload,
            self._cuboid,
            self.contracts,
            self.stats,
            self._left,
            self._right,
            left_part,
            right_part,
            self.plan,
            self.store,
            self._supervisor,
            self.quarantine,
            touching=(frozenset(new_left), frozenset(new_right)),
            first_region_id=self._region_seq,
        )
        rs.tracker._logs.update(self.logs)
        rs.seq, rs.rng_cursor = self._seq, self._rng_cursor
        journal = (
            _EpochJournal(self, self._durability)
            if self._durability is not None
            else None
        )
        return LiveRun(self._engine, rs, journal, None)

    def _run_epoch(self, live: "LiveRun | None") -> EpochResult:
        """Drive the epoch's run to completion and emit its changelog."""
        emitted: "dict[str, set[int]]" = {q.name: set() for q in self.workload}
        if live is not None:
            try:
                while not live.done:
                    live.step()
            finally:
                live.close()
            rs = live.rs
            rs.state.assert_drained()
            emitted = rs.state.reported
            self.logs = {q.name: rs.tracker.log(q.name) for q in self.workload}
            self._seq, self._rng_cursor = rs.seq, rs.rng_cursor
            self._region_seq += rs.regions_created
        new_results: dict[str, set[tuple[int, int]]] = {}
        retracted: dict[str, set[tuple[int, int]]] = {}
        for query in self.workload:
            name = query.name
            gone = self._reported[name] - set(self.plan.current_skyline(name))
            new_results[name] = self._identities(emitted[name])
            retracted[name] = self._identities(gone)
            self._reported[name] = (self._reported[name] - gone) | emitted[name]
        retries, quarantined = self._epoch_base
        result = EpochResult(
            epoch=self._epoch,
            new_results=new_results,
            retracted=retracted,
            virtual_time=self.stats.clock.now(),
            region_retries=self.stats.region_retries - retries,
            regions_quarantined=self.stats.regions_quarantined - quarantined,
        )
        self._journal_epoch_end()
        return result

    # -- durability (docs/ARCHITECTURE.md §10.5) -------------------------- #
    def _journal_epoch_end(self) -> None:
        """Journal the epoch boundary and always snapshot it: boundaries
        are the recovery points that need no region replay."""
        self._seq += 1
        if self._durability is None:
            return
        record = {
            "seq": self._seq,
            "epoch": self._epoch,
            "event": "epoch_end",
            "region": -1,
            "rql": 0,
            "comparisons": int(self.stats.skyline_comparisons),
            "clock": float(self.stats.clock.now()),
            "reported": [len(self._reported[q.name]) for q in self.workload],
            "rng": self._rng_cursor,
        }
        self._durability.on_region_complete(record, self._dump_state)
        self._durability.checkpoint_now(self._seq, self._dump_state)

    def _dump_state(self, run: "dict[str, Any] | None" = None) -> "dict":
        """Engine state, plus the epoch run's state when mid-epoch.

        Mid-epoch, ``run`` (:func:`~repro.core.caqe._dump_run_state`)
        carries the shared stats, windows, store, logs and supervisor;
        between epochs they belong to no run and are dumped here.
        """
        from repro.durability import checkpoint as cp

        state: "dict[str, Any]" = {
            "epoch": self._epoch,
            "region_seq": self._region_seq,
            "seq": self._seq,
            "rng": self._rng_cursor,
            "epoch_base": list(self._epoch_base),
            "left": (
                cp.dump_relation(self._left) if self._left is not None else None
            ),
            "right": (
                cp.dump_relation(self._right)
                if self._right is not None
                else None
            ),
            # Cells are stored as ``LeafCell`` records (``dump_cell``) and
            # turned back into arrays on load.
            "left_cells": (
                [cp.dump_cell(c) for c in self._left_part.leaves]
                if self._left_part is not None
                else []
            ),
            "right_cells": (
                [cp.dump_cell(c) for c in self._right_part.leaves]
                if self._right_part is not None
                else []
            ),
            "new_cells": [list(ids) for ids in self._new_cells],
            "reported": {
                name: sorted(keys) for name, keys in self._reported.items()
            },
            "quarantine": cp.dump_quarantine(self.quarantine),
            "run": run,
        }
        if run is None:
            state.update(
                stats=cp.dump_stats(self.stats),
                windows=cp.dump_plan_windows(self.plan),
                store=cp.dump_store(self.store),
                logs=cp.dump_logs(self.logs),
                supervisor=cp.dump_supervisor(self._supervisor),
            )
        return state

    def _restore_state(self, state: "dict") -> None:
        from repro.durability import checkpoint as cp

        if "run" not in state:
            raise DurabilityError(
                "snapshot was written by an older continuous engine - its "
                "journal does not resume"
            )
        self._left = (
            cp.load_relation(state["left"]) if state["left"] is not None else None
        )
        self._right = (
            cp.load_relation(state["right"])
            if state["right"] is not None
            else None
        )
        def arrays_of(
            relation: "Relation | None", cells: "list[dict]", side: str
        ) -> "Partitioning | None":
            if relation is None:
                return None
            leaves = [cp.load_cell(c) for c in cells]
            return partitioning_of(
                relation, leaves, self.workload.join_conditions, side
            )

        self._left_part = arrays_of(self._left, state["left_cells"], "left")
        self._right_part = arrays_of(self._right, state["right_cells"], "right")
        new_left, new_right = state["new_cells"]
        self._new_cells = ([int(i) for i in new_left], [int(i) for i in new_right])
        self._reported = {
            name: {int(k) for k in keys}
            for name, keys in state["reported"].items()
        }
        self.quarantine = cp.load_quarantine(state["quarantine"])
        self._epoch = int(state["epoch"])
        self._region_seq = int(state["region_seq"])
        self._seq = int(state["seq"])
        self._rng_cursor = int(state["rng"])
        retries, quarantined = state["epoch_base"]
        self._epoch_base = (int(retries), int(quarantined))
        if state["run"] is None:
            cp.load_stats(self.stats, state["stats"])
            cp.load_plan_windows(self.plan, state["windows"])
            cp.load_store(self.store, state["store"])
            self.logs = cp.load_logs(state["logs"])
            cp.load_supervisor(self._supervisor, state["supervisor"])

    @classmethod
    def resume(
        cls,
        workload: Workload,
        contracts: "dict[str, Contract]",
        config: "CAQEConfig",
    ) -> "tuple[ContinuousCAQE, EpochResult | None]":
        """Reconstruct a killed continuous run from its journal directory.

        Returns ``(engine, epoch_result)`` where ``epoch_result`` is the
        changelog of the epoch the crash interrupted, or ``None`` when the
        newest snapshot is an epoch boundary.  An interrupted epoch is
        finished the way :func:`~repro.durability.resume_run` finishes a
        batch run: its MQLA stage is re-run from the snapshot's cells, the
        run state restored, and the journalled regions replayed with
        verification.  Records of later epochs stay queued: re-feed the
        same deltas and they verify record for record
        (:class:`~repro.errors.ResumeMismatch` on any divergence).
        """
        from repro.durability.journal import continuous_fingerprint
        from repro.durability.recover import load_resume_state
        from repro.durability.runtime import RunDurability

        engine = cls(workload, contracts, config, _fresh=False)
        fingerprint = continuous_fingerprint(config, workload)
        resume = load_resume_state(config, fingerprint)
        engine._durability = RunDurability(
            resume.journal,
            config.journal_dir,
            fingerprint,
            config.checkpoint_every_regions,
            resume.expected,
        )
        if resume.snapshot is None:
            return engine, None
        state = resume.snapshot["state"]
        try:
            engine._restore_state(state)
        except DurabilityError:
            engine.close()
            raise
        if state["run"] is None:
            return engine, None
        live = engine._open_epoch()
        _restore_run_state(live.rs, state["run"])
        return engine, engine._run_epoch(live)

    # ------------------------------------------------------------------ #
    def _append(self, delta: "Relation | None", side: str) -> "list[int]":
        """Input stage: sanitise, partition and append one delta; returns
        the ids of the cells it added."""
        if delta is None or delta.cardinality == 0:
            return []
        if self.config.enable_sanitize:
            delta, report = sanitize_relation(delta)
            if report:
                self.quarantine[f"{side}@epoch{self._epoch}"] = report
                self.stats.record_tuples_quarantined(report.rows_dropped)
            if delta.cardinality == 0:
                return []
        current = self._left if side == "left" else self._right
        offset = current.cardinality if current is not None else 0
        merged = delta if current is None else concat(current.name, [current, delta])
        part = quadtree_partition(
            delta,
            partition_attrs(self.workload, side) or delta.schema.measure_names,
            self.workload.join_conditions,
            side,
            capacity=self.config.capacity_for(delta.cardinality),
            split=self.config.partition_split,
        )
        current_part = self._left_part if side == "left" else self._right_part
        if current_part is None:
            merged_part, first_id = part, 0
        else:
            merged_part = current_part.extended(part, offset)
            first_id = current_part.cell_count
        if side == "left":
            self._left, self._left_part = merged, merged_part
        else:
            self._right, self._right_part = merged, merged_part
        return list(range(first_id, merged_part.cell_count))


__all__ = ["ContinuousCAQE", "EpochResult"]
