"""The CAQE framework driver (Sections 4–6, Algorithm 1).

:class:`CAQE` wires the whole pipeline together for one workload run:

1. partition both input tables into quad-tree leaf cells (Section 5.1);
2. build the shared min-max cuboid plan (Section 4.1);
3. MQLA: coarse join (signatures) and coarse skyline (region dominance)
   to produce output regions annotated with query lineage (Section 5);
4. build the dependency graph (Definition 9) and the CSM benefit model;
5. iterate Algorithm 1: pick the root region with the highest CSM,
   process it at tuple level on the shared plan, discard regions its
   results dominate, progressively report results that can no longer be
   dominated, and update query weights from run-time satisfaction
   (Equation 11).

Steps 1–4 are :meth:`CAQE.open_run`'s prologue; step 5, with its
per-region bookkeeping, runs on the :class:`LiveRun` it returns.

Every optimisation the paper describes can be toggled off through
:class:`CAQEConfig` for the ablation benches (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.contracts.base import Contract
from repro.contracts.score import ResultLog, SatisfactionTracker
from repro.core.benefit import BenefitModel
from repro.core.clock import CostModel
from repro.core.coarse_join import coarse_join
from repro.core.coarse_skyline import coarse_skyline
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.executor import JoinResultStore, RegionExecutor, RegionOutcome
from repro.core.feedback import update_weights
from repro.core.output_space import DEFAULT_DIVISIONS
from repro.core.region import OutputRegion, RegionTable
from repro.core.stats import ExecutionStats
from repro.errors import (
    BudgetExhausted,
    ExecutionError,
    QueryCancelled,
    RegionFailure,
)
from repro.partition.quadtree import Partitioning, quadtree_partition
from repro.plan.minmax_cuboid import MinMaxCuboid, build_minmax_cuboid
from repro.plan.shared_plan import WorkloadPlan
from repro.query.workload import Workload
from repro.relation import Relation
from repro.robustness.faults import FaultPlan
from repro.robustness.recovery import (
    REASON_BUDGET,
    REASON_QUARANTINE,
    RETRY,
    DegradedReport,
    RegionSupervisor,
    RetryPolicy,
)
from repro.robustness.sanitize import (
    QuarantineReport,
    sanitize_relation,
)
from repro.skyline.dominance import (
    MAX_CODE_DIMS,
    dominance_mask,
    subspace_table,
    subspace_union,
)
from repro.skyline.estimate import buchta_skyline_size


@dataclass(frozen=True)
class CAQEConfig:
    """Tunables and ablation switches for a CAQE run."""

    #: Output-grid resolution per dimension (Section 5's output cells).
    divisions: int = DEFAULT_DIVISIONS
    #: Target leaf-cell count per table; the quad-tree capacity is derived
    #: as ``ceil(cardinality / target_cells)``.
    target_cells: int = 16
    #: Input-tree split policy: "quad" (paper's 2^d midpoint split) or
    #: "kd" (binary median splits; balanced leaves — ablation option).
    partition_split: str = "quad"
    cost_model: CostModel = field(default_factory=CostModel)
    #: Seed CSM weights with the experiment's query priorities instead of
    #: the paper's uniform ``w_i = 1``.
    use_priority_weights: bool = True
    #: Equation 11 run-time re-weighting (ablation: static weights).
    enable_feedback: bool = True
    #: Definition 9 scheduling constraints (ablation: all regions rootable).
    enable_depgraph: bool = True
    #: Coarse-skyline region pruning (ablation: keep every region).
    enable_coarse_pruning: bool = True
    #: Tuple-level discarding of dominated regions (Section 6).
    enable_tuple_discard: bool = True
    #: Theorem 1 shortcut in the shared plan (valid under DVA data).
    assume_dva: bool = True
    #: Region-scheduling objective: ``"contract"`` is CAQE's CSM
    #: (Equation 8); ``"count"`` maximises estimated result count (the
    #: count-driven policy of ProgXe+); ``"scan"`` processes regions in
    #: creation order (the S-JFSL pipeline).
    objective: str = "contract"
    #: Robustness layer (docs/ARCHITECTURE.md §9).  All default-off: a run
    #: with every switch at its default is bit-identical to a build
    #: without the layer (the 4-corner equivalence suite pins this down).
    #: Validate measure columns and quarantine NaN/inf/out-of-domain
    #: tuples before partitioning.
    enable_sanitize: bool = False
    #: Region-level retry with backoff + quarantine of repeat offenders.
    enable_recovery: bool = False
    #: Backoff shape used when ``enable_recovery`` is on.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-query virtual-time budget; when the clock passes it, the
    #: query's remaining regions are answered from coarse MQLA bounds
    #: (graceful degradation).  ``None`` disables the budget.
    query_time_budget: "float | None" = None
    #: Deterministic fault-injection plan (chaos testing only).
    fault_plan: "FaultPlan | None" = None
    #: Durability layer (docs/ARCHITECTURE.md §10).  All default-off and
    #: bit-identical when off (6th corner of the equivalence suite).
    #: Write a fsync'd journal record after every completed region and
    #: periodic full snapshots, making the run resumable after SIGKILL.
    enable_journal: bool = False
    #: Directory holding the journal and snapshot files (required when
    #: ``enable_journal`` is on; one directory per run).
    journal_dir: "str | None" = None
    #: Full-snapshot cadence, in completed regions.
    checkpoint_every_regions: int = 25
    #: Serving layer (:mod:`repro.serving`).  Bound on *live* (admitted,
    #: unfinished) submissions: those beyond it are shed with ``Rejected``.
    server_queue_limit: int = 16
    #: Consecutive quarantine-failures of one workload signature that
    #: trip its circuit breaker open.
    server_breaker_threshold: int = 3
    #: Rejected submissions an open breaker absorbs before allowing a
    #: half-open trial (event-count cooldown — wall clocks are banned).
    server_breaker_cooldown: int = 8
    #: The one residue of the removed worker pool: always ``0`` (the
    #: serial engine); any other value is rejected.
    workers: int = 0
    #: Scheduling policy of :class:`~repro.serving.CAQEServer`'s region
    #: scheduler (docs/ARCHITECTURE.md §10.6, §13).  ``"fifo"`` serves
    #: whole runs in arrival order; ``"interleaved"`` multiplexes live
    #: submissions region by region under the cross-tenant benefit ranking.
    server_mode: str = "fifo"
    #: Weight of the deficit term in the cross-tenant benefit score
    #: (0 disables fairness pressure — pure benefit greedy).
    tenant_fairness_pressure: float = 0.05
    #: Brownout ladder (total live submissions at which each rung engages):
    #: rung 1 defers non-top-tier regions, rung 2 degrades the youngest
    #: low-tier submission to MQLA bounds, rung 3 sheds new low-tier
    #: submissions with an explicit ``Rejected``.
    tenant_brownout_defer_live: int = 8
    tenant_brownout_degrade_live: int = 12
    tenant_brownout_shed_live: int = 16

    def __post_init__(self) -> None:
        if self.objective not in ("contract", "count", "scan"):
            raise ExecutionError(
                f"unknown objective {self.objective!r}; "
                "expected 'contract', 'count', or 'scan'"
            )
        if self.partition_split not in ("quad", "kd"):
            raise ExecutionError(
                f"unknown partition_split {self.partition_split!r}; "
                "expected 'quad' or 'kd'"
            )
        if self.query_time_budget is not None and self.query_time_budget <= 0:
            raise ExecutionError(
                f"query_time_budget must be positive, got "
                f"{self.query_time_budget}"
            )
        if self.enable_journal and not self.journal_dir:
            raise ExecutionError(
                "enable_journal=True requires journal_dir to be set"
            )
        if self.checkpoint_every_regions < 1:
            raise ExecutionError(
                f"checkpoint_every_regions must be >= 1, got "
                f"{self.checkpoint_every_regions}"
            )
        # Serving/tenant knobs raise ValueError (plain misconfiguration,
        # caught before any engine machinery exists) rather than the
        # engine's ExecutionError.
        for knob in (
            "server_queue_limit",
            "server_breaker_threshold",
            "server_breaker_cooldown",
            "tenant_brownout_defer_live",
            "tenant_brownout_degrade_live",
            "tenant_brownout_shed_live",
        ):
            value = getattr(self, knob)
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 1
            ):
                raise ValueError(
                    f"{knob} must be an integer >= 1, got {value!r}"
                )
        if self.server_mode not in ("fifo", "interleaved"):
            raise ValueError(
                f"unknown server_mode {self.server_mode!r}; "
                "expected 'fifo' or 'interleaved'"
            )
        if not (0.0 <= float(self.tenant_fairness_pressure) < float("inf")):
            raise ValueError(
                f"tenant_fairness_pressure must be finite and >= 0, got "
                f"{self.tenant_fairness_pressure}"
            )
        if not (
            self.tenant_brownout_defer_live
            <= self.tenant_brownout_degrade_live
            <= self.tenant_brownout_shed_live
        ):
            raise ValueError(
                "brownout ladder must be ordered defer <= degrade <= shed, "
                f"got {self.tenant_brownout_defer_live} / "
                f"{self.tenant_brownout_degrade_live} / "
                f"{self.tenant_brownout_shed_live}"
            )
        if self.workers != 0:
            raise ExecutionError(
                f"workers must be 0 (the worker pool was removed), "
                f"got {self.workers}"
            )

    def capacity_for(self, cardinality: int) -> int:
        # A 2x headroom keeps the quad-tree from over-splitting skewed
        # quadrants far beyond the requested cell budget.
        return max(1, -(-2 * cardinality // max(self.target_cells, 1)))


@dataclass
class RunResult:
    """Everything a CAQE (or baseline) run produces."""

    workload: Workload
    contracts: "dict[str, Contract]"
    logs: "dict[str, ResultLog]"
    stats: ExecutionStats
    horizon: float
    #: Per query: reported result identities as (left_row, right_row) pairs.
    reported: "dict[str, set[tuple[int, int]]]"
    #: Per query: approximate answers issued under graceful degradation
    #: (coarse MQLA bounds of regions never processed at tuple level).
    #: Empty in healthy runs.
    degraded: "dict[str, list[DegradedReport]]" = field(default_factory=dict)
    #: Per input side ("left"/"right"): the sanitizer's quarantine report,
    #: present only when tuples were actually quarantined.
    quarantine: "dict[str, QuarantineReport]" = field(default_factory=dict)

    def is_degraded(self, query_name: str) -> bool:
        """True iff part of this query's answer is approximate."""
        return bool(self.degraded.get(query_name))

    def satisfaction(self, query_name: str) -> float:
        log = self.logs[query_name]
        return self.contracts[query_name].satisfaction(
            log.timestamps, float(len(log)), self.horizon
        )

    def average_satisfaction(self) -> float:
        values = [self.satisfaction(q.name) for q in self.workload]
        return float(np.mean(values)) if values else 0.0

    def total_pscore(self) -> float:
        return float(
            sum(
                self.contracts[q.name].pscore(
                    self.logs[q.name].timestamps, float(len(self.logs[q.name]))
                )
                for q in self.workload
            )
        )


def _gather_vectors(outcome: RegionOutcome, keys: "Sequence[int]") -> np.ndarray:
    """Output vectors of ``keys`` (all from ``outcome``'s region): one fancy
    index into the region's row-aligned matrix."""
    return outcome.matrix[np.asarray(keys, dtype=np.intp) - outcome.key_base]


def check_output_width(workload: Workload) -> None:
    """Reject a workload whose shared output space is wider than region
    dominance is coded for (``MAX_CODE_DIMS`` attributes): the coarse
    skyline, the dependency graph and the discard step compare regions
    on every output dimension at once."""
    width = len(workload.output_dims)
    if width > MAX_CODE_DIMS:
        raise ExecutionError(
            f"CAQE compares regions over at most {MAX_CODE_DIMS} output "
            f"dimensions; the workload has {width}"
        )


#: Queries one run serves: a region's lineage, a cuboid node's ``qserve``
#: and the benefit model's query masks carry one bit per query in an int64
#: (bit 63 is the sign, so query 64 has no bit).
MAX_QUERIES = 63
#: Cuboid nodes one shared plan holds: its admitted-bits column carries one
#: bit per node in an int64 word.
MAX_CUBOID_NODES = 64


def check_workload_shape(workload: Workload) -> MinMaxCuboid:
    """Refuse a workload wider than the engine's bitmaps, before any work,
    and return its min-max cuboid: at most ``MAX_CODE_DIMS`` output
    dimensions (:func:`check_output_width`), ``MAX_QUERIES`` queries and
    ``MAX_CUBOID_NODES`` cuboid nodes."""
    check_output_width(workload)
    if len(workload) > MAX_QUERIES:
        raise ExecutionError(
            f"CAQE runs at most {MAX_QUERIES} queries at once; "
            f"the workload has {len(workload)}"
        )
    cuboid = build_minmax_cuboid(workload)
    if len(cuboid) > MAX_CUBOID_NODES:
        raise ExecutionError(
            f"CAQE shares at most {MAX_CUBOID_NODES} cuboid nodes; "
            f"the workload's min-max cuboid has {len(cuboid)}"
        )
    return cuboid


def partition_attrs(workload: Workload, side: str) -> "tuple[str, ...]":
    """Input attributes (per side) that feed the workload's output dims."""
    seen: dict[str, None] = {}
    for dim in workload.output_dims:
        fn = workload.function_for(dim)
        inputs = fn.left_inputs if side == "left" else fn.right_inputs
        for attr in inputs:
            seen.setdefault(attr, None)
    return tuple(seen)


@dataclass
class _RunState:
    """Mutable state of one in-flight :class:`CAQE` run.

    Bundles everything Algorithm 1's loop touches so the durability layer
    can snapshot it (:func:`_dump_run_state`) and a resumed run can
    overwrite it (:func:`_restore_run_state`).  Fields hold the
    post-corruption / post-sanitisation inputs — the versions the
    executor actually reads.
    """

    workload: Workload
    contracts: "dict[str, Contract]"
    left: Relation
    right: Relation
    stats: ExecutionStats
    plan: WorkloadPlan
    cuboid: "MinMaxCuboid"
    #: Regions the coarse join created, discarded ones included — the
    #: width of the run's region-id range.
    regions_created: int
    alive: "dict[int, OutputRegion]"
    graph: DependencyGraph
    benefit: BenefitModel
    estimates: "dict[str, float]"
    tracker: SatisfactionTracker
    weights: np.ndarray
    state: "_ReportingState"
    supervisor: "RegionSupervisor | None"
    degraded: "dict[str, list[DegradedReport]]"
    degraded_queries: "set[int]"
    #: The two sides' leaves; the executor reads a region's cells here.
    left_part: Partitioning
    right_part: Partitioning
    quarantine: "dict[str, QuarantineReport]"
    fault_plan: "FaultPlan | None"
    executor: "RegionExecutor | None" = None
    #: Journal sequence number of the last completed region.
    seq: int = 0
    #: Fault-plan decisions consulted so far.  The plan itself is
    #: stateless (hash-based, order-independent); the cursor is recorded
    #: in journal records so resume verification catches any divergence
    #: in the fault-decision schedule.
    rng_cursor: int = 0
    #: Reason stamped on budget-driven degraded reports.  The serving
    #: layer maps virtual deadlines onto ``query_time_budget`` and passes
    #: ``"deadline"`` here so callers can tell a tenant deadline from an
    #: engine-level budget without re-deriving the mapping.
    budget_reason: str = REASON_BUDGET


class CAQE:
    """Contract-Aware Query Execution over one pair of base tables."""

    name = "CAQE"

    def __init__(self, config: "CAQEConfig | None" = None) -> None:
        self.config = config or CAQEConfig()

    # ------------------------------------------------------------------ #
    def run(
        self,
        left: Relation,
        right: Relation,
        workload: Workload,
        contracts: "dict[str, Contract]",
        stats: "ExecutionStats | None" = None,
        *,
        cancel_token: "object | None" = None,
        _resume: "object | None" = None,
        build_cache: "dict | None" = None,
        budget_reason: str = REASON_BUDGET,
    ) -> RunResult:
        """Execute the workload; ``stats`` may be shared across runs so
        baselines that process queries sequentially accumulate one clock.

        ``cancel_token`` is any object exposing ``is_cancelled() -> bool``;
        it is polled at every region boundary and a true answer raises
        :class:`~repro.errors.QueryCancelled` (the serving layer's
        cooperative cancellation).  ``_resume`` is internal — use
        :func:`repro.durability.resume_run`.

        ``build_cache`` optionally shares the executor's hash-join build
        tables across runs of identical shape.
        """
        live = self.open_run(
            left,
            right,
            workload,
            contracts,
            stats,
            cancel_token=cancel_token,
            _resume=_resume,
            build_cache=build_cache,
            budget_reason=budget_reason,
        )
        try:
            while not live.done:
                live.step()
        finally:
            live.close()
        return live.finalize()

    def open_run(
        self,
        left: Relation,
        right: Relation,
        workload: Workload,
        contracts: "dict[str, Contract]",
        stats: "ExecutionStats | None" = None,
        *,
        cancel_token: "object | None" = None,
        _resume: "object | None" = None,
        build_cache: "dict | None" = None,
        budget_reason: str = REASON_BUDGET,
    ) -> "LiveRun":
        """Prepare a workload and hand back a region-steppable handle.

        This is :meth:`run`'s prologue without its loop: the returned
        :class:`LiveRun` exposes ``step()`` (one Algorithm 1 iteration),
        so an external driver — the multi-tenant region scheduler — can
        suspend and resume the run between regions.  ``run()`` itself is
        just ``while not live.done: live.step()``, which is what pins the
        two control flows to bit-identical observables.
        """
        cfg = self.config
        workload.validate(left, right)
        missing = [q.name for q in workload if q.name not in contracts]
        if missing:
            raise ExecutionError(f"missing contracts for queries: {missing}")
        cuboid = check_workload_shape(workload)
        if stats is None:
            stats = ExecutionStats.with_cost_model(cfg.cost_model)

        rs = self._prepare(
            left, right, workload, cuboid, contracts, stats,
            build_cache=build_cache,
        )
        rs.budget_reason = budget_reason

        durability = None
        if cfg.enable_journal:
            # Function-level imports break the package cycle with
            # repro.durability.recover (which needs this module) and keep
            # the journal-off hot path import-free.
            from repro.durability.journal import RegionJournal, run_fingerprint
            from repro.durability.runtime import RunDurability

            # Fingerprint over the *original* inputs: fault corruption and
            # sanitisation are deterministic stages of the run itself, so
            # run identity is defined before either applies.
            fingerprint = run_fingerprint(cfg, left, right, workload)
            if _resume is not None:
                if _resume.snapshot is not None:
                    _restore_run_state(rs, _resume.snapshot["state"])
                durability = RunDurability(
                    _resume.journal,
                    cfg.journal_dir,
                    fingerprint,
                    cfg.checkpoint_every_regions,
                    list(_resume.expected),
                )
            else:
                journal = RegionJournal.create(cfg.journal_dir, fingerprint)
                durability = RunDurability(
                    journal,
                    cfg.journal_dir,
                    fingerprint,
                    cfg.checkpoint_every_regions,
                )
        elif _resume is not None:
            raise ExecutionError("resuming a run requires enable_journal=True")

        return LiveRun(self, rs, durability, cancel_token)

    # ------------------------------------------------------------------ #
    def _prepare(
        self,
        left: Relation,
        right: Relation,
        workload: Workload,
        cuboid: MinMaxCuboid,
        contracts: "dict[str, Contract]",
        stats: ExecutionStats,
        build_cache: "dict | None" = None,
    ) -> _RunState:
        """The deterministic prologue — everything before Algorithm 1's
        loop: the input stage (fault corruption, sanitisation, quad-tree
        partitioning), then :meth:`_mqla` over a fresh plan, store and
        supervisor.  A resumed run re-executes this from the original
        inputs and then overwrites the mutable pieces from the snapshot
        (restoring the stats/clock last erases the prologue's
        re-charges)."""
        cfg = self.config
        conditions = workload.join_conditions

        # -- Robustness preamble (docs/ARCHITECTURE.md §9) ---------------- #
        # Fault injection corrupts the inputs *before* sanitisation so the
        # quarantine path is exercised exactly as a bad upstream feed would.
        fault_plan = cfg.fault_plan
        if fault_plan is not None and fault_plan.active:
            left, right, _injected = fault_plan.corrupt_pair(left, right)
            # Injected/sanitised inputs invalidate any cross-run caches
            # keyed on the original relations.
            build_cache = None
        quarantine: "dict[str, QuarantineReport]" = {}
        if cfg.enable_sanitize:
            build_cache = None
            left, left_report = sanitize_relation(left)
            right, right_report = sanitize_relation(right)
            for side, report in (("left", left_report), ("right", right_report)):
                if report:
                    quarantine[side] = report
                    stats.record_tuples_quarantined(report.rows_dropped)

        # -- Step 0: input partitioning ---------------------------------- #
        left_attrs = partition_attrs(workload, "left") or left.schema.measure_names
        right_attrs = partition_attrs(workload, "right") or right.schema.measure_names
        left_part = quadtree_partition(
            left, left_attrs, conditions, "left",
            capacity=cfg.capacity_for(left.cardinality),
            split=cfg.partition_split,
        )
        right_part = quadtree_partition(
            right, right_attrs, conditions, "right",
            capacity=cfg.capacity_for(right.cardinality),
            split=cfg.partition_split,
        )
        # Tuple-level skyline state is grouped by (join condition,
        # selections) — see WorkloadPlan.
        plan = WorkloadPlan(
            cuboid,
            counter=stats.comparison_counter,
            assume_dva=cfg.assume_dva,
        )
        supervisor = (
            RegionSupervisor(cfg.retry_policy) if cfg.enable_recovery else None
        )
        return self._mqla(
            workload, cuboid, contracts, stats, left, right, left_part,
            right_part, plan, JoinResultStore(), supervisor, quarantine,
            build_cache=build_cache,
        )

    def _mqla(
        self,
        workload: Workload,
        cuboid: MinMaxCuboid,
        contracts: "dict[str, Contract]",
        stats: ExecutionStats,
        left: Relation,
        right: Relation,
        left_part: Partitioning,
        right_part: Partitioning,
        plan: WorkloadPlan,
        store: JoinResultStore,
        supervisor: "RegionSupervisor | None",
        quarantine: "dict[str, QuarantineReport]",
        *,
        build_cache: "dict | None" = None,
        touching: "tuple[frozenset[int], frozenset[int]] | None" = None,
        first_region_id: int = 0,
    ) -> _RunState:
        """MQLA (Section 5) over given partitionings, and the loop state
        around it, with the executor committing into the given plan,
        store and supervisor.

        The continuous engine runs this stage alone for each epoch, on
        its persistent plan and store: ``touching`` restricts the coarse
        join to the cell pairs touching the epoch's new cells, and
        ``first_region_id`` keeps region ids unique across epochs.
        """
        cfg = self.config
        fault_plan = cfg.fault_plan

        # -- Step 1, the shared min-max cuboid, came from the caller's
        # check_workload_shape; it drives the region-level machinery
        # (coarse skyline, benefit model, reporting).

        # -- Step 2: MQLA ------------------------------------------------- #
        cj = coarse_join(
            workload, left_part, right_part, stats,
            divisions=cfg.divisions, touching=touching,
            first_region_id=first_region_id,
        )
        table = cj.regions
        if cfg.enable_coarse_pruning:
            coarse_skyline(workload, cuboid, table, stats)
        # Only the regions the coarse skyline kept become objects.
        survivors = np.flatnonzero(table.active_rql != 0)
        alive: dict[int, OutputRegion] = {
            r.region_id: r for r in table.materialise(survivors)
        }

        # -- Step 3: dependency graph + benefit model --------------------- #
        if cfg.enable_depgraph:
            graph = build_dependency_graph(workload, cuboid, table, cj.grid, stats)
        else:
            graph = DependencyGraph.from_edges(
                table.region_id[survivors],
                np.zeros((len(survivors), len(survivors)), dtype=np.int64),
            )
        benefit = BenefitModel(
            workload, cuboid, cj.grid, contracts, cfg.cost_model
        )
        benefit.attach_regions(table)
        estimates = self._result_estimates(workload, cuboid, table)
        benefit.set_result_estimates(estimates)
        tracker = SatisfactionTracker(contracts, estimates)

        weights = np.array(
            [q.priority if cfg.use_priority_weights else 1.0 for q in workload]
        )

        # -- Step 4: assemble the mutable loop state ---------------------- #
        rs = _RunState(
            workload=workload,
            contracts=contracts,
            left=left,
            right=right,
            stats=stats,
            plan=plan,
            cuboid=cuboid,
            regions_created=len(table),
            alive=alive,
            graph=graph,
            benefit=benefit,
            estimates=estimates,
            tracker=tracker,
            weights=weights,
            state=_ReportingState(workload, cuboid, tracker, stats, store),
            supervisor=supervisor,
            degraded={q.name: [] for q in workload},
            degraded_queries=set(),
            left_part=left_part,
            right_part=right_part,
            quarantine=quarantine,
            fault_plan=fault_plan,
        )
        fault_hook = None
        if fault_plan is not None and fault_plan.active:

            def fault_hook(target: OutputRegion) -> None:
                attempt = (
                    supervisor.next_attempt(target.region_id)
                    if supervisor is not None
                    else 1
                )
                rs.rng_cursor += 1
                if fault_plan.region_fails(target.region_id, attempt):
                    raise RegionFailure(
                        target.region_id, attempt, "injected fault"
                    )

        rs.executor = RegionExecutor(
            workload,
            left,
            right,
            plan,
            store,
            stats,
            fault_hook=fault_hook,
            build_cache=build_cache,
        )
        return rs

    # ------------------------------------------------------------------ #
    @staticmethod
    def _result_estimates(
        workload: Workload,
        cuboid: MinMaxCuboid,
        regions: RegionTable,
    ) -> "dict[str, float]":
        """Estimated final skyline size per query (for N_est in contracts),
        from the estimated joins of the regions serving it."""
        lattice = cuboid.lattice.table
        out: dict[str, float] = {}
        for qi, query in enumerate(workload):
            joins = regions.est_join_count[(regions.active_rql >> qi) & 1 == 1]
            # ``cumsum`` adds left to right, region after region.
            total_join = float(np.cumsum(joins)[-1]) if joins.size else 0.0
            d = lattice.size(cuboid.query_nodes[query.name])
            out[query.name] = max(buchta_skyline_size(total_join, d), 1.0)
        return out


def _degraded_report(
    query_name: str, region: OutputRegion, reason: str, now: float
) -> DegradedReport:
    """Approximate answer from the region's coarse MQLA bounds."""
    return DegradedReport(
        query_name=query_name,
        region_id=region.region_id,
        lower=tuple(float(v) for v in region.lower),
        upper=tuple(float(v) for v in region.upper),
        est_join_count=float(region.est_join_count),
        reason=reason,
        timestamp=now,
    )


class LiveRun:
    """A prepared, region-steppable CAQE run (scheduler-owned control flow).

    :meth:`CAQE.open_run` hands one back; :meth:`step` performs exactly
    one iteration of Algorithm 1's loop — cancellation poll, budget
    degradation, pick, tuple-level processing, discard,
    progressive reporting, feedback — so an external driver can suspend
    the run between regions and interleave many runs over one engine
    host.  ``CAQE.run`` is literally ``while not done: step()``, which
    pins driver-owned and scheduler-owned control flow to bit-identical
    observables.

    The loop's per-region bookkeeping lives here too: a region leaves
    the run only through :meth:`_retire` (or, once processed, through
    :meth:`step` itself), a query leaves a region's lineage only through
    :meth:`_drop_query`, and :meth:`degrade_all` is the one degrade path.
    """

    def __init__(
        self,
        engine: CAQE,
        rs: _RunState,
        durability: "object | None",
        cancel_token: "object | None",
    ) -> None:
        self._engine = engine
        self.rs = rs
        self._durability = durability
        self.cancel_token = cancel_token
        self._closed = False
        self._names = rs.workload.names
        self._qbits = np.arange(len(self._names), dtype=np.int64)
        # Query ``q``'s preference subspace is bit ``q`` of this word.
        self._query_word = subspace_table(
            len(rs.workload.output_dims),
            [sum(1 << p for p in pos) for pos in rs.benefit.query_positions],
        )[0]

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once no region remains — :meth:`finalize` may be called."""
        return not self.rs.alive

    @property
    def now(self) -> float:
        """The run's current virtual-clock reading."""
        return self.rs.stats.clock.now()

    def peek_best_csm(self) -> float:
        """Best root benefit under current weights/clock — this run's bid
        in the cross-tenant region auction (Eq. 8 as the cross-query —
        and hence cross-tenant — currency).

        Read-only: estimates flow through the same memoised benefit
        caches the next :meth:`step` consults and nothing is charged to
        the virtual clock, so peeking never perturbs an observable.
        """
        if not self.rs.alive:
            return 0.0
        scores = self._root_scores()[1]
        return float(scores.max()) if scores.size else 0.0

    def _root_scores(self) -> "tuple[np.ndarray, np.ndarray]":
        """Schedulable root ids, ascending, and each one's score under the
        configured objective — ranked by :meth:`step`, maxed by
        :meth:`peek_best_csm`."""
        rs = self.rs
        root_arr = rs.graph.roots()
        if not root_arr.size:
            root_arr = rs.graph.force_roots()
        objective = self._engine.config.objective
        if objective == "scan" or not root_arr.size:
            # Creation order: every root ties and the ranking's stable
            # sort keeps the ids ascending.
            return root_arr, np.zeros(len(root_arr))
        t_c, prog = rs.benefit.estimate_roots_arrays(rid_arr=root_arr)
        if objective == "count":
            return root_arr, prog @ rs.weights
        return root_arr, rs.benefit.csm_batch_arrays(
            t_c, prog, rs.weights, rs.stats.clock.now()
        )

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One iteration of Algorithm 1's loop (no-op once ``done``)."""
        cfg = self._engine.config
        rs = self.rs
        if not rs.alive:
            return
        stats = rs.stats
        if self.cancel_token is not None and self.cancel_token.is_cancelled():
            raise QueryCancelled(
                f"run cancelled at region boundary "
                f"(t={stats.clock.now():g}, "
                f"{len(rs.alive)} region(s) outstanding)"
            )
        budget = cfg.query_time_budget
        if budget is not None and stats.clock.now() >= budget:
            if not cfg.enable_recovery:
                # Degradation is a recovery-layer behaviour; without it the
                # budget is a hard limit and exhaustion fails loudly.
                raise BudgetExhausted(
                    f"virtual-time budget {budget:g} exhausted at "
                    f"t={stats.clock.now():g} with {len(rs.alive)} "
                    "region(s) outstanding "
                    "(enable_recovery=True degrades gracefully instead)"
                )
            self.degrade_all(rs.budget_reason)
            if not rs.alive:
                return
        root_arr, scores = self._root_scores()
        if not root_arr.size:
            raise ExecutionError("no schedulable region (empty root set)")
        # Best first; the stable descending sort breaks ties toward the
        # lower region id, matching ``argmax``.
        best = np.argsort(-scores, kind="stable")[0]
        region = rs.alive[int(root_arr[best])]
        targets, edge_masks = rs.graph.out_edges(region.region_id)
        fault_plan = rs.fault_plan
        if fault_plan is not None and fault_plan.active:
            rs.rng_cursor += 1
            straggler_factor = fault_plan.straggler_factor_for(
                region.region_id
            )
        else:
            straggler_factor = 1.0
        started = stats.clock.now()
        try:
            outcome = rs.executor.process(
                region,
                rs.left_part.cell(region.left_cell_id),
                rs.right_part.cell(region.right_cell_id),
            )
        except RegionFailure:
            if rs.supervisor is None:
                raise
            if rs.supervisor.record_failure(region.region_id) == RETRY:
                stats.record_region_retry(
                    rs.supervisor.backoff_for(region.region_id)
                )
            else:
                self._quarantine(region)
                self._journal(region, "quarantined")
            return
        if straggler_factor > 1.0:
            stats.record_straggler_penalty(
                (straggler_factor - 1.0) * (stats.clock.now() - started)
            )
        # The processed region leaves the remaining set before evictions
        # and admission, so no new candidate counts it as a threat; the
        # benefit model's memoised ratios self-validate against the
        # changed membership at the next lookup (Algorithm 1's "Update
        # R_f's CSM scores").  Its own threats are released only after
        # the discard step — the emission timestamps depend on that order.
        del rs.alive[region.region_id]
        rs.graph.remove_node(region.region_id)
        rs.benefit.note_removed(region.region_id)

        rs.state.apply_evictions(outcome)
        rs.state.admit_candidates(outcome, region, rs.benefit)
        if cfg.enable_tuple_discard:
            self._discard_dominated(targets, edge_masks, outcome)
        self._release(np.array([region.region_id]), np.array([region.rql]))

        if cfg.enable_feedback:
            sats = np.array(
                [rs.tracker.runtime_satisfaction(q.name) for q in rs.workload]
            )
            rs.weights = update_weights(rs.weights, sats)

        self._journal(region, "processed")

    # -- region lifecycle ------------------------------------------------ #
    # Every method here takes id arrays: the discard step and degrade
    # pass many regions at once, and one region is a one-element array.
    def _retire(self, rids: np.ndarray) -> None:
        """Remove regions from the run — alive set, dependency graph and
        benefit model — then release the reporting threats they held.
        Their successors are promoted to roots exactly as if they had been
        processed.  Records no stats; each caller records its own."""
        rs = self.rs
        rql = np.array(
            [rs.alive.pop(rid).rql for rid in rids.tolist()], dtype=np.int64
        )
        rs.graph.remove_node(rids)
        rs.benefit.note_removed(rids)
        self._release(rids, rql)

    def _drop_query(
        self, rids: np.ndarray, masks: np.ndarray, with_reports: bool = False
    ) -> None:
        """Remove the queries of ``masks[i]`` (all served) from region
        ``rids[i]``'s lineage and release the reporting threats it held
        against them; ``with_reports`` is passed on to :meth:`_release`."""
        rs = self.rs
        for rid, mask in zip(rids.tolist(), masks.tolist()):
            rs.alive[rid].active_rql &= ~mask
        k, qis = np.nonzero((masks[:, None] >> self._qbits) & 1)
        rs.benefit.note_deactivation(rids[k], qis)
        self._release(rids, masks, with_reports)

    def _release(
        self, rids: np.ndarray, masks: np.ndarray, with_reports: bool = False
    ) -> None:
        """Release the threats region ``rids[i]`` holds against the
        queries of ``masks[i]``: region by region, queries ascending, the
        order the one-region-at-a-time loop released them in — each
        release stamps its emissions with the clock it finds, and every
        emission advances it.  Only pairs holding a threat bucket are
        visited; the others would release nothing.

        ``with_reports``: one degraded report per region (one output
        charge) falls due just before the region's releases.  Reports are
        recorded as they fall due, so every release finds the clock it
        found when each report was recorded on its own.
        """
        rs = self.rs
        state = rs.state
        names = self._names
        buckets = [state.threats_by_region[name] for name in names]
        charged = 0  # reports recorded so far
        for k, (rid, mask) in enumerate(zip(rids.tolist(), masks.tolist())):
            for qi, bucket in enumerate(buckets):
                if not ((mask >> qi) & 1 and rid in bucket):
                    continue
                if with_reports and charged <= k:
                    rs.stats.record_degraded_reports(k + 1 - charged)
                    charged = k + 1
                state.release_region_for_query(rid, names[qi])
        if with_reports and charged < len(rids):
            rs.stats.record_degraded_reports(len(rids) - charged)

    def _discard_dominated(
        self, targets: np.ndarray, edge_masks: np.ndarray, outcome: RegionOutcome
    ) -> None:
        """Section 6's discard step over the processed region's captured
        dependency edges, as one array pass.

        ``drop[t]`` collects the queries target ``t`` loses: those its
        edge from the processed region carries, the target still serves,
        and one of the region's admitted tuples dominates the target's
        lower corner for.  The tuples admitted for any of those queries
        are coded against the lower corners once; each counts only for
        the queries it was admitted for.  Targets left serving nothing
        are retired.
        """
        rs = self.rs
        if not targets.size:
            return
        rql, lowers = rs.benefit.lineage(targets)
        candidates = edge_masks & rql
        wanted = int(np.bitwise_or.reduce(candidates))
        keys: "list[int]" = []
        qis: "list[int]" = []
        for qi, name in enumerate(self._names):
            admitted = outcome.admitted.get(name, ())
            if admitted and (wanted >> qi) & 1:
                keys.extend(admitted)
                qis.extend([qi] * len(admitted))
        if not keys:
            return
        unique, inverse = np.unique(np.asarray(keys), return_inverse=True)
        key_bits = np.zeros(len(unique), dtype=np.int64)
        np.bitwise_or.at(key_bits, inverse, np.int64(1) << np.asarray(qis))
        # The word is as wide as the workload needs (uint64 past 32
        # queries); the cast to the int64 lineage keeps every bit.
        drop = candidates & subspace_union(
            _gather_vectors(outcome, unique), lowers, self._query_word, key_bits
        ).astype(np.int64)
        hit = np.flatnonzero(drop)
        if not hit.size:
            return
        self._drop_query(targets[hit], drop[hit])
        gone = targets[hit][(rql[hit] & ~drop[hit]) == 0]
        if gone.size:
            rs.stats.record_region_discarded(len(gone))
            self._retire(gone)

    # -- robustness layer (docs/ARCHITECTURE.md §9) --------------------- #
    def _quarantine(self, region: OutputRegion) -> None:
        """Retire a repeatedly-failing region without blocking dependents:
        each query it served gets a degraded (MQLA-bound) answer."""
        rs = self.rs
        rs.stats.record_region_quarantined()
        now = rs.stats.clock.now()
        served = [
            query.name for qi, query in enumerate(rs.workload) if region.serves(qi)
        ]
        for name in served:
            rs.degraded[name].append(
                _degraded_report(name, region, REASON_QUARANTINE, now)
            )
        rs.stats.record_degraded_reports(len(served))
        self._retire(np.array([region.region_id]))

    def degrade_all(self, reason: str) -> None:
        """Answer every not-yet-degraded query's remaining regions from
        their coarse MQLA bounds *now*, and drain the run.

        Budget exhaustion (reason :attr:`_RunState.budget_reason`) and the
        serving scheduler's brownout rung 2 (reason ``"brownout"``) both
        end here.  Each region is deactivated for the query so its pending
        candidates emit immediately instead of starving; a region left
        serving no query is retired.  ``done`` is True when this returns.
        """
        rs = self.rs
        now = rs.stats.clock.now()
        for qi, query in enumerate(rs.workload):
            if qi in rs.degraded_queries:
                continue
            rs.degraded_queries.add(qi)
            rids = rs.benefit.active_serving(qi)[0]
            if not rids.size:
                continue
            regions = [rs.alive[rid] for rid in rids.tolist()]
            rs.degraded[query.name].extend(
                _degraded_report(query.name, region, reason, now)
                for region in regions
            )
            self._drop_query(
                rids, np.full(len(rids), np.int64(1) << qi), with_reports=True
            )
            gone = [r.region_id for r in regions if r.is_discarded]
            if gone:
                self._retire(np.array(gone, dtype=np.int64))

    # -- durability (docs/ARCHITECTURE.md §10) --------------------------- #
    def _journal(self, region: OutputRegion, event: str) -> None:
        """Journal one completed (processed or quarantined) region.

        The record carries the run's externally observable progress —
        cumulative comparison count, virtual-clock reading, per-query
        reported counts, fault-decision cursor — so resume verification
        compares the replay against the persisted history field for
        field (write-ahead: the record is fsync'd before the loop picks
        the next region).
        """
        rs = self.rs
        rs.seq += 1
        if self._durability is None:
            return
        record = {
            "seq": rs.seq,
            "event": event,
            "region": region.region_id,
            "rql": region.rql,
            "comparisons": int(rs.stats.skyline_comparisons),
            "clock": float(rs.stats.clock.now()),
            "reported": [
                len(rs.state.reported[q.name]) for q in rs.workload
            ],
            "rng": rs.rng_cursor,
        }
        self._durability.on_region_complete(
            record, lambda: _dump_run_state(rs)
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release durability resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._durability is not None:
            self._durability.close()

    def finalize(self) -> RunResult:
        """Package the drained loop state into a :class:`RunResult`."""
        rs = self.rs
        rs.state.assert_drained()
        logs = {q.name: rs.tracker.log(q.name) for q in rs.workload}
        reported = {
            name: {
                rs.executor.store.identity(k).as_tuple()
                for k in rs.state.reported[name]
            }
            for name in rs.state.reported
        }
        return RunResult(
            workload=rs.workload,
            contracts=dict(rs.contracts),
            logs=logs,
            stats=rs.stats,
            horizon=rs.stats.clock.now(),
            reported=reported,
            degraded={
                name: reports
                for name, reports in rs.degraded.items()
                if reports
            },
            quarantine=rs.quarantine,
        )

    def check_invariants(self) -> None:
        """Check that the run's region bookkeeping agrees with itself;
        raises ``AssertionError`` on the first disagreement.

        Between steps: the dependency graph's nodes are the alive
        regions; per query, the benefit model's serving set is exactly the
        alive regions serving it; the reporting state's two threat indexes
        mirror each other, hold no empty bucket, name only regions in that
        serving set, and no candidate is both pending and reported; every
        cuboid window passes :meth:`SkylineWindow.check_invariants`.  A
        test-side check.
        """

        def expect(condition: bool, message: str) -> None:
            if not condition:
                raise AssertionError(f"LiveRun invariant: {message}")

        rs = self.rs
        rs.graph.check_invariants()
        for window in rs.plan.windows():
            window.check_invariants()
        expect(rs.graph.nodes == rs.alive.keys(), "graph nodes != alive set")
        for qi, query in enumerate(rs.workload):
            name = query.name
            serving = set(rs.benefit.active_serving(qi)[0].tolist())
            expect(
                serving
                == {rid for rid, r in rs.alive.items() if r.serves(qi)},
                f"{name}: benefit serving set != alive regions serving it",
            )
            pending = rs.state.pending[name]
            buckets = rs.state.threats_by_region[name]
            expect(
                all(
                    rid in pending.get(key, ())
                    for rid, keys in buckets.items()
                    for key in keys
                )
                and all(
                    key in buckets.get(rid, ())
                    for key, rids in pending.items()
                    for rid in rids
                ),
                f"{name}: pending and threats_by_region do not mirror",
            )
            expect(
                all(buckets.values()),
                f"{name}: an empty threat bucket (a region holding no threat)",
            )
            threats = set(buckets).union(*pending.values())
            expect(
                threats <= serving,
                f"{name}: threat held by regions {sorted(threats - serving)} "
                "that no longer serve the query",
            )
            expect(
                not pending.keys() & rs.state.reported[name],
                f"{name}: a candidate is both pending and reported",
            )


class _ReportingState:
    """Progressive-reporting bookkeeping (Section 6's reporting step).

    For each query, candidates admitted to the shared plan wait until no
    *remaining* region could produce a dominating tuple; the waiting is
    tracked as per-candidate threat sets that drain as regions are
    processed, discarded, or deactivated for the query.  An emitted
    candidate's identity is read from the run's result store and recorded
    on its tracker and stats.
    """

    def __init__(
        self,
        workload: Workload,
        cuboid: MinMaxCuboid,
        tracker: SatisfactionTracker,
        stats: ExecutionStats,
        store: JoinResultStore,
    ) -> None:
        self.workload = workload
        self.tracker = tracker
        self.stats = stats
        self.store = store
        table = cuboid.lattice.table
        self.positions = {
            q.name: tuple(
                workload.output_dims.index(n)
                for n in table.names(cuboid.query_nodes[q.name])
            )
            for q in workload
        }
        self.pending: dict[str, dict[int, set[int]]] = {
            q.name: {} for q in workload
        }
        self.threats_by_region: dict[str, dict[int, set[int]]] = {
            q.name: {} for q in workload
        }
        self.reported: dict[str, set[int]] = {q.name: set() for q in workload}

    # -- candidate lifecycle ------------------------------------------- #
    def apply_evictions(self, outcome: RegionOutcome) -> None:
        for query in self.workload:
            for key in outcome.evicted.get(query.name, ()):
                self._drop_pending(query.name, key)

    def admit_candidates(
        self,
        outcome: RegionOutcome,
        region: OutputRegion,
        benefit: BenefitModel,
    ) -> None:
        now = self.stats.clock.now()
        for qi, query in enumerate(self.workload):
            if not region.serves(qi):
                continue
            keys = outcome.admitted.get(query.name, ())
            if not keys:
                continue
            serving_ids, lowers = benefit.active_serving(qi)
            if not serving_ids.size:
                for key in keys:
                    self._emit(query.name, key, now)
                continue
            positions = list(self.positions[query.name])
            vectors = _gather_vectors(outcome, keys)[
                :, positions
            ]
            # threat[k, r]: region r could still produce a tuple dominating
            # candidate k (its best corner reaches below the candidate).
            threat = dominance_mask(lowers, vectors).T
            for k_pos, key in enumerate(keys):
                rids = {
                    int(serving_ids[r]) for r in np.nonzero(threat[k_pos])[0]
                }
                if rids:
                    self.pending[query.name][key] = rids
                    for rid in sorted(rids):
                        self.threats_by_region[query.name].setdefault(
                            rid, set()
                        ).add(key)
                else:
                    self._emit(query.name, key, now)

    # -- threat draining ------------------------------------------------ #
    def release_region_for_query(
        self, region_id: int, query_name: str
    ) -> None:
        keys = self.threats_by_region[query_name].pop(region_id, set())
        now = self.stats.clock.now()
        for key in keys:
            threats = self.pending[query_name].get(key)
            if threats is None:
                continue
            threats.discard(region_id)
            if not threats:
                del self.pending[query_name][key]
                self._emit(query_name, key, now)

    def _emit(self, query_name: str, key: int, now: float) -> None:
        if key in self.reported[query_name]:
            return
        self.reported[query_name].add(key)
        identity = self.store.identity(key).as_tuple()
        self.tracker.record(query_name, [identity], now)
        self.stats.record_outputs(1)

    def _drop_pending(self, query_name: str, key: int) -> None:
        threats = self.pending[query_name].pop(key, None)
        if threats:
            buckets = self.threats_by_region[query_name]
            for rid in threats:
                bucket = buckets.get(rid)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del buckets[rid]

    def assert_drained(self) -> None:
        leftovers = {
            name: len(keys) for name, keys in self.pending.items() if keys
        }
        if leftovers:
            raise ExecutionError(
                f"progressive reporting did not drain: {leftovers}"
            )


# --------------------------------------------------------------------- #
# Durability codecs (docs/ARCHITECTURE.md §10.2)
# --------------------------------------------------------------------- #
def _dump_run_state(rs: _RunState) -> "dict[str, object]":
    """Serialise the mutable loop state of a run for a snapshot.

    Only state Algorithm 1 mutates is captured — the deterministic
    prologue (partitions, cuboid, coarse join, regions, benefit caches)
    is reconstructed by re-running :meth:`CAQE._prepare` on resume.
    """
    from repro.durability import checkpoint as cp

    return {
        "seq": rs.seq,
        "rng": rs.rng_cursor,
        "stats": cp.dump_stats(rs.stats),
        # (region_id, active_rql) in dict insertion order.
        "alive": [[rid, region.active_rql] for rid, region in rs.alive.items()],
        "graph": cp.dump_graph(rs.graph),
        "weights": [float(w) for w in rs.weights],
        "store": cp.dump_store(rs.executor.store),
        "windows": cp.dump_plan_windows(rs.plan),
        "reporting": {
            "pending": {
                name: [
                    [key, sorted(threats)]
                    for key, threats in rs.state.pending[name].items()
                ]
                for name in rs.state.pending
            },
            "reported": {
                name: sorted(keys) for name, keys in rs.state.reported.items()
            },
        },
        "logs": cp.dump_logs(
            {q.name: rs.tracker.log(q.name) for q in rs.workload}
        ),
        "supervisor": cp.dump_supervisor(rs.supervisor),
        "degraded": cp.dump_degraded(rs.degraded),
        "degraded_queries": sorted(rs.degraded_queries),
    }


def _restore_run_state(rs: _RunState, state: "dict[str, object]") -> None:
    """Overwrite a freshly prepared run with snapshotted loop state.

    The stats/clock restore comes first only by convention — every piece
    here is an overwrite, so after this returns no trace of the
    prologue's re-charges or of the pre-snapshot loop iterations
    remains; the run continues bit-identically to the killed one.
    """
    from repro.durability import checkpoint as cp

    cp.load_stats(rs.stats, state["stats"])
    # A fresh run's alive set holds every region the snapshot can name.
    by_id = rs.alive
    alive: "dict[int, OutputRegion]" = {}
    for rid, active_rql in state["alive"]:
        region = by_id[int(rid)]
        region.active_rql = int(active_rql)
        alive[region.region_id] = region
    rs.alive = alive
    rs.graph = cp.load_graph(state["graph"])
    # Re-attach wipes and lazily rebuilds the benefit caches; warm and
    # cold caches are bit-identical by construction (memoisation only
    # skips recomputation of values that would come out equal).
    rs.benefit.attach_regions(RegionTable.from_regions(list(alive.values())))
    rs.weights = np.asarray([float(w) for w in state["weights"]], dtype=float)
    cp.load_store(rs.executor.store, state["store"])
    cp.load_plan_windows(rs.plan, state["windows"])
    st = rs.state
    st.pending = {q.name: {} for q in rs.workload}
    st.threats_by_region = {q.name: {} for q in rs.workload}
    st.reported = {q.name: set() for q in rs.workload}
    reporting = state["reporting"]
    for name, items in reporting["pending"].items():
        for key, threats in items:
            key = int(key)
            rids = {int(r) for r in threats}
            st.pending[name][key] = set(rids)
            for rid in sorted(rids):
                st.threats_by_region[name].setdefault(rid, set()).add(key)
    for name, keys in reporting["reported"].items():
        st.reported[name] = {int(k) for k in keys}
    rs.tracker._logs.update(cp.load_logs(state["logs"]))
    cp.load_supervisor(rs.supervisor, state["supervisor"])
    rs.degraded = cp.load_degraded(state["degraded"])
    rs.degraded_queries = {int(qi) for qi in state["degraded_queries"]}
    rs.seq = int(state["seq"])
    rs.rng_cursor = int(state["rng"])


def run_caqe(
    left: Relation,
    right: Relation,
    workload: Workload,
    contracts: "dict[str, Contract]",
    config: "CAQEConfig | None" = None,
) -> RunResult:
    """Convenience one-shot entry point."""
    return CAQE(config).run(left, right, workload, contracts)


__all__ = [
    "CAQE",
    "CAQEConfig",
    "LiveRun",
    "RunResult",
    "MAX_CUBOID_NODES",
    "MAX_QUERIES",
    "check_output_width",
    "check_workload_shape",
    "partition_attrs",
    "run_caqe",
]
