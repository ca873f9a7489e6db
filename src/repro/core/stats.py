"""Execution statistics (the paper's Figure 10 metrics).

One :class:`ExecutionStats` instance accompanies each run of any execution
strategy; it owns the run's :class:`~repro.core.clock.VirtualClock` and the
shared :class:`~repro.skyline.dominance.ComparisonCounter` so skyline
comparisons both count toward Figure 10b *and* advance virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clock import CostModel, VirtualClock
from repro.skyline.dominance import ComparisonCounter


@dataclass
class ExecutionStats:
    """Counters for one workload execution."""

    clock: VirtualClock = field(default_factory=VirtualClock)
    join_results: int = 0
    join_probes: int = 0
    tuples_inserted: int = 0
    regions_processed: int = 0
    regions_discarded: int = 0
    coarse_comparisons: int = 0
    results_reported: int = 0
    #: Robustness-layer counters (docs/ARCHITECTURE.md §9); all stay zero
    #: unless faults fire or degradation triggers.
    tuples_quarantined: int = 0
    region_retries: int = 0
    regions_quarantined: int = 0
    degraded_reports: int = 0
    straggler_penalty: float = 0.0
    #: Region ids in processing order (when callers pass them) — the
    #: schedule trace the scheduler-equivalence tests compare.
    region_trace: "list[int]" = field(default_factory=list)
    #: Per-region virtual durations in commit order — the input to the
    #: :meth:`wall_parallel` lane simulation.  Durations are identical
    #: across worker counts (charges are bit-identical), so recording
    #: them never perturbs an observable.
    region_durations: "list[float]" = field(default_factory=list)
    #: Lanes used by :meth:`wall_parallel` when the engine ran a worker
    #: pool (0 = serial run, no parallel channel).
    parallel_lanes: int = 0
    #: Supervision snapshot of the run's region pool (docs/ARCHITECTURE.md
    #: §14), populated at the end of parallel runs.  A wall-channel like
    #: ``region_durations``: deliberately excluded from :meth:`summary`
    #: (and from checkpoint snapshots) so crashed, respawned or poisoned
    #: workers can never move a run fingerprint.
    pool_health: "dict[str, object] | None" = None
    #: Structured one-line environment warnings (e.g. a worker pool on a
    #: single-core host).  A wall-channel like ``pool_health``: excluded
    #: from :meth:`summary` and from snapshots, surfaced to operators by
    #: harnesses that choose to print it — never written to stdout here.
    runtime_warnings: "list[dict]" = field(default_factory=list)

    def __post_init__(self) -> None:
        self.comparison_counter = ComparisonCounter(
            on_increment=self.clock.charge_skyline_comparisons
        )

    @classmethod
    def with_cost_model(cls, cost_model: CostModel) -> "ExecutionStats":
        return cls(clock=VirtualClock(cost_model=cost_model))

    # ------------------------------------------------------------------ #
    @property
    def skyline_comparisons(self) -> int:
        return self.comparison_counter.comparisons

    @property
    def elapsed(self) -> float:
        """Total virtual execution time (Figure 10c)."""
        return self.clock.now()

    def record_join_probes(self, count: int) -> None:
        self.join_probes += count
        self.clock.charge_join_probes(count)

    def record_join_results(self, count: int, mapping_functions: int = 0) -> None:
        self.join_results += count
        self.clock.charge_join_results(count)
        if mapping_functions:
            self.clock.charge_mappings(count * mapping_functions)

    def record_region_processed(self, region_id: "int | None" = None) -> None:
        self.regions_processed += 1
        if region_id is not None:
            self.region_trace.append(region_id)
        self.clock.charge_region_overhead()

    def record_region_discarded(self) -> None:
        self.regions_discarded += 1

    def record_coarse_comparisons(self, count: int) -> None:
        self.coarse_comparisons += count
        self.clock.charge_coarse_comparisons(count)

    def record_outputs(self, count: int) -> None:
        self.results_reported += count
        self.clock.charge_outputs(count)

    # -- robustness layer ---------------------------------------------- #
    def record_tuples_quarantined(self, count: int) -> None:
        """Corrupted base tuples dropped by the sanitizer (uncharged: the
        validation scan elides modelled work, it does not add any)."""
        self.tuples_quarantined += count

    def record_region_retry(self, backoff: float) -> None:
        """One failed region attempt; the backoff wait burns virtual time."""
        self.region_retries += 1
        self.clock.charge_retry_backoff(backoff)

    def record_region_quarantined(self) -> None:
        self.regions_quarantined += 1

    def record_degraded_reports(self, count: int) -> None:
        """Approximate (MQLA-bound) answers issued; each costs one output."""
        self.degraded_reports += count
        self.clock.charge_outputs(count)

    def record_straggler_penalty(self, units: float) -> None:
        self.straggler_penalty += units
        self.clock.charge_straggler_penalty(units)

    def record_runtime_warning(self, kind: str, **detail: "object") -> None:
        """Queue one structured environment warning on the stats channel."""
        self.runtime_warnings.append({"kind": kind, **detail})

    # -- parallel layer (docs/ARCHITECTURE.md §11) ----------------------- #
    def record_region_duration(self, duration: float) -> None:
        """One committed region's virtual duration (commit order)."""
        self.region_durations.append(float(duration))

    def wall_parallel(self, lanes: "int | None" = None) -> float:
        """Simulated makespan of the region durations under ``lanes``.

        Greedy earliest-free-lane list scheduling in commit order — an
        optimistic model (it ignores dependency stalls), deterministic
        because it reads only virtual durations.  ``lanes`` defaults to
        the run's ``parallel_lanes``; with fewer than two lanes the
        makespan is simply the serial sum.
        """
        lanes = self.parallel_lanes if lanes is None else lanes
        if lanes <= 1:
            return float(sum(self.region_durations))
        free = [0.0] * lanes
        for duration in self.region_durations:
            slot = min(range(lanes), key=lambda i: free[i])
            free[slot] += duration
        return float(max(free)) if free else 0.0

    def parallel_summary(self) -> "dict[str, float]":
        """The ``wall_parallel`` channel — reported separately from
        :meth:`summary` so serial observables stay bit-identical."""
        return {
            "lanes": float(self.parallel_lanes),
            "wall_serial": float(sum(self.region_durations)),
            "wall_parallel": self.wall_parallel(),
            "regions_timed": float(len(self.region_durations)),
        }

    def summary(self) -> "dict[str, float]":
        return {
            "join_results": self.join_results,
            "join_probes": self.join_probes,
            "skyline_comparisons": self.skyline_comparisons,
            "coarse_comparisons": self.coarse_comparisons,
            "regions_processed": self.regions_processed,
            "regions_discarded": self.regions_discarded,
            "results_reported": self.results_reported,
            "tuples_quarantined": self.tuples_quarantined,
            "region_retries": self.region_retries,
            "regions_quarantined": self.regions_quarantined,
            "degraded_reports": self.degraded_reports,
            "straggler_penalty": self.straggler_penalty,
            "virtual_time": self.elapsed,
        }


__all__ = ["ExecutionStats"]
