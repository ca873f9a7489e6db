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

    def record_region_discarded(self, count: int = 1) -> None:
        self.regions_discarded += count

    def record_coarse_comparisons(self, count: int) -> None:
        self.coarse_comparisons += count
        self.clock.charge_coarse_comparisons(count)

    def record_signature_tests(self, count: int) -> None:
        """``count`` coarse comparisons, each charged on its own — the
        coarse join's signature tests, one :meth:`record_coarse_comparisons`
        call apiece."""
        self.coarse_comparisons += count
        self.clock.advance_repeated(self.clock.cost_model.coarse_comparison, count)

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
        """Approximate (MQLA-bound) answers issued; each costs one output,
        charged on its own."""
        self.degraded_reports += count
        self.clock.advance_repeated(self.clock.cost_model.output, count)

    def record_straggler_penalty(self, units: float) -> None:
        self.straggler_penalty += units
        self.clock.charge_straggler_penalty(units)

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
