"""Deterministic virtual time (the paper's wall-clock substitute).

The paper measures contract satisfaction against wall-clock seconds on a
2.6 GHz workstation.  A Python reproduction timed with wall clocks would be
noisy and hardware-dependent, so every execution strategy in this package
charges its primitive operations to a :class:`VirtualClock` through a
:class:`CostModel` instead: result tuples are stamped with virtual time,
and contract deadlines are expressed in the same units (see DESIGN.md §2).

The default cost model's *ratios* follow the conventional wisdom the paper
leans on: a pairwise skyline comparison is the expensive unit, join-result
materialisation is cheaper, and probes/mapping are cheaper still.  The
absolute scale is arbitrary — only relative behaviour matters, and the
bench configs calibrate contract deadlines against it per distribution
exactly as the paper calibrates seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError


@dataclass(frozen=True)
class CostModel:
    """Virtual time charged per primitive operation."""

    #: Tuple-pair equality probe during tuple-level join evaluation.
    join_probe: float = 1.0
    #: Materialising one join result (allocating and copying the combined
    #: tuple, the bulk of a join-dominated workload — the paper's N = 500 K
    #: runs materialise millions of these per query).
    join_result: float = 4.0
    #: Applying one mapping function to one join result.
    mapping: float = 0.5
    #: One pairwise skyline dominance comparison.
    skyline_comparison: float = 2.0
    #: Region-level (coarse) dominance test.  Far cheaper than a tuple-level
    #: comparison: it is a bound check on pre-computed corner vectors, and at
    #: the paper's data scale the whole look-ahead is a small fraction of
    #: tuple-level work — this constant calibrates the same regime at the
    #: reproduction's smaller default cardinalities.
    coarse_comparison: float = 0.002
    #: Fixed overhead of scheduling one region for tuple-level processing.
    region_overhead: float = 10.0
    #: Reporting one progressive result to a consumer.
    output: float = 0.2
    #: Per key-comparison cost inside a sort (sort-based techniques pay
    #: ``n * log2(n)`` of these before their skyline pass).
    sort_key: float = 0.3

    def validate(self) -> None:
        for name in (
            "join_probe",
            "join_result",
            "mapping",
            "skyline_comparison",
            "coarse_comparison",
            "region_overhead",
            "output",
            "sort_key",
        ):
            if getattr(self, name) < 0:
                raise ExecutionError(f"cost model field {name!r} must be non-negative")


@dataclass
class VirtualClock:
    """Monotonically advancing virtual time shared by one execution run."""

    cost_model: CostModel = field(default_factory=CostModel)
    time: float = 0.0

    def __post_init__(self) -> None:
        self.cost_model.validate()

    def now(self) -> float:
        return self.time

    def advance(self, units: float) -> float:
        if units < 0:
            raise ExecutionError(f"cannot advance the clock by {units}")
        self.time += units
        return self.time

    def advance_repeated(self, units: float, count: int) -> float:
        """``count`` successive :meth:`advance` calls of ``units`` each.

        Not ``advance(units * count)``: float addition is not associative,
        so the clock reading after many small charges depends on how they
        are grouped.  ``np.add.accumulate`` adds strictly left to right,
        which is the rounding of the one-by-one calls, bit for bit.
        """
        if units < 0:
            raise ExecutionError(f"cannot advance the clock by {units}")
        if count > 0:
            steps = np.full(count + 1, units)
            steps[0] = self.time
            self.time = float(np.add.accumulate(steps)[-1])
        return self.time

    # Convenience charging methods — one per primitive. --------------------
    def charge_join_probes(self, count: int = 1) -> None:
        self.advance(self.cost_model.join_probe * count)

    def charge_join_results(self, count: int = 1) -> None:
        self.advance(self.cost_model.join_result * count)

    def charge_mappings(self, count: int = 1) -> None:
        self.advance(self.cost_model.mapping * count)

    def charge_skyline_comparisons(self, count: int = 1) -> None:
        self.advance(self.cost_model.skyline_comparison * count)

    def charge_coarse_comparisons(self, count: int = 1) -> None:
        self.advance(self.cost_model.coarse_comparison * count)

    def charge_region_overhead(self, count: int = 1) -> None:
        self.advance(self.cost_model.region_overhead * count)

    def charge_outputs(self, count: int = 1) -> None:
        self.advance(self.cost_model.output * count)

    def charge_sort(self, n: int) -> None:
        """Comparison-sort cost for ``n`` items."""
        if n > 1:
            self.advance(self.cost_model.sort_key * n * math.log2(n))

    # Robustness-layer charges (docs/ARCHITECTURE.md §9). -----------------
    def charge_retry_backoff(self, units: float) -> None:
        """Wait out a failed region's backoff window in virtual time."""
        self.advance(units)

    def charge_straggler_penalty(self, units: float) -> None:
        """Extra virtual time a simulated straggler region costs."""
        self.advance(units)


__all__ = ["CostModel", "VirtualClock"]
