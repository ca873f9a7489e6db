"""Figure/table series builders for the paper's evaluation (Section 7).

Each function regenerates the data behind one figure:

* :func:`figure9`  — average contract satisfaction per contract class and
  strategy for one data distribution (Figures 9a/9b/9c);
* :func:`figure10` — join results, skyline comparisons, and virtual
  execution time of every strategy relative to CAQE (Figures 10a-10c);
* :func:`figure11` — average satisfaction as the workload grows
  (Figures 11a/11b);
* :func:`figure6_sizes` — shared-plan size: min-max cuboid vs full skycube;
* :func:`figure1_workload` — the paper's running example workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import FIGURE_STRATEGIES
from repro.bench.config import ExperimentConfig, experiment_for
from repro.bench.reporting import render_table
from repro.bench.runner import (
    Comparison,
    calibrated_contracts,
    make_pair,
    reference_time,
    run_comparison,
    run_strategy,
)
from repro.contracts.presets import CONTRACT_CLASSES
from repro.plan import build_minmax_cuboid
from repro.query import (
    JoinCondition,
    Preference,
    SkylineJoinQuery,
    Workload,
    add,
    subspace_workload,
)
from repro.bench.config import PRIORITY_SCHEME_BY_CONTRACT

#: Figure 10 is reported for the independent distribution under C2 (§7.3).
FIGURE10_CONTRACT = "C2"


@dataclass
class Figure9Result:
    distribution: str
    comparisons: "dict[str, Comparison]" = field(default_factory=dict)

    def satisfaction(self, contract_class: str, strategy: str) -> float:
        return self.comparisons[contract_class].satisfaction(strategy)

    def table(self) -> str:
        classes = [c for c in CONTRACT_CLASSES if c in self.comparisons]
        strategies = sorted(
            {s for comp in self.comparisons.values() for s in comp.outcomes},
            key=lambda s: (FIGURE_STRATEGIES + (s,)).index(s),
        )
        headers = ["Contract", *strategies]
        rows = [
            [cls] + [self.satisfaction(cls, s) for s in strategies]
            for cls in classes
        ]
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 9 ({self.distribution}): average contract "
                "satisfaction per strategy"
            ),
        )


def figure9(
    distribution: str,
    config: "ExperimentConfig | None" = None,
    strategies: "tuple[str, ...]" = FIGURE_STRATEGIES,
    contract_classes: "tuple[str, ...]" = CONTRACT_CLASSES,
) -> Figure9Result:
    config = config or experiment_for(distribution)
    result = Figure9Result(distribution=distribution)
    for contract_class in contract_classes:
        result.comparisons[contract_class] = run_comparison(
            config, contract_class, strategies
        )
    return result


@dataclass
class Figure10Result:
    comparison: Comparison

    METRICS = (
        ("join_results", "Fig 10a: join results"),
        ("skyline_comparisons", "Fig 10b: skyline comparisons"),
        ("virtual_time", "Fig 10c: execution time"),
    )

    def relative(self, strategy: str, metric: str) -> float:
        return self.comparison.relative_to(strategy, metric)

    def table(self) -> str:
        strategies = sorted(
            self.comparison.outcomes,
            key=lambda s: (FIGURE_STRATEGIES + (s,)).index(s),
        )
        headers = ["Metric (relative to CAQE)", *strategies]
        rows = [
            [label] + [self.relative(s, metric) for s in strategies]
            for metric, label in self.METRICS
        ]
        return render_table(
            headers,
            rows,
            title="Figure 10: statistics relative to CAQE "
            f"({self.comparison.config.distribution}, {self.comparison.contract_class})",
        )


def figure10(
    distribution: str = "independent",
    config: "ExperimentConfig | None" = None,
    strategies: "tuple[str, ...]" = FIGURE_STRATEGIES,
) -> Figure10Result:
    config = config or experiment_for(distribution)
    return Figure10Result(run_comparison(config, FIGURE10_CONTRACT, strategies))


@dataclass
class Figure11Result:
    contract_class: str
    distribution: str
    #: workload size -> strategy -> average satisfaction.
    series: "dict[int, dict[str, float]]" = field(default_factory=dict)

    def satisfaction(self, size: int, strategy: str) -> float:
        return self.series[size][strategy]

    def drop(self, strategy: str) -> float:
        """Relative satisfaction drop from the smallest to largest workload."""
        sizes = sorted(self.series)
        first = self.series[sizes[0]][strategy]
        last = self.series[sizes[-1]][strategy]
        if first <= 0:
            return 0.0
        return (first - last) / first

    def table(self) -> str:
        strategies = sorted(next(iter(self.series.values())))
        headers = ["|S_Q|", *strategies]
        rows = [
            [size] + [self.series[size][s] for s in strategies]
            for size in sorted(self.series)
        ]
        return render_table(
            headers,
            rows,
            title=(
                f"Figure 11 ({self.contract_class}, {self.distribution}): "
                "satisfaction vs workload size"
            ),
        )


def workload_of_size(size: int, contract_class: str, dims: int = 4) -> Workload:
    """A diverse sub-workload of the 11-query benchmark family."""
    scheme = PRIORITY_SCHEME_BY_CONTRACT.get(contract_class, "uniform")
    full = subspace_workload(dims, priority_scheme=scheme)
    # Interleave subspace sizes so small workloads stay representative:
    # order queries by (|P| cycling) — Q11 (4-d) first, then a 2-d, etc.
    ordered = sorted(full.queries, key=lambda q: (-len(q.preference), q.name))
    by_size: dict[int, list] = {}
    for q in ordered:
        by_size.setdefault(len(q.preference), []).append(q)
    interleaved = []
    while any(by_size.values()):
        for bucket in sorted(by_size, reverse=True):
            if by_size[bucket]:
                interleaved.append(by_size[bucket].pop(0))
    chosen = [q.name for q in interleaved[:size]]
    return full.subset(chosen)


def figure11(
    contract_class: str,
    sizes: "tuple[int, ...]" = (1, 3, 6, 11),
    distribution: str = "independent",
    config: "ExperimentConfig | None" = None,
    strategies: "tuple[str, ...]" = ("CAQE", "ProgXe+", "SSMJ"),
    headroom: float = 3.0,
) -> Figure11Result:
    """Satisfaction vs workload size (§7.4 restricts to C2/C3, independent).

    The paper keeps the contract parameters *fixed* while growing the
    workload (its deadlines are absolute seconds), so satisfaction can only
    degrade as queries compete.  We therefore calibrate once against the
    single-query reference run — ``headroom`` times its completion time
    stands in for the paper's generously chosen absolute deadlines, which
    every technique meets at |S_Q| = 1 — and reuse the same contracts for
    every workload size.
    """
    config = config or experiment_for(distribution)
    result = Figure11Result(contract_class=contract_class, distribution=distribution)
    pair = make_pair(config)
    single = workload_of_size(1, contract_class, config.dims)
    t_single = reference_time(pair, single, config)
    fixed_t_ref = headroom * t_single
    for size in sizes:
        workload = workload_of_size(size, contract_class, config.dims)
        contracts = calibrated_contracts(contract_class, workload, fixed_t_ref)
        result.series[size] = {
            name: run_strategy(name, pair, workload, contracts, config).average_satisfaction
            for name in strategies
        }
    return result


def figure1_workload() -> Workload:
    """The paper's running example (Figure 1): Q1..Q4 over output dims
    d1..d4, each ``d_i = m_i + m_i`` across the one join condition JC1."""
    jc = JoinCondition.on("jc1", name="JC1")
    fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in range(1, 5))
    return Workload(
        [
            SkylineJoinQuery("Q1", jc, fns[:2], Preference.over("d1", "d2")),
            SkylineJoinQuery("Q2", jc, fns[:3], Preference.over("d1", "d2", "d3")),
            SkylineJoinQuery("Q3", jc, fns[1:3], Preference.over("d2", "d3")),
            SkylineJoinQuery("Q4", jc, fns[1:4], Preference.over("d2", "d3", "d4")),
        ]
    )


def figure6_sizes(dims: int = 4) -> "dict[str, int]":
    """Shared-plan sizes: Figure 6's cuboid (over the Figure 1 workload)
    vs Figure 5's full skycube over ``dims`` dimensions."""
    cuboid = build_minmax_cuboid(figure1_workload())
    return {
        "full_skycube": 2 ** dims - 1,
        "min_max_cuboid": len(cuboid),
    }


__all__ = [
    "FIGURE10_CONTRACT",
    "Figure9Result",
    "Figure10Result",
    "Figure11Result",
    "figure1_workload",
    "figure6_sizes",
    "figure9",
    "figure10",
    "figure11",
    "workload_of_size",
]
