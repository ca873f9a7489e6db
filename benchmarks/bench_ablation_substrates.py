"""Substrate ablation: the input partitioning policy.

Complements ``bench_ablation.py`` with the remaining DESIGN.md §5 choice:
quad (2^d midpoint) vs k-d (binary median) input partitioning.
"""

from dataclasses import replace

from repro.bench.config import experiment_for
from repro.bench.reporting import render_table
from repro.bench.runner import (
    calibrated_contracts,
    make_pair,
    make_workload,
    reference_time,
    run_strategy,
)


def bench_ablation_partition_split(run_once, benchmark):
    config = experiment_for("correlated")  # skewed data shows the difference
    pair = make_pair(config)
    workload = make_workload(config, "C2")
    t_ref = reference_time(pair, workload, config)
    contracts = calibrated_contracts("C2", workload, t_ref)

    def run_both():
        return {
            split: run_strategy(
                "CAQE", pair, workload, contracts,
                replace(config, caqe=replace(config.caqe, partition_split=split)),
            )
            for split in ("quad", "kd")
        }

    outcomes = run_once(benchmark, run_both)
    rows = [
        (
            split,
            o.average_satisfaction,
            o.stats["regions_processed"],
            o.stats["regions_discarded"],
            o.stats["virtual_time"],
        )
        for split, o in outcomes.items()
    ]
    print()
    print(
        render_table(
            ("split policy", "avg satisfaction", "regions run", "regions pruned", "virtual time"),
            rows,
            title="Ablation: input partitioning policy (correlated, C2)",
        )
    )
    # Both policies must work; median splits keep leaf sizes balanced on
    # skewed data, so the kd pipeline should not process more regions than
    # several times the quad pipeline.
    assert outcomes["kd"].average_satisfaction > 0.0
    assert outcomes["quad"].average_satisfaction > 0.0
