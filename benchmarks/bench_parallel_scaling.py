#!/usr/bin/env python
"""Parallel-engine scaling harness (docs/ARCHITECTURE.md §11).

Times the two paper scenarios under worker counts {0, 2, 4}:

* **Figure 9** — the 4-query Figure 1 family (independent, C2);
* **Figure 11** — the full 11-query subspace workload (independent, C2),
  the acceptance scenario: at ``workers=4`` the wall-clock must be at
  least 2x faster than the serial engine.

Every setting runs **twice**; the harness verifies that all deterministic
observables — region trace, skyline/coarse comparison counts, virtual
time, reported identity sets, contract satisfaction — are bit-identical
across every worker count *and* across the repeated runs, before it
reports any timing.  The simulated-makespan channel
(``parallel_summary``) is recorded alongside, plus the host CPU count:
on low-core hosts the speedup is carried by the parallel engine's
vectorised commit kernels rather than by raw concurrency, and the JSON
records that provenance.

Results go to ``BENCH_parallel.json``.  Run directly (not under pytest)::

    python benchmarks/bench_parallel_scaling.py           # full sizes
    python benchmarks/bench_parallel_scaling.py --quick   # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.figures import workload_of_size  # noqa: E402
from repro.contracts import c2  # noqa: E402
from repro.core import CAQE, CAQEConfig  # noqa: E402
from repro.datagen import generate_pair  # noqa: E402
from repro.query.workload import subspace_workload  # noqa: E402

WORKER_GRID = (0, 2, 4)
RUNS_PER_SETTING = 2

#: Deterministic counters compared across worker counts and repeats.
STAT_FIELDS = (
    "region_trace",
    "skyline_comparisons",
    "coarse_comparisons",
    "elapsed",
    "join_results",
    "join_probes",
    "results_reported",
)


def fingerprint(result) -> tuple:
    """Everything that must be bit-identical regardless of ``workers``."""
    stats = tuple(getattr(result.stats, f) for f in STAT_FIELDS)
    reported = {
        name: frozenset(pairs) for name, pairs in result.reported.items()
    }
    satisfaction = {
        q.name: result.satisfaction(q.name) for q in result.workload
    }
    return stats, reported, satisfaction, result.horizon


def time_workers(pair, workload, contracts) -> dict:
    """Run the worker grid twice each; verify identity; report timings."""
    rows = {}
    reference = None
    last = None
    for workers in WORKER_GRID:
        config = CAQEConfig(workers=workers)
        walls = []
        for _ in range(RUNS_PER_SETTING):
            start = time.perf_counter()
            result = CAQE(config).run(
                pair.left, pair.right, workload, contracts
            )
            walls.append(time.perf_counter() - start)
            observed = fingerprint(result)
            if reference is None:
                reference = observed
            elif observed != reference:
                raise AssertionError(
                    f"workers={workers}: observables diverged from serial"
                )
        last = result
        rows[f"workers={workers}"] = {
            "wall_s": round(min(walls), 4),
            "wall_runs_s": [round(w, 4) for w in walls],
            "skyline_comparisons": result.stats.skyline_comparisons,
            "virtual_time": result.stats.elapsed,
            "regions_processed": result.stats.regions_processed,
            "average_satisfaction": round(result.average_satisfaction(), 6),
        }
    serial = rows["workers=0"]["wall_s"]
    for row in rows.values():
        row["speedup_vs_serial"] = round(serial / max(row["wall_s"], 1e-9), 2)
    return {
        "settings": rows,
        "speedup_workers4": rows["workers=4"]["speedup_vs_serial"],
        "equivalent": True,
        "parallel_summary": {
            name: round(value, 4)
            for name, value in last.stats.parallel_summary().items()
        },
    }


def bench_fig9(quick: bool) -> dict:
    """The Figure 1 four-query family (independent, C2)."""
    cardinality = 300 if quick else 1500
    pair = generate_pair(
        "independent", cardinality, 4, selectivity=0.1, seed=23
    )
    workload = workload_of_size(4, "C2")
    contracts = {q.name: c2(scale=300.0) for q in workload}
    out = time_workers(pair, workload, contracts)
    out["scenario"] = {
        "figure": "9",
        "distribution": "independent",
        "contract_class": "C2",
        "cardinality": cardinality,
        "queries": len(workload.queries),
    }
    return out


def bench_fig11(quick: bool) -> dict:
    """The 11-query subspace workload — the 2x acceptance scenario."""
    cardinality = 300 if quick else 3000
    selectivity = 0.05 if quick else 0.15
    pair = generate_pair(
        "independent", cardinality, 4, selectivity=selectivity, seed=23
    )
    workload = subspace_workload(4, priority_scheme="uniform")
    contracts = {q.name: c2(scale=300.0) for q in workload}
    out = time_workers(pair, workload, contracts)
    out["scenario"] = {
        "figure": "11",
        "distribution": "independent",
        "contract_class": "C2",
        "cardinality": cardinality,
        "selectivity": selectivity,
        "queries": len(workload.queries),
    }
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller cardinalities (CI smoke run; skips the 2x gate)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_parallel.json",
        help="output JSON path (default: repo-root BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)

    fig9 = bench_fig9(args.quick)
    fig11 = bench_fig11(args.quick)
    report = {
        "bench": "parallel_scaling",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "runs_per_setting": RUNS_PER_SETTING,
        "fig9_figure1_c2": fig9,
        "fig11_subspace_c2": fig11,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for label, cell in (("Figure 9", fig9), ("Figure 11", fig11)):
        scenario = cell["scenario"]
        print(
            f"{label} ({scenario['queries']} queries, "
            f"{scenario['cardinality']} rows):"
        )
        for setting, row in cell["settings"].items():
            print(
                f"  {setting:10s} wall={row['wall_s']:8.2f}s  "
                f"speedup={row['speedup_vs_serial']:.2f}x"
            )
    print(f"cpu_count={report['cpu_count']}  wrote {args.out}")
    if not args.quick and fig11["speedup_workers4"] < 2.0:
        print("WARNING: fig11 workers=4 speedup below the 2x target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
