#!/usr/bin/env python
"""Performance-trajectory harness for the CAQE engine.

Times the Figure 9 (independent, C2) workload, a Figure 11-style
workload-size sweep, and a cardinality scale sweep (1x/4x/16x) that
tracks throughput headroom toward the paper's N = 500 K regime, and
writes machine-readable results (wall time plus the exact observables:
comparisons, virtual time, regions, satisfaction) to ``BENCH_perf.json``.
The observables are deterministic functions of the code, so
``tools/bench_gate.py`` gates them exactly against ``BENCH_history.jsonl``;
wall times are paper-figure context, not evidence for performance claims
(``perfbench/`` is the court for those).

Run directly (not under pytest)::

    python benchmarks/bench_perf_trajectory.py           # full sizes
    python benchmarks/bench_perf_trajectory.py --quick   # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.config import (  # noqa: E402
    ExperimentConfig,
    experiment_for,
    scale_factor,
)
from repro.bench.figures import workload_of_size  # noqa: E402
from repro.bench.runner import (  # noqa: E402
    calibrated_contracts,
    make_pair,
    make_workload,
    reference_time,
)
from repro.core import CAQE  # noqa: E402


def _quick_cardinality() -> int:
    """Quick-mode base cardinality; still honours ``REPRO_SCALE``.

    The CI smoke jobs run ``--quick`` under ``REPRO_SCALE`` overrides, so
    the quick base must scale with the environment or every scaled smoke
    run would silently measure the same 300-row workload.
    """
    return int(300 * scale_factor())


def _time_run(pair, workload, contracts, config: ExperimentConfig) -> dict:
    """Run the engine once; report wall time and the exact observables."""
    start = time.perf_counter()
    result = CAQE(config.caqe).run(pair.left, pair.right, workload, contracts)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "skyline_comparisons": result.stats.skyline_comparisons,
        "virtual_time": result.stats.elapsed,
        "regions_processed": result.stats.regions_processed,
        "average_satisfaction": round(result.average_satisfaction(), 6),
    }


def bench_fig9_cell(quick: bool) -> dict:
    """The Figure 9 independent / C2 cell."""
    config = experiment_for("independent")
    if quick:
        config = replace(config, cardinality=_quick_cardinality())
    workload = make_workload(config, "C2")
    pair = make_pair(config)
    t_ref = reference_time(pair, workload, config)
    contracts = calibrated_contracts("C2", workload, t_ref)
    out = _time_run(pair, workload, contracts, config)
    out["scenario"] = {
        "figure": "9b",
        "distribution": config.distribution,
        "contract_class": "C2",
        "cardinality": config.cardinality,
        "queries": len(workload.queries),
    }
    return out


def bench_fig11_sweep(quick: bool) -> "list[dict]":
    """Figure 11-style workload-size sweep (C2, independent)."""
    config = experiment_for("independent")
    if quick:
        config = replace(config, cardinality=_quick_cardinality())
        sizes = (3, 6)
    else:
        sizes = (3, 6, 11)
    pair = make_pair(config)
    single = workload_of_size(1, "C2", config.dims)
    fixed_t_ref = 3.0 * reference_time(pair, single, config)
    sweep = []
    for size in sizes:
        workload = workload_of_size(size, "C2", config.dims)
        contracts = calibrated_contracts("C2", workload, fixed_t_ref)
        cell = _time_run(pair, workload, contracts, config)
        cell["scenario"] = {
            "figure": "11",
            "distribution": config.distribution,
            "contract_class": "C2",
            "cardinality": config.cardinality,
            "queries": size,
        }
        sweep.append(cell)
    return sweep


def bench_scale_sweep(quick: bool) -> "list[dict]":
    """Scale headroom: the fig9 cell at growing cardinality multipliers.

    Each cell reports throughput relative to the 1x cell from the *same
    run*, so the gate can catch superlinear blow-ups (a flat-array
    regression shows up as falling relative throughput long before
    absolute wall times mean anything across machines).

    Calibration: the blocking JFSL reference run is itself superlinear
    in cardinality (it materialises the whole join into one skyline
    batch), so re-running it per scale would time the *baseline*, not
    the engine.  The sweep calibrates ``T_ref`` once at the 1x cell and
    scales it linearly with cardinality — deterministic, cheap, and the
    contract regime stays comparable across cells.
    """
    base = experiment_for("independent")
    if quick:
        base = replace(base, cardinality=_quick_cardinality())
    scales = (1, 4) if quick else (1, 4, 16)
    sweep = []
    base_throughput = None
    base_t_ref = None
    for scale in scales:
        config = replace(base, cardinality=base.cardinality * scale)
        workload = make_workload(config, "C2")
        pair = make_pair(config)
        if base_t_ref is None:
            base_t_ref = reference_time(pair, workload, config)
        contracts = calibrated_contracts("C2", workload, base_t_ref * scale)
        cell = _time_run(pair, workload, contracts, config)
        throughput = config.cardinality / max(cell["wall_s"], 1e-9)
        if base_throughput is None:
            base_throughput = throughput
        sweep.append(
            {
                "scale": scale,
                "cardinality": config.cardinality,
                "throughput_rows_s": round(throughput, 1),
                "relative_throughput": round(throughput / base_throughput, 3),
                **cell,
            }
        )
    return sweep


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller cardinalities and fewer sweep points (CI smoke run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json",
        help="output JSON path (default: repo-root BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    fig9 = bench_fig9_cell(args.quick)
    fig11 = bench_fig11_sweep(args.quick)
    scale_sweep = bench_scale_sweep(args.quick)
    report = {
        "bench": "perf_trajectory",
        "quick": args.quick,
        "repro_scale": scale_factor(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fig9_independent_c2": fig9,
        "fig11_size_sweep": fig11,
        "scale_sweep": scale_sweep,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"Figure 9 independent/C2 ({fig9['scenario']['cardinality']} rows): "
        f"wall={fig9['wall_s']:.2f}s  "
        f"comparisons={fig9['skyline_comparisons']}"
    )
    for cell in fig11:
        print(
            f"Figure 11 sweep |S_Q|={cell['scenario']['queries']}: "
            f"wall={cell['wall_s']:.2f}s  "
            f"comparisons={cell['skyline_comparisons']}"
        )
    for cell in scale_sweep:
        print(
            f"Scale sweep {cell['scale']}x (N={cell['cardinality']}): "
            f"wall={cell['wall_s']:.2f}s, "
            f"{cell['throughput_rows_s']:.0f} rows/s "
            f"({cell['relative_throughput']:.2f} of 1x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
