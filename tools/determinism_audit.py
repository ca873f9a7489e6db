"""Cross-``PYTHONHASHSEED`` determinism audit (regression gate).

PR 1 made "bit-identical across all four ablation corners" a tested
guarantee — but all of those runs share one interpreter, so a ``set``
iteration leaking ``str`` hash order into the region schedule would never
show up.  ``PYTHONHASHSEED`` is baked in at interpreter start, so this
audit launches **two child interpreters** with different hash seeds, runs
the paper's Figure-1 workload in each, and diffs every observable the
repo's equivalence tests pin down:

* ``ExecutionStats.region_trace`` — the exact region schedule;
* charged comparison counts (skyline + coarse) and the virtual clock;
* per-query reported identity sets.

Usage::

    python -m tools.determinism_audit              # audit (two children)
    python -m tools.determinism_audit --seeds 7 1234
    python -m tools.determinism_audit --child      # internal: one run

Exit status 0 iff every observable matches.  Run by CI and by
``python -m tools.caqe_check --determinism``.
"""

from __future__ import annotations

import argparse
import json
import sys

from tools._proc import SRC_ROOT, spawn_module

DEFAULT_SEEDS = (0, 42)

#: Observables diffed between the two runs, in report order.
OBSERVABLES = (
    "region_trace",
    "skyline_comparisons",
    "coarse_comparisons",
    "elapsed",
    "reported",
)


def run_workload() -> "dict[str, object]":
    """One Figure-1 run under the current interpreter's hash seed."""
    from repro.bench.figures import figure1_workload
    from repro.contracts import c2
    from repro.core import CAQE, CAQEConfig
    from repro.datagen import generate_pair

    workload = figure1_workload()
    pair = generate_pair("independent", 150, 4, selectivity=0.05, seed=23)
    contracts = {q.name: c2(scale=100.0) for q in workload}
    result = CAQE(CAQEConfig()).run(pair.left, pair.right, workload, contracts)
    return {
        "region_trace": list(result.stats.region_trace),
        "skyline_comparisons": int(result.stats.skyline_comparisons),
        "coarse_comparisons": int(result.stats.coarse_comparisons),
        "elapsed": float(result.stats.elapsed),
        "reported": {
            name: sorted([int(a), int(b)] for a, b in pairs)
            for name, pairs in sorted(result.reported.items())
        },
    }


def spawn_child(hash_seed: int) -> "dict[str, object]":
    """Run ``--child`` in a fresh interpreter under ``hash_seed``."""
    payload = spawn_module(
        "tools.determinism_audit",
        ["--child"],
        env_extra={"PYTHONHASHSEED": str(hash_seed)},
        label=f"determinism run, PYTHONHASHSEED={hash_seed}",
    )
    assert payload is not None
    return payload


def diff_runs(
    runs: "dict[int, dict[str, object]]",
) -> "list[str]":
    """Human-readable divergence report; empty iff deterministic."""
    seeds = sorted(runs)
    reference_seed = seeds[0]
    reference = runs[reference_seed]
    problems = []
    for seed in seeds[1:]:
        for key in OBSERVABLES:
            if runs[seed][key] != reference[key]:
                problems.append(
                    f"{key} diverges between PYTHONHASHSEED="
                    f"{reference_seed} and PYTHONHASHSEED={seed}:\n"
                    f"  {reference_seed}: {_compact(reference[key])}\n"
                    f"  {seed}: {_compact(runs[seed][key])}"
                )
    return problems


def _compact(value: object, limit: int = 400) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "...(truncated)"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="determinism-audit",
        description="Figure-1 workload under two PYTHONHASHSEED values",
    )
    parser.add_argument(
        "--child",
        action="store_true",
        help="internal: run once and print observables as JSON",
    )
    parser.add_argument(
        "--seeds",
        nargs=2,
        type=int,
        default=list(DEFAULT_SEEDS),
        metavar=("SEED_A", "SEED_B"),
        help="the two PYTHONHASHSEED values (default: 0 42)",
    )
    args = parser.parse_args(argv)

    if args.child:
        if str(SRC_ROOT) not in sys.path:
            sys.path.insert(0, str(SRC_ROOT))
        print(json.dumps(run_workload()))
        return 0

    runs = {seed: spawn_child(seed) for seed in args.seeds}
    problems = diff_runs(runs)
    if problems:
        print("determinism-audit: FAIL")
        for problem in problems:
            print(problem)
        return 1
    trace = runs[args.seeds[0]]["region_trace"]
    print(
        "determinism-audit: OK — region_trace "
        f"({len(trace)} regions), comparison counts, clock, and "
        f"reported identity sets identical under PYTHONHASHSEED="
        f"{args.seeds[0]} and {args.seeds[1]}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
