"""Fault-matrix chaos smoke: ``python -m repro.robustness.chaos --smoke``.

Runs the paper's Figure-1 workload through a matrix of fault corners and
checks the robustness layer's contract on each:

* **noop** — robustness switches on, no faults: bit-identical to the
  baseline engine (trace, charged comparisons, virtual clock, reported
  identity sets);
* **corrupt** — corrupted inputs + sanitizer: the reported answer equals
  the reference skyline of the *sanitized* tables (quarantine exactly
  absorbs the corruption);
* **failures** — transient + persistent region failures under recovery:
  the run completes, every query is answered, quarantined regions yield
  degraded reports;
* **stragglers+budget** — virtual-clock stragglers force the per-query
  budget to lapse: degradation fires and every query still receives a
  complete (degraded-flagged) answer;
* **everything** — all of the above at once, executed twice to prove
  determinism under identical fault seeds.

With ``--journal`` every fault corner additionally runs under the
write-ahead region journal (a fresh scratch directory per run) while the
baseline stays plain — so the noop invariant then also proves
journal-on == journal-off bit-identity under every fault corner, and the
determinism invariant proves journalled runs replay identically.

Any violated invariant prints a ``FAIL`` line and the process exits 1 —
the shape CI's ``chaos`` job consumes.
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile

from repro.bench.figures import figure1_workload
from repro.contracts.presets import c2
from repro.core.caqe import CAQE, CAQEConfig, RunResult
from repro.query import reference_evaluate
from repro.query.workload import Workload
from repro.datagen import generate_pair
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy
from repro.robustness.sanitize import sanitize_relation


def _observables(result: RunResult) -> "tuple[object, ...]":
    """Everything that must match between two same-seed runs."""
    return (
        result.stats.region_trace,
        result.stats.skyline_comparisons,
        result.stats.elapsed,
        result.reported,
        result.degraded,
        result.stats.summary(),
    )


class _Checker:
    """Collects pass/fail lines so one bad corner doesn't hide the rest."""

    def __init__(self) -> None:
        self.failures: "list[str]" = []

    def check(self, ok: bool, label: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            self.failures.append(label)


def run_matrix(
    seed: int,
    cardinality: int,
    checker: _Checker,
    journal: bool = False,
) -> None:
    """Run every fault corner for one seed and record its invariants."""
    print(f"seed {seed}{' (journaled)' if journal else ''}:")
    pair = generate_pair(
        "independent", cardinality, 4, selectivity=0.05, seed=seed
    )
    workload = figure1_workload()
    contracts = {q.name: c2(scale=100.0) for q in workload}

    def execute(config: CAQEConfig) -> RunResult:
        if not journal:
            return CAQE(config).run(
                pair.left, pair.right, workload, contracts
            )
        with tempfile.TemporaryDirectory(prefix="caqe-chaos-") as scratch:
            journaled = dataclasses.replace(
                config, enable_journal=True, journal_dir=scratch
            )
            return CAQE(journaled).run(
                pair.left, pair.right, workload, contracts
            )

    # The baseline always runs plain: under --journal the noop invariant
    # below then proves journal-on == journal-off bit-identity.
    baseline = CAQE(CAQEConfig()).run(
        pair.left, pair.right, workload, contracts
    )

    # noop: switches on, no faults -> bit-identical to baseline.
    noop = execute(CAQEConfig(enable_sanitize=True, enable_recovery=True))
    checker.check(
        _observables(noop) == _observables(baseline),
        "noop corner is bit-identical to the baseline engine",
    )

    # corrupt: sanitizer absorbs injected corruption exactly.
    corrupt_plan = FaultPlan(FaultConfig(seed=seed, corrupt_fraction=0.05))
    corrupted = execute(
        CAQEConfig(enable_sanitize=True, fault_plan=corrupt_plan)
    )
    clean_left, _ = sanitize_relation(
        corrupt_plan.corrupt_relation(pair.left, 0)[0]
    )
    clean_right, _ = sanitize_relation(
        corrupt_plan.corrupt_relation(pair.right, 1)[0]
    )
    reference_ok = all(
        corrupted.reported[q.name]
        == reference_evaluate(q, clean_left, clean_right).skyline_pairs
        for q in workload
    )
    checker.check(
        corrupted.stats.tuples_quarantined > 0,
        "corruption corner quarantines tuples",
    )
    checker.check(
        reference_ok,
        "corruption corner matches the sanitized-table reference skyline",
    )

    # failures: recovery retries/quarantines but answers everyone.
    failure_plan = FaultPlan(
        FaultConfig(
            seed=seed,
            region_failure_rate=0.15,
            persistent_failure_rate=0.05,
        )
    )
    failed = execute(
        CAQEConfig(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=failure_plan,
        )
    )
    checker.check(
        failed.stats.region_retries > 0,
        "failure corner exercises the retry path",
    )
    checker.check(
        _answered_everywhere(failed, workload),
        "failure corner leaves no query unanswered",
    )
    checker.check(
        _no_duplicate_reports(failed, workload),
        "failure corner reports no duplicate identities",
    )

    # stragglers + budget: degradation fires, answers stay complete.
    straggler_plan = FaultPlan(
        FaultConfig(seed=seed, straggler_rate=0.3, straggler_factor=6.0)
    )
    budget_config = CAQEConfig(
        enable_recovery=True,
        fault_plan=straggler_plan,
        query_time_budget=float(cardinality) * 150.0,
    )
    degraded_run = execute(budget_config)
    checker.check(
        _answered_everywhere(degraded_run, workload),
        "budget corner leaves no query unanswered",
    )

    # everything, twice: determinism under identical fault seeds.
    chaos_plan = FaultPlan(
        FaultConfig(
            seed=seed,
            corrupt_fraction=0.04,
            region_failure_rate=0.1,
            persistent_failure_rate=0.04,
            straggler_rate=0.2,
            straggler_factor=4.0,
        )
    )
    chaos_config = CAQEConfig(
        enable_sanitize=True,
        enable_recovery=True,
        fault_plan=chaos_plan,
        query_time_budget=float(cardinality) * 400.0,
    )
    first = execute(chaos_config)
    second = execute(chaos_config)
    checker.check(
        _observables(first) == _observables(second),
        "chaos corner replays identically under the same fault seed",
    )
    checker.check(
        _answered_everywhere(first, workload),
        "chaos corner leaves no query unanswered",
    )
    checker.check(
        _no_duplicate_reports(first, workload),
        "chaos corner reports no duplicate identities",
    )


def _answered_everywhere(result: RunResult, workload: Workload) -> bool:
    """Every query got tuple-level results and/or degraded-flagged bounds."""
    return all(
        bool(result.reported[q.name]) or result.is_degraded(q.name)
        for q in workload
    )


def _no_duplicate_reports(result: RunResult, workload: Workload) -> bool:
    """Progressive report streams never repeat an identity."""
    for q in workload:
        keys = result.logs[q.name].keys
        if len(keys) != len(set(keys)):
            return False
    return True


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.robustness.chaos",
        description="CAQE fault-matrix chaos smoke suite",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small cardinality for CI (the default run is also modest)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11, 23, 47],
        help="fault/base seeds to sweep (default: 11 23 47)",
    )
    parser.add_argument(
        "--cardinality",
        type=int,
        default=None,
        help="rows per base table (default: 80 with --smoke, 150 without)",
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="run every fault corner under the write-ahead region "
        "journal (baseline stays plain, proving on==off bit-identity)",
    )
    args = parser.parse_args(argv)
    cardinality = args.cardinality or (80 if args.smoke else 150)

    checker = _Checker()
    for seed in args.seeds:
        run_matrix(seed, cardinality, checker, journal=args.journal)
    if checker.failures:
        print(f"chaos: {len(checker.failures)} invariant(s) violated")
        return 1
    print("chaos: all invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
