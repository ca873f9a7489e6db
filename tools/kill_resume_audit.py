"""SIGKILL/resume audit for the write-ahead region journal (CI gate).

The durability layer's promise (docs/ARCHITECTURE.md §10) is that a run
killed at *any* instant resumes **bit-identically**: the journal is the
single source of truth, a crash between an fsync'd record and its
snapshot loses nothing, and the verify-then-append resume protocol
re-derives the exact observables the uninterrupted run would have
produced.  Unit tests simulate crashes by truncating directories; this
audit delivers the real thing:

1. run the Figure-1 workload (with an active fault plan, so the journal
   carries retry/quarantine history too) in a child interpreter to
   completion — the **reference** observables;
2. for each of three kill points, re-run in a fresh child that
   ``SIGKILL``s itself immediately after the N-th journal record hits
   disk — no ``atexit``, no flush-on-close, exactly what a power cut
   leaves behind;
3. resume from the survivor directory in yet another child and diff
   every pinned observable: ``region_trace``, skyline + coarse
   comparison counts, the virtual clock, per-query reported identity
   sets, and degraded reports;
4. one extra corner appends torn garbage to the journal tail before
   resuming — ``open_resume`` must truncate it and still match.

Usage::

    python -m tools.kill_resume_audit                # 3 seeds x 3 kills
    python -m tools.kill_resume_audit --quick        # 1 seed  x 2 kills
    python -m tools.kill_resume_audit --seeds 7 9 11

Exit status 0 iff every resumed run is bit-identical to its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

from tools._proc import SRC_ROOT, spawn_module

DEFAULT_SEEDS = (11, 23, 47)
KILL_FRACTIONS = (0.2, 0.55, 0.85)

#: Observables diffed between reference and resumed runs, in report order.
OBSERVABLES = (
    "region_trace",
    "skyline_comparisons",
    "coarse_comparisons",
    "elapsed",
    "reported",
    "degraded",
)


def _build_inputs(seed: int):
    """Deterministic inputs: Figure-1 workload + a seeded fault plan."""
    from repro.bench.figures import figure1_workload
    from repro.contracts import c2
    from repro.core import CAQEConfig
    from repro.datagen import generate_pair
    from repro.robustness.faults import FaultConfig, FaultPlan
    from repro.robustness.recovery import RetryPolicy

    workload = figure1_workload()
    pair = generate_pair("independent", 120, 4, selectivity=0.05, seed=seed)
    contracts = {q.name: c2(scale=100.0) for q in workload}
    plan = FaultPlan(
        FaultConfig(
            seed=seed,
            region_failure_rate=0.12,
            persistent_failure_rate=0.04,
            straggler_rate=0.2,
            straggler_factor=4.0,
        )
    )

    def config(journal_dir: str) -> CAQEConfig:
        return CAQEConfig(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
            enable_journal=True,
            journal_dir=journal_dir,
            checkpoint_every_regions=7,
        )

    return pair, workload, contracts, config


def _observables(result) -> "dict[str, object]":
    return {
        "region_trace": list(result.stats.region_trace),
        "skyline_comparisons": int(result.stats.skyline_comparisons),
        "coarse_comparisons": int(result.stats.coarse_comparisons),
        "elapsed": float(result.stats.elapsed),
        "reported": {
            name: sorted([int(a), int(b)] for a, b in pairs)
            for name, pairs in sorted(result.reported.items())
        },
        "degraded": {
            name: sorted(
                [int(r.region_id), str(r.reason), float(r.timestamp)]
                for r in reports
            )
            for name, reports in sorted(result.degraded.items())
            if reports
        },
    }


def child_run(seed: int, journal_dir: str, kill_after: int) -> int:
    """Run once; with ``kill_after`` > 0, SIGKILL after that many records."""
    from repro.core import CAQE
    from repro.durability import journal as journal_mod

    pair, workload, contracts, config = _build_inputs(seed)

    if kill_after > 0:
        original_append = journal_mod.RegionJournal.append
        state = {"records": 0}

        def lethal_append(self, record):  # pragma: no cover - dies mid-run
            original_append(self, record)
            if "seq" in record:
                state["records"] += 1
                if state["records"] >= kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)

        journal_mod.RegionJournal.append = lethal_append  # type: ignore[method-assign]

    result = CAQE(config(journal_dir)).run(
        pair.left, pair.right, workload, contracts
    )
    payload = _observables(result)
    payload["journal_records"] = _count_records(journal_dir)
    print(json.dumps(payload))
    return 0


def child_resume(seed: int, journal_dir: str) -> int:
    """Resume from a crashed directory and print the final observables."""
    from repro.durability import resume_run

    pair, workload, contracts, config = _build_inputs(seed)
    result = resume_run(
        pair.left, pair.right, workload, contracts, config(journal_dir)
    )
    print(json.dumps(_observables(result)))
    return 0


def _count_records(journal_dir: str) -> int:
    from repro.durability.journal import JOURNAL_FILENAME

    path = Path(journal_dir) / JOURNAL_FILENAME
    with path.open("rb") as handle:
        return max(0, sum(1 for _ in handle) - 1)  # minus the header


def _spawn(args: "list[str]", expect_kill: bool = False) -> "dict | None":
    return spawn_module(
        "tools.kill_resume_audit",
        args,
        expect_signal=signal.SIGKILL if expect_kill else None,
    )


def _kill_points(total: int, seed: int, fractions) -> "list[int]":
    """Seed-jittered journal offsets, strictly inside the run."""
    points = []
    for index, fraction in enumerate(fractions):
        jitter = (seed + index) % 3
        points.append(max(1, min(total - 1, round(total * fraction) + jitter)))
    return sorted(set(points))


def audit_seed(
    seed: int,
    fractions,
    failures: "list[str]",
    torn_tail: bool,
) -> None:
    print(f"seed {seed}:")
    with tempfile.TemporaryDirectory(prefix="caqe-ref-") as ref_dir:
        reference = _spawn(
            [
                "--child-run",
                "--seed",
                str(seed),
                "--journal-dir",
                ref_dir,
            ]
        )
    assert reference is not None
    total = int(reference.pop("journal_records"))
    print(f"  reference run: {total} journal records")

    for kill_after in _kill_points(total, seed, fractions):
        with tempfile.TemporaryDirectory(prefix="caqe-kill-") as crash_dir:
            _spawn(
                [
                    "--child-run",
                    "--seed",
                    str(seed),
                    "--journal-dir",
                    crash_dir,
                    "--kill-after",
                    str(kill_after),
                ],
                expect_kill=True,
            )
            if torn_tail:
                _append_torn_tail(crash_dir)
            resumed = _spawn(
                [
                    "--child-resume",
                    "--seed",
                    str(seed),
                    "--journal-dir",
                    crash_dir,
                ]
            )
        assert resumed is not None
        drifted = [
            key for key in OBSERVABLES if resumed[key] != reference[key]
        ]
        label = (
            f"SIGKILL after record {kill_after}/{total}"
            + (" (+torn tail)" if torn_tail else "")
        )
        if drifted:
            print(f"  FAIL {label}: drift in {', '.join(drifted)}")
            failures.append(f"seed {seed}, {label}: {', '.join(drifted)}")
        else:
            print(f"  ok   {label}: resumed bit-identically")
        torn_tail = False  # one torn-tail corner per seed is plenty


def _append_torn_tail(journal_dir: str) -> None:
    """Simulate a write torn mid-line by the crash."""
    from repro.durability.journal import JOURNAL_FILENAME

    path = Path(journal_dir) / JOURNAL_FILENAME
    with path.open("ab") as handle:
        handle.write(b'deadbeef {"seq": 99')


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kill-resume-audit",
        description="SIGKILL a journaled run at random offsets and resume",
    )
    parser.add_argument("--child-run", action="store_true", help="internal")
    parser.add_argument("--child-resume", action="store_true", help="internal")
    parser.add_argument("--seed", type=int, default=11, help="internal")
    parser.add_argument("--journal-dir", default=None, help="internal")
    parser.add_argument(
        "--kill-after",
        type=int,
        default=0,
        help="internal: SIGKILL after this many journal records",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=list(DEFAULT_SEEDS),
        help="input/fault seeds to sweep (default: 11 23 47)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one seed, two kill points (local smoke)",
    )
    args = parser.parse_args(argv)

    if str(SRC_ROOT) not in sys.path:
        sys.path.insert(0, str(SRC_ROOT))

    if args.child_run or args.child_resume:
        if args.journal_dir is None:
            parser.error("--journal-dir is required for child modes")
        if args.child_run:
            return child_run(args.seed, args.journal_dir, args.kill_after)
        return child_resume(args.seed, args.journal_dir)

    seeds = args.seeds[:1] if args.quick else args.seeds
    fractions = KILL_FRACTIONS[:2] if args.quick else KILL_FRACTIONS
    failures: "list[str]" = []
    for seed in seeds:
        audit_seed(seed, fractions, failures, torn_tail=True)
    if failures:
        print(f"kill-resume-audit: FAIL — {len(failures)} divergent resume(s)")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        "kill-resume-audit: OK — every SIGKILL'd run resumed bit-identically "
        f"({len(seeds)} seed(s) x {len(fractions)} kill point(s), torn-tail "
        "corner included)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
