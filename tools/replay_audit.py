"""Replay audit: the guarantees only a fresh interpreter can check (CI gate).

Everything that can run in one process is a tier-1 test.  Two promises
cannot: ``PYTHONHASHSEED`` is fixed at interpreter start, and a crash is
only real if the process dies of ``SIGKILL``.  Both checks run the
paper's Figure-1 workload in child interpreters and diff one list of
observables (:data:`OBSERVABLES`):

1. **hash order** — the plain run under ``PYTHONHASHSEED`` 0 and 42; a
   ``set`` iteration leaking ``str`` hash order into the region schedule
   shows here and in no single-process test;
2. **SIGKILL/resume** (docs/ARCHITECTURE.md §10) — per seed, a faulted,
   journaled run to completion is the reference.  For each of three kill
   points a child ``SIGKILL``s itself right after the N-th journal
   record hits disk (no ``atexit``, no flush-on-close: what a power cut
   leaves), and another child resumes from its directory.  The resumes
   run under the *other* hash seed, so each also shows that the faulted,
   journaled path does not depend on hash order.  The first kill point
   of each seed has torn garbage appended to the journal tail before the
   resume; ``open_resume`` must truncate it.

Usage::

    python -m tools.replay_audit                 # seeds 11 23 47
    python -m tools.replay_audit --seeds 7 9

Exit status 0 iff every run matches its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

#: The two interpreter hash seeds: references run under the first.
HASH_SEEDS = (0, 42)
#: Input and fault seed, and rows per table, of the plain run.
PLAIN_SEED, PLAIN_ROWS = 23, 150
#: Rows per table of the faulted, journaled runs.
FAULTED_ROWS = 120
DEFAULT_SEEDS = (11, 23, 47)
KILL_FRACTIONS = (0.2, 0.55, 0.85)

#: Observables every run is diffed on, in report order.
OBSERVABLES = (
    "region_trace",
    "skyline_comparisons",
    "coarse_comparisons",
    "elapsed",
    "reported",
    "degraded",
)


def build_inputs(seed: int, rows: int, journal_dir: "str | None"):
    """Figure-1 inputs; with ``journal_dir``, the config is faulted
    (seeded region failures and stragglers under recovery) and
    journaled there, else plain."""
    from repro.bench.figures import figure1_workload
    from repro.contracts import c2
    from repro.core import CAQEConfig
    from repro.datagen import generate_pair
    from repro.robustness.faults import FaultConfig, FaultPlan
    from repro.robustness.recovery import RetryPolicy

    workload = figure1_workload()
    pair = generate_pair("independent", rows, 4, selectivity=0.05, seed=seed)
    contracts = {q.name: c2(scale=100.0) for q in workload}
    if journal_dir is None:
        return pair, workload, contracts, CAQEConfig()
    plan = FaultPlan(
        FaultConfig(
            seed=seed,
            region_failure_rate=0.12,
            persistent_failure_rate=0.04,
            straggler_rate=0.2,
            straggler_factor=4.0,
        )
    )
    config = CAQEConfig(
        enable_recovery=True,
        retry_policy=RetryPolicy(max_attempts=3),
        fault_plan=plan,
        enable_journal=True,
        journal_dir=journal_dir,
        checkpoint_every_regions=7,
    )
    return pair, workload, contracts, config


def observables(result) -> "dict[str, object]":
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


def child(spec: dict) -> "dict[str, object]":
    """One run in this interpreter, described by ``spec``: ``mode`` is
    ``plain``, ``run`` (faulted, journaled; ``SIGKILL`` after
    ``kill_after`` journal records when given) or ``resume`` (after
    appending torn garbage to the journal when ``torn_tail`` is set)."""
    from repro.core import CAQE
    from repro.durability import resume_run
    from repro.durability.journal import JOURNAL_FILENAME, RegionJournal

    mode, journal_dir = spec["mode"], spec.get("journal_dir")
    pair, workload, contracts, config = build_inputs(
        spec["seed"], spec["rows"], journal_dir
    )
    if mode == "resume":
        if spec.get("torn_tail"):
            with (Path(journal_dir) / JOURNAL_FILENAME).open("ab") as handle:
                handle.write(b'deadbeef {"seq": 99')
        result = resume_run(pair.left, pair.right, workload, contracts, config)
        return observables(result)
    kill_after = spec.get("kill_after", 0)
    if kill_after:
        original_append = RegionJournal.append
        records = [0]

        def lethal_append(self, record):  # pragma: no cover - dies mid-run
            original_append(self, record)
            if "seq" in record:
                records[0] += 1
                if records[0] >= kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)

        RegionJournal.append = lethal_append  # type: ignore[method-assign]
    result = CAQE(config).run(pair.left, pair.right, workload, contracts)
    payload = observables(result)
    if mode == "run":
        with (Path(journal_dir) / JOURNAL_FILENAME).open("rb") as handle:
            payload["journal_records"] = sum(1 for _ in handle) - 1  # header
    return payload


def spawn(spec: dict, hash_seed: int, *, killed: bool = False) -> "dict | None":
    """Run :func:`child` in a fresh interpreter under ``hash_seed`` and
    decode its payload.  With ``killed`` the child must die of
    ``SIGKILL`` (``None`` is returned): one that survives its own kill
    proves nothing."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_ROOT), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tools.replay_audit", "--child", json.dumps(spec)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    what = f"{spec}, PYTHONHASHSEED={hash_seed}"
    if killed:
        if proc.returncode != -signal.SIGKILL:
            raise RuntimeError(
                f"expected child ({what}) to die of SIGKILL, "
                f"got rc={proc.returncode}:\n{proc.stderr}"
            )
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"child ({what}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def diff(
    label: str,
    reference: "dict[str, object]",
    other: "dict[str, object]",
    limit: int = 400,
) -> "list[str]":
    """Print one verdict line for ``other`` against ``reference`` (and
    both values of every drifted observable); return the drifted ones."""
    drifted = [key for key in OBSERVABLES if other[key] != reference[key]]
    if not drifted:
        print(f"  ok   {label}")
        return drifted
    print(f"  FAIL {label}: drift in {', '.join(drifted)}")
    for key in drifted:
        for name, payload in (("reference", reference), ("got", other)):
            text = json.dumps(payload[key])
            if len(text) > limit:
                text = text[:limit] + "...(truncated)"
            print(f"    {key} {name}: {text}")
    return drifted


def kill_points(total: int, seed: int) -> "list[int]":
    """Seed-jittered journal record counts, strictly inside a run of
    ``total`` records (``total >= 2``)."""
    points = {
        max(1, min(total - 1, round(total * fraction) + (seed + index) % 3))
        for index, fraction in enumerate(KILL_FRACTIONS)
    }
    return sorted(points)


def audit(seeds: "list[int]") -> "list[str]":
    """Both checks; the labels of the runs that drifted."""
    reference_seed, other_seed = HASH_SEEDS
    failures: "list[str]" = []
    plain = {"mode": "plain", "seed": PLAIN_SEED, "rows": PLAIN_ROWS}
    runs = [spawn(plain, hash_seed) for hash_seed in HASH_SEEDS]
    print(f"hash order (plain run, {len(runs[0]['region_trace'])} regions):")
    label = f"PYTHONHASHSEED={other_seed} matches PYTHONHASHSEED={reference_seed}"
    if diff(label, runs[0], runs[1]):
        failures.append(f"plain run, {label}")

    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="caqe-ref-") as ref_dir:
            spec = {"mode": "run", "seed": seed, "rows": FAULTED_ROWS,
                    "journal_dir": ref_dir}
            reference = spawn(spec, reference_seed)
        assert reference is not None
        total = int(reference.pop("journal_records"))
        print(f"seed {seed} (faulted, journaled; {total} journal records):")
        for index, kill_after in enumerate(kill_points(total, seed)):
            torn = index == 0
            with tempfile.TemporaryDirectory(prefix="caqe-kill-") as crash_dir:
                spec = {"mode": "run", "seed": seed, "rows": FAULTED_ROWS,
                        "journal_dir": crash_dir, "kill_after": kill_after}
                spawn(spec, reference_seed, killed=True)
                spec = {"mode": "resume", "seed": seed, "rows": FAULTED_ROWS,
                        "journal_dir": crash_dir, "torn_tail": torn}
                resumed = spawn(spec, other_seed)
            assert resumed is not None
            label = (
                f"SIGKILL after record {kill_after}/{total}"
                + (" (+torn tail)" if torn else "")
                + f", resumed under PYTHONHASHSEED={other_seed}"
            )
            if diff(label, reference, resumed):
                failures.append(f"seed {seed}, {label}")
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="replay-audit",
        description="Figure-1 runs under two hash seeds, and SIGKILL'd "
        "journaled runs resumed",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=list(DEFAULT_SEEDS),
        help="input/fault seeds of the SIGKILL/resume check "
        "(default: 11 23 47)",
    )
    parser.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(child(json.loads(args.child))))
        return 0

    failures = audit(args.seeds)
    if failures:
        print(f"replay-audit: FAIL — {len(failures)} divergent run(s)")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        "replay-audit: OK — the plain run is identical under both hash "
        f"seeds and every SIGKILL'd run resumed bit-identically "
        f"({len(args.seeds)} seed(s), torn-tail corner included)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
