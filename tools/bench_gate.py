"""Perf-regression gate over the quick benchmark matrix (ROADMAP item 5).

Runs the quick benchmarks (``bench_perf_trajectory`` and, unless
``--no-serving``, ``bench_serving``), distils one compact record, and
gates it against ``BENCH_history.jsonl``:

* **determinism** — ``skyline_comparisons`` / ``virtual_time`` /
  ``regions_processed`` / ``average_satisfaction`` must match the most
  recent passing history entry *exactly*.  These observables are
  deterministic functions of the code (not the machine), so any drift is
  a semantics change that slipped past the equivalence suites.
* **performance** — wall-clock is machine- and load-dependent, so the
  gate never compares absolute seconds across runs.  It compares a
  *within-run* ratio (the scale sweep's throughput relative to its own
  1x cell) against the median of recent passing entries, with a noise
  tolerance: a storage-layer blow-up shows up as falling relative
  throughput at 4x/16x cardinality.  (Older history entries also carry
  a ``speedup`` of the engine over its since-deleted scalar/naive mode
  and a ``parallel`` section from the since-deleted worker pool;
  neither is produced or gated any more.)

``REPRO_SCALE`` overrides rescale every cardinality, so each scale forms
its own baseline lineage in the history file — the CI scaled smoke job
(``REPRO_SCALE=4``) gates against scale-4 entries only.

Every run — pass or fail — is appended to the history file (audit
trail); only ``status: "pass"`` entries form future baselines.  An empty
or missing history seeds itself and passes.

Usage::

    PYTHONPATH=src python -m tools.bench_gate              # run + gate + append
    PYTHONPATH=src python -m tools.bench_gate --no-append  # dry gate
    PYTHONPATH=src python -m tools.bench_gate --skip-run --perf BENCH_quick.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Observables that must be bit-stable across machines for a quick run.
INVARIANT_KEYS = (
    "skyline_comparisons",
    "virtual_time",
    "regions_processed",
    "average_satisfaction",
)

#: History entries consulted for the performance baseline.
BASELINE_WINDOW = 5


def _run_quick_bench(
    script: str, out: Path, extra_args: "tuple[str, ...]" = ()
) -> dict:
    """Run one benchmark script with ``--quick`` and load its report."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / script), "--quick",
         "--out", str(out), *extra_args],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{script} --quick failed (exit {proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(out.read_text())


def _git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _invariants(cell: dict) -> dict:
    return {k: cell[k] for k in INVARIANT_KEYS}


def distil_serving(serving: dict) -> dict:
    """Compact per-arm record from a ``bench_serving`` report.

    Everything kept here is a deterministic function of the code (the
    load generator runs on the virtual clock), so the gate can require
    exact matches across machines.
    """
    return {
        f"{arm['policy']}@{arm['seed']}": {
            "fingerprint": arm["fingerprint"],
            "p50": arm["satisfaction_p50"],
            "p99": arm["satisfaction_p99"],
            "shed_rate": arm["shed_rate"],
            "brownout_rate": arm["brownout_rate"],
            "unanswered": arm["unanswered"],
            "deterministic": arm.get("deterministic", True),
        }
        for arm in serving.get("arms", [])
    }


def gate_serving(record: dict, history: "list[dict]") -> "list[str]":
    """Serving failures: within-run hard gates + cross-run determinism."""
    failures: "list[str]" = []
    arms = record.get("serving")
    if not arms:
        return failures
    for label, arm in sorted(arms.items()):
        if not arm["deterministic"]:
            failures.append(f"SERVING {label}: replay fingerprint diverged")
        if arm["unanswered"]:
            failures.append(
                f"SERVING {label}: {arm['unanswered']} admitted "
                "submission(s) never answered"
            )
    by_seed: "dict[str, dict]" = {}
    for label, arm in arms.items():
        policy, _, seed = label.partition("@")
        by_seed.setdefault(seed, {})[policy] = arm
    for seed, row in sorted(by_seed.items()):
        if "fifo" in row and "interleaved" in row:
            if row["interleaved"]["p99"] < row["fifo"]["p99"]:
                failures.append(
                    f"SERVING seed={seed}: interleaved p99 "
                    f"{row['interleaved']['p99']} fell below fifo p99 "
                    f"{row['fifo']['p99']}"
                )
    passing = [
        e
        for e in history
        if e.get("status") == "pass"
        and e.get("quick") == record.get("quick")
        and e.get("serving")
    ]
    if passing:
        latest = passing[-1]["serving"]
        for label in sorted(set(arms) & set(latest)):
            if arms[label]["fingerprint"] != latest[label]["fingerprint"]:
                failures.append(
                    f"SERVING DETERMINISM {label}: fingerprint "
                    f"{arms[label]['fingerprint']} != history "
                    f"{latest[label]['fingerprint']}"
                )
    return failures


def distil(perf: dict) -> dict:
    """One flat, diff-friendly record from the perf-trajectory report."""
    fig9 = perf["fig9_independent_c2"]
    record: dict = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git": _git_rev(),
        "quick": perf.get("quick", True),
        "repro_scale": perf.get("repro_scale", 1.0),
        "python": perf.get("python"),
        "machine": perf.get("machine"),
        "fig9": {
            "invariants": _invariants(fig9),
            "wall_s": fig9["wall_s"],
        },
        "fig11": [
            {
                "queries": cell["scenario"]["queries"],
                "invariants": _invariants(cell),
            }
            for cell in perf["fig11_size_sweep"]
        ],
        "scale_sweep": [
            {
                "scale": cell["scale"],
                "cardinality": cell["cardinality"],
                "invariants": _invariants(cell),
                "wall_s": cell["wall_s"],
                "relative_throughput": cell["relative_throughput"],
            }
            for cell in perf.get("scale_sweep", [])
        ],
    }
    return record


def load_history(path: Path) -> "list[dict]":
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def _comparable(record: dict, entry: dict) -> bool:
    """Entries gate each other only when they measured the same scenarios."""
    if entry.get("quick") != record.get("quick"):
        return False
    if entry.get("repro_scale", 1.0) != record.get("repro_scale", 1.0):
        # A REPRO_SCALE override changes every cardinality, so observables
        # legitimately differ; each scale forms its own baseline lineage.
        return False
    if [c["queries"] for c in entry.get("fig11", [])] != [
        c["queries"] for c in record["fig11"]
    ]:
        return False
    theirs_scales = [c["scale"] for c in entry.get("scale_sweep", [])]
    mine_scales = [c["scale"] for c in record.get("scale_sweep", [])]
    if theirs_scales and theirs_scales != mine_scales:
        # Entries predating the scale sweep stay comparable (the new
        # section seeds itself); mismatched sweeps do not.
        return False
    return True


def _median(values: "list[float]") -> float:
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2.0


def gate(record: dict, history: "list[dict]", tolerance: float) -> "list[str]":
    """Return a list of failure messages (empty = gate passes)."""
    failures: "list[str]" = []
    passing = [
        e
        for e in history
        if e.get("status") == "pass" and _comparable(record, e)
    ]
    if not passing:
        return failures  # seeding run: nothing to compare against

    # 1. Determinism: exact match against the latest passing entry.
    latest = passing[-1]
    checks = [("fig9", record["fig9"]["invariants"], latest["fig9"]["invariants"])]
    for mine, theirs in zip(record["fig11"], latest.get("fig11", [])):
        checks.append((f"fig11 |S_Q|={mine['queries']}", mine["invariants"],
                       theirs["invariants"]))
    for mine, theirs in zip(
        record.get("scale_sweep", []), latest.get("scale_sweep", [])
    ):
        checks.append((f"scale {mine['scale']}x", mine["invariants"],
                       theirs["invariants"]))
    for label, mine_i, theirs_i in checks:
        for key in INVARIANT_KEYS:
            if mine_i.get(key) != theirs_i.get(key):
                failures.append(
                    f"DETERMINISM {label}: {key} = {mine_i.get(key)!r}, "
                    f"history has {theirs_i.get(key)!r}"
                )

    # 2. Performance: within-run ratios vs the recent median.
    window = passing[-BASELINE_WINDOW:]

    def ratio_gate(label: str, current: float, baseline_values: "list[float]"):
        if not baseline_values:
            return
        baseline = _median(baseline_values)
        floor = baseline * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"PERF {label}: ratio {current:.2f}x fell below "
                f"{floor:.2f}x (median {baseline:.2f}x of last "
                f"{len(baseline_values)} runs - {tolerance:.0%} tolerance)"
            )

    for pos, cell in enumerate(record.get("scale_sweep", [])):
        if cell["scale"] == 1:
            continue  # the 1x cell is the within-run denominator
        ratio_gate(
            f"scale {cell['scale']}x relative throughput",
            cell["relative_throughput"],
            [
                e["scale_sweep"][pos]["relative_throughput"]
                for e in window
                if len(e.get("scale_sweep", [])) > pos
            ],
        )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        type=Path,
        default=REPO_ROOT / "BENCH_history.jsonl",
        help="history file (default: repo-root BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed relative throughput drop vs the recent median "
        "(default 0.35 — quick runs on shared CI boxes are noisy)",
    )
    parser.add_argument(
        "--skip-run",
        action="store_true",
        help="gate existing reports instead of running the benchmarks",
    )
    parser.add_argument("--perf", type=Path, help="perf-trajectory report JSON")
    parser.add_argument("--serving", type=Path, help="serving-load report JSON")
    parser.add_argument(
        "--no-serving",
        action="store_true",
        help="skip the multi-tenant serving benchmark and its gate",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="gate without recording the run in the history file",
    )
    args = parser.parse_args(argv)

    if args.skip_run:
        if args.perf is None:
            parser.error("--skip-run requires --perf")
        perf = json.loads(args.perf.read_text())
        serving = (
            json.loads(args.serving.read_text()) if args.serving else None
        )
    else:
        with tempfile.TemporaryDirectory(prefix="bench-gate-") as scratch:
            perf = _run_quick_bench(
                "bench_perf_trajectory.py", Path(scratch) / "perf.json"
            )
            serving = None
            if not args.no_serving:
                serving = _run_quick_bench(
                    "bench_serving.py",
                    Path(scratch) / "serving.json",
                    ("--burst", "--check-determinism"),
                )

    record = distil(perf)
    if serving is not None:
        record["serving"] = distil_serving(serving)
    history = load_history(args.history)
    failures = gate(record, history, args.tolerance)
    failures.extend(gate_serving(record, history))
    record["status"] = "pass" if not failures else "fail"

    if not args.no_append:
        with args.history.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    baseline_count = sum(
        1
        for e in history
        if e.get("status") == "pass" and _comparable(record, e)
    )
    print(
        f"bench-gate: fig9 wall {record['fig9']['wall_s']}s, "
        f"{len(record['fig11'])} fig11 cells, "
        f"{len(record.get('scale_sweep', []))} scale cells "
        f"(REPRO_SCALE={record.get('repro_scale', 1.0)}), "
        f"{'serving arms: %d, ' % len(record.get('serving', {})) if serving else ''}"
        f"baseline entries: {baseline_count}"
    )
    for failure in failures:
        print(f"bench-gate: FAIL {failure}")
    if failures:
        return 1
    print(
        "bench-gate: pass"
        + (" (seeded baseline)" if baseline_count == 0 else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
