"""The perfbench suite: every workload, each in a fresh child process.

    python -m perfbench [--seed N] [--seeds K] [--workload NAME] [--traced]
                        [--out FILE]
    python -m perfbench --smoke
    python -m perfbench --compare A.json B.json

The first form runs ``perfbench/run.py`` once per workload (and once more
with tracing when ``--traced`` is given), echoes every metric with its
unit, and writes all reports to ``--out`` as ``{"runs": [...]}``.
``--seeds K`` makes K passes with seeds N, N+1, ... (the acceptance
procedure: a metric's spread over ten seeds, taken twice and compared).  It
refuses to start on a host whose 1-minute load average exceeds its CPU
count unless ``--force`` is given — timings taken there are not
comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from perfbench import compare, run

#: Table cardinality of ``--smoke`` (every workload, plain and traced,
#: inside half a minute).
SMOKE_ROWS = 120


def _suite(args: argparse.Namespace) -> int:
    benchmark = run.registry()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    load, cpus = os.getloadavg()[0], os.cpu_count() or 1
    if load > cpus and not args.force:
        raise SystemExit(
            f"perfbench: 1-minute load average {load:.2f} exceeds the host's "
            f"{cpus} CPUs; timings would not be comparable (--force to run anyway)"
        )
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    reports, failed = [], False
    with run.scratch_dir("suite-") as tmp:
        seeds = [args.seed + i for i in range(args.seeds)]
        for name in names:
            for seed in seeds:
                for traced in (0, 1) if args.traced else (0,):
                    out = os.path.join(tmp, "report.json")
                    command = [
                        sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(traced),
                        "--out", out,
                    ]
                    if traced and args.trace_out:
                        command += ["--trace-out", f"{args.trace_out}.{name}.{seed}.jsonl"]
                    done = subprocess.run(
                        command, cwd=run.ROOT, capture_output=True, text=True
                    )
                    if done.returncode:
                        sys.stderr.write(done.stderr)
                        raise SystemExit(f"perfbench: {name} exited {done.returncode}")
                    # Everything but the driver's JSON line.
                    print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
                    with open(out, encoding="utf-8") as handle:
                        reports.append(json.load(handle))
                    failed |= not reports[-1]["correct"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "perfbench", "runs": reports}, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failed else 0


def _smoke(args: argparse.Namespace) -> int:
    """Every workload at SMOKE_ROWS rows, one dataset, plain and traced."""
    start = time.perf_counter()
    failed = False
    for workload in run.registry()["workloads"]:
        for traced in (False, True):
            report = run.run_workload(
                workload["name"], args.seed, 1.0, traced,
                rows=SMOKE_ROWS, datasets=1, setup_samples=1,
            )
            run.print_report(report)
            failed |= not report["correct"]
    print(f"smoke: {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced (per-layer) run of each workload")
    parser.add_argument("--seeds", type=int, default=1,
                        help="run this many consecutive seeds, from --seed on")
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-out", default=None,
                        help="prefix of the span files, one per traced run (JSONL)")
    parser.add_argument("--force", action="store_true",
                        help="run even on a loaded host")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        text, status = compare.render(
            compare.compare(
                compare.load(args.compare[0]),
                compare.load(args.compare[1]),
                run.registry(),
            )
        )
        print(text)
        return status
    return _smoke(args) if args.smoke else _suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
