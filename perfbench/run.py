#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload commit_bound --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that yields the per-layer ledger
(every dataset is executed once plain and once traced, so the difference
is the tracing overhead and any disagreement between the two is the
engine not repeating itself).  Every metric is printed by name
with its unit, every reported result set is checked against the
independent oracle, and the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names, units and bounds live in ``BENCHMARK.json`` at the
checkout root; this program fills in the values.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 20140324
#: Set-up is timed in this many fresh processes (this one and its
#: probes), so that ``setup_s`` is a median and not one sample.
SETUP_SAMPLES = 3
#: Rows of the one-off warm-up execution that ends set-up.
WARMUP_ROWS = 100


def bootstrap() -> None:
    """Make the checkout's own ``src/repro`` and ``perfbench`` importable.

    The benchmark measures the engine of *this* checkout; it refuses to
    fall back to a ``repro`` installed elsewhere.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no engine to measure — {ROOT}/src/repro is missing"
        )
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


SCRATCH = os.path.join(ROOT, ".perfbench")


def scratch_dir(prefix: str) -> "contextlib.AbstractContextManager[str]":
    """A temporary directory inside the checkout (git-ignored), removed
    on exit: everything a run writes goes here or to the oracle cache
    beside it."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=SCRATCH)


def spec_of(name: str, rows: "int | None"):
    from perfbench import workloads

    spec = workloads.WORKLOADS[name]
    return spec if rows is None else spec.scaled(rows)


def registry() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_block(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # Never a repository above the checkout: not ours to read.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a bare checkout (the acceptance driver's) has no .git
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
        # fsync lands on whatever backs the checkout; report latencies as
        # this sandbox's, not as a storage device's.
        "disk": "sandbox filesystem under the checkout (fsync per record)",
    }


def set_up(spec, seed: int, workdir: str) -> "tuple[dict, dict, dict]":
    """Everything between process start and the first timed execution:
    imports (already paid by the caller's ``import``), generation of
    dataset 0, contract calibration on it, one tiny warm-up execution.

    Returns dataset 0, its calibration and the seconds each part took.
    """
    from perfbench import workloads

    imported = time.perf_counter()
    data = workloads.generate(spec, seed)
    generated = time.perf_counter()
    calibration = workloads.calibrate(spec, data)
    calibrated = time.perf_counter()
    # Absorbs what happens once per process: lazy imports, NumPy dispatch
    # caches, allocator growth.
    tiny = spec.scaled(WARMUP_ROWS)
    warm = workloads.generate(tiny, seed)
    workloads.execute(tiny, warm, workloads.calibrate(tiny, warm), None, workdir)
    ready = time.perf_counter()
    timing = {
        "import_s": imported - _PROCESS_START,
        "datagen_s": generated - imported,
        "calibrate_s": calibrated - generated,
        "warmup_s": ready - calibrated,
    }
    timing["setup_s"] = ready - _PROCESS_START
    return data, calibration, timing


def probe_set_up(name: str, seed: int, rows: "int | None") -> dict:
    """Time the same set-up in a fresh child process."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    if rows is not None:
        command += ["--rows", str(rows)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def verify(records: "list[tuple[int, dict]]", datasets: list, cache_dir) -> dict:
    """Check every reported identity set against the independent oracle.

    Batch: one attempt per (execution, query).  Serving: one attempt per
    submission — lost (rejected, failed, cancelled, unanswered) or
    answered with a set that differs from the oracle's is a failure; an
    answer degraded to coarse bounds is approximate by contract and is
    counted (``serving.scheduler.degraded``) but not compared.
    """
    from perfbench import oracle

    truth: "dict[tuple[int, str], dict]" = {}
    attempted = failed = 0
    for index, record in records:
        data = datasets[index]
        batch = "scheduler" not in record
        failed += record["lost"]
        attempted += record["lost"] + record["approximate"]
        for kind, reported in record["answers"]:
            key = (index, kind)
            if key not in truth:
                pair = data["pair"]
                truth[key] = oracle.evaluate_cached(
                    pair.left, pair.right, data["workloads"][kind], cache_dir
                )
            wrong = sum(
                reported[name] != expected for name, expected in truth[key].items()
            )
            attempted += len(truth[key]) if batch else 1
            failed += wrong if batch else bool(wrong)
    return {"attempted": attempted, "failed": failed}


def fingerprint(records: "list[dict]") -> str:
    """Digest of every reported identity set, in execution order."""
    sha = hashlib.sha256()
    for record in records:
        for kind, reported in record["answers"]:
            sha.update(kind.encode())
            for name in sorted(reported):
                sha.update(repr((name, sorted(reported[name]))).encode())
    return sha.hexdigest()[:16]


def measure(spec, pool, modes, targets, workdir) -> "dict[bool, list]":
    """Execute every dataset of ``pool`` once per mode (False plain, True
    traced); per mode, the ``(record, tracer)`` of each dataset.

    Once, not best-of-n: what varies most between two runs is the data,
    so a run's time is better spent on another dataset than on a repeat
    (README, "Noise").
    """
    from perfbench import trace, workloads

    taken: "dict[bool, list]" = {mode: [] for mode in modes}
    for index, (data, calibration) in enumerate(pool):
        # Alternate which mode goes first so neither always inherits the
        # caches the other warmed.
        for mode in reversed(modes) if index % 2 else modes:
            tracer = None
            if mode:
                tracer = trace.Tracer()
                tracer.exec_id = index
                with trace.installed(tracer, targets):
                    record = workloads.execute(
                        spec, data, calibration, tracer, workdir
                    )
            else:
                record = workloads.execute(spec, data, calibration, None, workdir)
            taken[mode].append((record, tracer))
    return taken


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    rows: "int | None" = None,
    datasets: "int | None" = None,
    setup_samples: int = SETUP_SAMPLES,
    targets: "tuple | None" = None,
    trace_out: "str | None" = None,
) -> dict:
    """One run of one workload; returns the full report (see README).

    A run executes ``datasets`` distinct inputs once each (twice when
    traced: plain and traced); the count defaults to what fills
    ``seconds`` on the reference host, so the inputs are a function of
    (seed, seconds, traced) only.
    """
    bootstrap()
    from perfbench import ledger, trace, workloads

    spec = spec_of(name, rows)
    modes = (False, True) if traced else (False,)
    if datasets is None:
        datasets = max(2, round(seconds / spec.dataset_s))
        if traced:
            datasets = max(1, datasets // 2)
    with scratch_dir("run-") as workdir:
        first, calibration, setup = set_up(spec, seed, workdir)
        setups = [setup] + [
            probe_set_up(name, seed, rows) for _ in range(setup_samples - 1)
        ]
        pool = [(first, calibration)]
        for index in range(1, datasets):
            data = workloads.generate(spec, seed, index)
            pool.append((data, workloads.calibrate(spec, data)))
        taken = measure(spec, pool, modes, targets or trace.TARGETS, workdir)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [record for record, _tracer in taken[False]]
    start = time.perf_counter()
    checked = verify(
        [
            (index, record)
            for mode in modes
            for index, (record, _tracer) in enumerate(taken[mode])
        ],
        [data for data, _calibration in pool],
        os.path.join(SCRATCH, "oracle"),
    )
    verify_s = time.perf_counter() - start

    setup_median = {
        part: statistics.median(sample[part] for sample in setups)
        for part in setups[0]
    }
    missing: "list[tuple[str, str]]" = []
    if traced:
        tracers = [tracer for _record, tracer in taken[True]]
        missing = tracers[0].missing + sorted(
            {pair for tracer in tracers for pair in tracer.unreadable.items()}
        )
        pair = first["pair"]
        input_bytes = sum(
            relation.column(column).nbytes
            for relation in (pair.left, pair.right)
            for column in relation.schema.names
        )
        values = ledger.per_layer(
            [record for record, _tracer in taken[True]],
            plain, tracers, setup_median, input_bytes,
        )
        if trace_out:
            trace.write_jsonl(tracers, trace_out)
    else:
        values = ledger.end_to_end(plain, setup_median["setup_s"], rss_mb)

    def observable(record: dict) -> tuple:
        return record["counts"], record["virtual_time"], record["answers"]

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "rows": rows,
        "datasets": datasets,
        "host": host_block(seed),
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        # Everything computed, by metric name; ``BENCHMARK.json`` lists the
        # ones that are printed and their units (:func:`listed_metrics`).
        "values": values,
        "setup": setup_median,
        "setup_samples": [sample["setup_s"] for sample in setups],
        "verify_s": verify_s,
        # Per dataset.
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "ttfr_s": [r["ttfr_s"] for r in plain],
            "steps": sum(len(r["steps_s"]) for r in plain),
        },
        # Functions of (workload, seed, seconds, traced) alone: drift between
        # two runs of one commit is a behaviour change, not noise.
        "observables": {
            "skyline_comparisons": [r["counts"]["skyline_comparisons"] for r in plain],
            "virtual_time": [r["virtual_time"] for r in plain],
            "regions_processed": [r["counts"]["regions_processed"] for r in plain],
            "results_reported": [r["counts"]["results_reported"] for r in plain],
            "satisfaction": [r["satisfaction"] for r in plain],
            "fingerprint": fingerprint(plain),
            # Only a traced run executes a dataset twice.
            "plain_and_traced_agree": all(
                observable(record) == observable(twin)
                for record, (twin, _tracer) in zip(plain, taken[traced])
            ),
        },
        "missing_targets": missing,
    }


def listed_metrics(report: dict) -> "dict[str, dict]":
    """The metrics ``BENCHMARK.json`` registers for this kind of run, as
    ``{name: {"value", "unit"}}``; a layer whose trace target is gone has
    the value ``None``."""
    listed = registry()["per_layer" if report["traced"] else "end_to_end"]
    values = report["values"]
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }


def print_report(report: dict) -> None:
    kind = "per-layer (traced)" if report["traced"] else "end-to-end"
    print(
        f"perfbench {report['workload']}  seed={report['seed']}  "
        f"{report['datasets']} datasets  {kind}"
    )
    for name, metric in listed_metrics(report).items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:45s} {shown:>14s} {metric['unit']}")
    print(
        f"  verified {report['attempted']} result sets against the oracle in "
        f"{report['verify_s']:.2f} s: {report['failed']} failed"
    )
    if not report["observables"]["plain_and_traced_agree"]:
        print("  WARNING: the plain and the traced execution of one dataset disagree")
    for name, target in report["missing_targets"]:
        print(f"  trace target of {name} can no longer be read: {target}")


def result_line(report: dict) -> str:
    """The acceptance driver's contract: one JSON object, numbers only —
    a layer whose trace target is gone reads 0 here (``null`` in
    ``--out``) and is counted by ``trace.missing_targets``."""
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {
                    "value": 0.0 if metric["value"] is None else metric["value"],
                    "unit": metric["unit"],
                }
                for name, metric in listed_metrics(report).items()
            },
        }
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None,
                        help="cap table cardinality (smoke runs)")
    parser.add_argument("--datasets", type=int, default=None,
                        help="fix the number of datasets instead of sizing "
                        "it from --seconds")
    parser.add_argument("--out", default=None, help="write the full report here")
    parser.add_argument("--trace-out", default=None,
                        help="write the spans here as JSONL (with --trace 1)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the timing, exit (internal)")
    args = parser.parse_args(argv)
    bootstrap()
    if args.setup_probe:
        with scratch_dir("probe-") as workdir:
            timing = set_up(spec_of(args.workload, args.rows), args.seed, workdir)[2]
        print(json.dumps(timing))
        return 0
    seconds = args.seconds if args.seconds is not None else registry()["run_seconds"]
    report = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), rows=args.rows,
        datasets=args.datasets, trace_out=args.trace_out,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print_report(report)
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
