"""Compare two sets of perfbench runs metric by metric.

    python -m perfbench --compare A.json B.json

``A`` is the reference (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  For every (workload, end-to-end
metric) the table gives both medians, how much worse ``B`` reads as a
share of ``A``, the bound ``BENCHMARK.json`` fixes for the metric, the
wider of the two sets' own run-to-run spreads, and a verdict:

``ok``          ``B`` is no worse than ``A`` by more than the bound;
``regressed``   it is;
``unresolved``  the spread within a set is wider than the bound, so the
                medians cannot settle the question — unless every run of
                ``B`` reads better than every run of ``A``, which is ``ok``.

Counts, byte totals and the observables are functions of (workload, seed,
seconds) alone, so runs that share those must agree exactly; a difference
is reported as ``differs``.  The exit status is non-zero on any
``regressed`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics

#: Units whose values repeat exactly from run to run of one commit.
EXACT_UNITS = ("count", "bytes")


def load(path: str) -> "list[dict]":
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return document["runs"] if "runs" in document else [document]


def spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float) -> dict:
    worse = worsening(statistics.median(a), statistics.median(b), better)
    width = max(spread(a), spread(b))
    if width > bound:
        dominated = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        status = "ok" if dominated else "unresolved"
    else:
        status = "regressed" if worse > bound else "ok"
    return {
        "a": statistics.median(a),
        "b": statistics.median(b),
        "worse_by": worse,
        "bound": bound,
        "spread": width,
        "status": status,
    }


def _key(run: dict) -> tuple:
    return (
        run["workload"], run["traced"], run["seed"], run["seconds"],
        run["rows"], run["datasets"],
    )


def compare(a_runs: "list[dict]", b_runs: "list[dict]", benchmark: dict) -> dict:
    """``{"timings": [...], "exact": [...]}`` — rows ready to print."""
    timings, exact = [], []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a_set, b_set = (
            [r for r in runs if r["workload"] == workload and not r["traced"]]
            for runs in (a_runs, b_runs)
        )
        if not a_set or not b_set:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["values"][name] for r in a_set],
                [r["values"][name] for r in b_set],
                metric["better"],
                metric["bound"],
            )
            timings.append({"workload": workload, "metric": name, **row})
    b_by_key = {_key(run): run for run in b_runs}
    for run in a_runs:
        other = b_by_key.get(_key(run))
        if other is None:
            continue
        label = f"{run['workload']} seed={run['seed']}" + (
            " traced" if run["traced"] else ""
        )
        pairs = [("failed", run["failed"], other["failed"])]
        pairs += [
            (f"observables.{name}", value, other["observables"][name])
            for name, value in run["observables"].items()
        ]
        listed = benchmark["per_layer" if run["traced"] else "end_to_end"]
        pairs += [
            (m["name"], run["values"][m["name"]], other["values"][m["name"]])
            for m in listed
            if m["unit"] in EXACT_UNITS
        ]
        exact += [
            {"run": label, "name": name, "a": a, "b": b}
            for name, a, b in pairs
            if a != b
        ]
        exact.append({"run": label, "name": None, "checked": len(pairs)})
    return {"timings": timings, "exact": exact}


def render(result: dict) -> "tuple[str, int]":
    """The report text and the process exit status."""
    lines = [
        f"{'workload':16s} {'metric':17s} {'A':>10s} {'B':>10s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    bad = 0
    for row in result["timings"]:
        bad += row["status"] == "regressed"
        lines.append(
            f"{row['workload']:16s} {row['metric']:17s} {row['a']:10.4f} "
            f"{row['b']:10.4f} {row['worse_by']:+9.1%} {row['bound']:6.0%} "
            f"{row['spread']:7.1%}  {row['status']}"
        )
    for row in result["exact"]:
        if row["name"] is None:
            lines.append(f"{row['run']}: {row['checked']} exact values compared")
        else:
            bad += 1
            lines.append(
                f"{row['run']}: {row['name']} differs: {row['a']!r} vs {row['b']!r}"
            )
    lines.append("FAIL" if bad else "OK")
    return "\n".join(lines), 1 if bad else 0
