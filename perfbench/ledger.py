"""Execution records and spans -> the metrics ``BENCHMARK.json`` names.

Pure functions: no engine, no clock.  The records are one per dataset;
all times are wall seconds as the clock read them.  Every per-layer
timing and count is a *mean per dataset* (steps are pooled):
means add up — the self times of all layers plus the unattributed
remainder equal the mean traced wall.  The two end-to-end times are
trimmed means (:func:`trimmed_mean`).
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench import trace

#: Spans that are the engine driver's own frames, not a named layer: what
#: is left in their self time (discard, feedback, glue) is "unattributed".
DRIVER_SPANS = (
    "exec",
    "core.caqe.open_run",
    "core.caqe.step",
    "core.caqe.close",
    "core.caqe.finalize",
)

#: Share of a run's datasets dropped at each end before ``wall_s`` and
#: ``ttfr_s`` are averaged.
TRIM = 0.2


def trimmed_mean(values: "list[float]") -> float:
    """Mean of the middle of ``values``, ``TRIM`` of them cut off each end.

    One host stall inside an execution (seen: 1 s in a 0.4 s execution)
    or one exceptional dataset moves the plain mean of a run by more than
    all else together; over ten seeds the trimmed mean of ``ttfr_s`` on
    ``sched_bound`` varied by 6-8 % (CV) where the mean varied by 7-15 %.
    With fewer than five values nothing is cut.
    """
    ordered = sorted(values)
    cut = int(TRIM * len(ordered))
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def end_to_end(records: "list[dict]", setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": trimmed_mean([r["wall_s"] for r in records]),
        "ttfr_s": trimmed_mean([r["ttfr_s"] for r in records]),
        "peak_rss_mb": rss_mb,
        "avg_satisfaction": statistics.fmean(r["satisfaction"] for r in records),
    }


def _ratio(numerator: "float | None", denominator: "float | None") -> "float | None":
    """``None`` (unknown) if either side is; 0 over an empty denominator."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: "list[dict]",
    untraced: "list[dict]",
    tracers: "list[trace.Tracer]",
    setup: "dict[str, float]",
    input_bytes: float,
) -> dict:
    """Every per-layer metric, as a mean per dataset.

    ``traced[i]`` / ``tracers[i]`` are dataset ``i``'s traced execution
    and its spans; ``untraced[i]`` its plain one.
    """
    n = len(traced)
    table: "dict[str, dict[str, float]]" = {}
    counters: "dict[str, float]" = {}
    for tracer in tracers:
        for name, row in trace.summarize(tracer.spans).items():
            merged = table.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            for key, value in row.items():
                merged[key] += value
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
    missing = {name for name, _target in tracers[0].missing}
    failed = {name for tracer in tracers for name in tracer.unreadable}
    # A counter is unknown when its extractor failed or its target is gone.
    unknown = failed | {
        name
        for layer, _target, extractors in trace.TARGETS
        if layer in missing
        for name in extractors
    }

    def mean(key: str) -> float:
        return sum(r.get(key, 0) for r in traced) / n

    def counter(name: str) -> "float | None":
        return None if name in unknown else counters.get(name, 0) / n

    def stat(name: str) -> float:
        return sum(r["counts"][name] for r in traced) / n

    def sched(name: str) -> float:
        return sum(r.get("scheduler", {}).get(name, 0) for r in traced) / n

    # ``None`` = not measured: the layer's trace target is gone, or the
    # counter's extractor no longer fits what the target takes or returns.
    out: "dict[str, float | None]" = {}
    for name in trace.layer_names():
        row = table.get(name, {"self_s": 0.0, "calls": 0})
        gone = name in missing
        out[f"{name}.self_s"] = None if gone else row["self_s"] / n
        out[f"{name}.calls"] = None if gone else row["calls"] / n
    for name in (
        "partition.cells",
        "core.coarse_join.regions",
        "core.depgraph.edges",
        "core.store.rows",
        "plan.shared_plan.tuples_inserted",
    ):
        out[name] = counter(name)

    wall = mean("wall_s")
    regions = stat("regions_processed")
    steps = 1e3 * np.fromiter(
        (
            end - start
            for tracer in tracers
            for name, start, end, _parent, _exec in tracer.spans
            if name == "core.caqe.step"
        ),
        dtype=float,
    )
    sched_steps = 1e3 * np.fromiter(
        (s for r in untraced if "scheduler" in r for s in r["steps_s"]), dtype=float
    )
    journal_bytes = mean("journal_bytes")
    snapshot_bytes = mean("snapshot_bytes")
    untraced_wall = sum(r["wall_s"] for r in untraced)
    out.update(
        {
            "core.coarse_skyline.coarse_comparisons": stat("coarse_comparisons"),
            "core.coarse_skyline.pruned_ratio": _ratio(
                counter("core.coarse_skyline.pruned"),
                counter("core.coarse_join.regions"),
            ),
            "core.benefit.estimate.roots_per_call": _ratio(
                counter("core.benefit.estimate.roots"),
                out["core.benefit.estimate.calls"],
            ),
            "core.executor.join_results": stat("join_results"),
            "core.executor.join_probes": stat("join_probes"),
            "parallel.joinkernel.build_reuse_ratio": (
                None
                if "parallel.joinkernel.build" in missing
                else 1.0 - out["parallel.joinkernel.build.calls"] / regions
                if regions
                else 0.0
            ),
            "skyline.window.skyline_comparisons": stat("skyline_comparisons"),
            "skyline.window.admit_ratio": _ratio(
                counter("skyline.window.admitted"),
                counter("skyline.window.inserted"),
            ),
            "core.report.results_reported": stat("results_reported"),
            "core.caqe.open_run_s": _total(table, "core.caqe.open_run") / n,
            "core.caqe.loop_s": _total(table, "core.caqe.step") / n,
            "core.caqe.finalize_s": _total(table, "core.caqe.finalize") / n,
            "core.caqe.ttfr_s": mean("ttfr_s"),
            "core.caqe.step_ms_p50": _percentile(steps, 50),
            "core.caqe.step_ms_p95": _percentile(steps, 95),
            "core.caqe.regions_processed": regions,
            "core.caqe.regions_discarded": stat("regions_discarded"),
            "core.caqe.unattributed_share": _ratio(
                sum(table.get(s, {}).get("self_s", 0.0) for s in DRIVER_SPANS) / n,
                wall,
            ),
            "durability.journal.appends": out["durability.journal.append.calls"],
            "durability.journal.bytes": journal_bytes,
            "durability.checkpoint.snapshots": out[
                "durability.checkpoint.snapshot.calls"
            ],
            "durability.checkpoint.bytes": snapshot_bytes,
            "durability.write_amp": _ratio(
                journal_bytes + snapshot_bytes, input_bytes
            ),
            # From the plain executions: no tracing in the step latency.
            "serving.scheduler.step_ms_p50": _percentile(sched_steps, 50),
            "serving.scheduler.step_ms_p99": _percentile(sched_steps, 99),
            "serving.scheduler.steps": sched("steps"),
            "serving.scheduler.submitted": sched("submitted"),
            "serving.scheduler.admitted": sched("admitted"),
            "serving.scheduler.answered": sched("answered"),
            "serving.scheduler.degraded": sched("degraded"),
            "serving.scheduler.rejected": sched("rejected_queue_full")
            + sched("rejected_bulkhead")
            + sched("rejected_brownout"),
            "setup.import_s": setup["import_s"],
            "setup.datagen_s": setup["datagen_s"],
            "setup.calibrate_s": setup["calibrate_s"],
            "setup.warmup_s": setup["warmup_s"],
            "trace.wall_s": wall,
            "trace.overhead_share": _ratio(
                sum(r["wall_s"] for r in traced) - untraced_wall, untraced_wall
            ),
            "trace.missing_targets": float(len(missing) + len(failed)),
        }
    )
    return out


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _total(table: dict, name: str) -> float:
    return table.get(name, {}).get("total_s", 0.0)


def share_table(layer: dict, wall_s: float) -> "list[tuple[str, float]]":
    """``(layer, share of traced wall)`` for every ``*.self_s``, largest
    first, closed by the unattributed remainder."""
    rows = [
        (name[: -len(".self_s")], value / wall_s)
        for name, value in layer.items()
        if name.endswith(".self_s")
        and value
        and name[: -len(".self_s")] not in DRIVER_SPANS
    ]
    rows.sort(key=lambda row: -row[1])
    rows.append(("(unattributed)", layer["core.caqe.unattributed_share"]))
    return rows
