"""Snapshot serialisation for crash recovery (docs/ARCHITECTURE.md §10.2).

A snapshot captures exactly the *mutable* driver state of a run.  The
immutable prologue — partitioning, cuboid construction, coarse join and
coarse skyline, dependency-graph build, benefit-model attachment — is
deterministic, so recovery re-runs it from the original inputs and then
overwrites the mutable pieces from the snapshot (including the stats and
virtual clock, which erases the prologue's re-charges).

Everything is JSON: CPython serialises floats via ``repr``, which
round-trips ``float64`` exactly, so a restored clock reading or weight
vector is bit-identical to the value that was saved.  Snapshot files are
self-checksummed (CRC32 over the body) and committed atomically
(``tmp`` + fsync + rename), so a crash mid-snapshot leaves the previous
snapshot as the recovery point instead of a torn file.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.contracts.score import ResultLog
from repro.core.depgraph import DependencyGraph
from repro.errors import DurabilityError
from repro.partition.bounds import HyperRect
from repro.partition.cells import LeafCell
from repro.relation import Relation
from repro.relation.schema import Attribute, Role, Schema
from repro.robustness.recovery import DegradedReport
from repro.robustness.sanitize import QuarantinedTuple, QuarantineReport

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.executor import JoinResultStore
    from repro.core.stats import ExecutionStats
    from repro.plan.shared_plan import WorkloadPlan
    from repro.robustness.recovery import RegionSupervisor

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


# --------------------------------------------------------------------- #
# Snapshot files
# --------------------------------------------------------------------- #
def snapshot_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"snapshot-{seq:08d}.json")


def write_snapshot(
    directory: str, seq: int, fingerprint: str, state: "dict[str, Any]"
) -> str:
    """Atomically persist one snapshot; returns its path."""
    path = snapshot_path(directory, seq)
    body = json.dumps(
        {"seq": seq, "fingerprint": fingerprint, "state": state},
        sort_keys=True,
        separators=(",", ":"),
    )
    crc = format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(crc + "\n" + body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def read_snapshot(path: str) -> "dict[str, Any] | None":
    """Load one snapshot; ``None`` when missing or corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError:
        return None
    head, _, body = content.partition("\n")
    if not body:
        return None
    if format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x") != head:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def list_snapshots(directory: str) -> "list[tuple[int, str]]":
    """(seq, path) of every snapshot file present, ascending by seq."""
    if not os.path.isdir(directory):
        return []
    found: "list[tuple[int, str]]" = []
    for name in os.listdir(directory):
        match = _SNAPSHOT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(found)


def latest_snapshot(
    directory: str, fingerprint: str, max_seq: "int | None" = None
) -> "dict[str, Any] | None":
    """Newest intact snapshot matching ``fingerprint`` (and ``max_seq``).

    Corrupt snapshot files are skipped (an older intact one still
    recovers the run); a fingerprint mismatch is an error because it
    means the directory holds a different run's state.
    """
    for seq, path in reversed(list_snapshots(directory)):
        if max_seq is not None and seq > max_seq:
            continue
        payload = read_snapshot(path)
        if payload is None:
            continue
        if payload.get("fingerprint") != fingerprint:
            raise DurabilityError(
                f"snapshot {path} belongs to a different run "
                "(fingerprint mismatch)"
            )
        return payload
    return None


# --------------------------------------------------------------------- #
# Component codecs
# --------------------------------------------------------------------- #
def dump_stats(stats: "ExecutionStats") -> "dict[str, Any]":
    return {
        "clock": float(stats.clock.time),
        "comparisons": int(stats.comparison_counter.comparisons),
        "join_results": stats.join_results,
        "join_probes": stats.join_probes,
        "tuples_inserted": stats.tuples_inserted,
        "regions_processed": stats.regions_processed,
        "regions_discarded": stats.regions_discarded,
        "coarse_comparisons": stats.coarse_comparisons,
        "results_reported": stats.results_reported,
        "tuples_quarantined": stats.tuples_quarantined,
        "region_retries": stats.region_retries,
        "regions_quarantined": stats.regions_quarantined,
        "degraded_reports": stats.degraded_reports,
        "straggler_penalty": float(stats.straggler_penalty),
        "region_trace": list(stats.region_trace),
    }


def load_stats(stats: "ExecutionStats", data: "dict[str, Any]") -> None:
    """Overwrite ``stats`` in place — erases any prologue re-charges."""
    stats.clock.time = float(data["clock"])
    stats.comparison_counter.comparisons = int(data["comparisons"])
    stats.join_results = int(data["join_results"])
    stats.join_probes = int(data["join_probes"])
    stats.tuples_inserted = int(data["tuples_inserted"])
    stats.regions_processed = int(data["regions_processed"])
    stats.regions_discarded = int(data["regions_discarded"])
    stats.coarse_comparisons = int(data["coarse_comparisons"])
    stats.results_reported = int(data["results_reported"])
    stats.tuples_quarantined = int(data["tuples_quarantined"])
    stats.region_retries = int(data["region_retries"])
    stats.regions_quarantined = int(data["regions_quarantined"])
    stats.degraded_reports = int(data["degraded_reports"])
    stats.straggler_penalty = float(data["straggler_penalty"])
    stats.region_trace = [int(r) for r in data["region_trace"]]


def dump_store(store: "JoinResultStore") -> "dict[str, Any]":
    left_rows, right_rows = store.columns()
    return {"left_row": left_rows.tolist(), "right_row": right_rows.tolist()}


def load_store(store: "JoinResultStore", data: "dict[str, Any]") -> None:
    if "left_row" not in data or "right_row" not in data:
        raise DurabilityError(
            "snapshot holds the result store in an unknown layout "
            f"(keys {sorted(data)}; expected the 'left_row'/'right_row' "
            "columns) - a journal written by an older engine does not resume"
        )
    left_rows = np.asarray(data["left_row"], dtype=np.int64)
    right_rows = np.asarray(data["right_row"], dtype=np.int64)
    if left_rows.shape != right_rows.shape or left_rows.ndim != 1:
        raise DurabilityError(
            f"snapshot store columns disagree: left_row {left_rows.shape}, "
            f"right_row {right_rows.shape}"
        )
    store.load_columns(left_rows, right_rows)


def dump_plan_windows(plan: "WorkloadPlan") -> "list[list[Any]]":
    """Window contents per (plan group, cuboid mask), in group order."""
    groups: "list[list[Any]]" = []
    for group in plan._groups:
        shared = group["plan"]
        windows: "list[list[Any]]" = []
        for mask in shared.cuboid.masks:
            keys, rows = shared.window(mask).dump_entries()
            windows.append([int(mask), list(keys), rows])
        groups.append(windows)
    return groups


def load_plan_windows(plan: "WorkloadPlan", data: "list[list[Any]]") -> None:
    if len(data) != len(plan._groups):
        raise DurabilityError(
            f"snapshot has {len(data)} plan groups, run has {len(plan._groups)}"
        )
    for group, windows in zip(plan._groups, data):
        shared = group["plan"]
        for mask, keys, rows in windows:
            shared.window(int(mask)).load_entries([int(k) for k in keys], rows)


def dump_graph(graph: DependencyGraph) -> "dict[str, Any]":
    """Live nodes ascending, each with its live out-edges ascending by
    target (the order :meth:`DependencyGraph.successors` returns)."""
    live = np.flatnonzero(graph.alive)
    ids = graph.ids[live].tolist()
    block = graph.edges[np.ix_(live, live)]
    src, dst = np.nonzero(block)
    targets = [ids[j] for j in dst.tolist()]
    masks = block[src, dst].tolist()
    bounds = np.searchsorted(src, np.arange(len(live) + 1)).tolist()
    return {
        "nodes": ids,
        "edges": [
            [node, [[t, m] for t, m in zip(targets[a:b], masks[a:b])]]
            for node, a, b in zip(ids, bounds, bounds[1:])
        ],
    }


def load_graph(data: "dict[str, Any]") -> DependencyGraph:
    ids = [int(n) for n in data["nodes"]]
    pos = {rid: k for k, rid in enumerate(ids)}
    edges = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for node, targets in data["edges"]:
        for target, mask in targets:
            edges[pos[int(node)], pos[int(target)]] = int(mask)
    return DependencyGraph.from_edges(np.asarray(ids, dtype=np.int64), edges)


def dump_logs(logs: "dict[str, ResultLog]") -> "dict[str, list]":
    return {
        name: [[list(event.key), float(event.timestamp)] for event in log.events]
        for name, log in logs.items()
    }


def load_logs(data: "dict[str, list]") -> "dict[str, ResultLog]":
    logs: "dict[str, ResultLog]" = {}
    for name, events in data.items():
        log = ResultLog(name)
        for key, timestamp in events:
            log.report(tuple(int(v) for v in key), float(timestamp))
        logs[name] = log
    return logs


def dump_supervisor(supervisor: "RegionSupervisor | None") -> "dict[str, Any] | None":
    if supervisor is None:
        return None
    return {
        "failures": [[rid, n] for rid, n in sorted(supervisor.failures.items())],
        "quarantined": sorted(supervisor.quarantined),
    }


def load_supervisor(
    supervisor: "RegionSupervisor | None", data: "dict[str, Any] | None"
) -> None:
    if supervisor is None or data is None:
        return
    supervisor.failures = {int(rid): int(n) for rid, n in data["failures"]}
    supervisor.quarantined = {int(rid) for rid in data["quarantined"]}


def dump_degraded(
    degraded: "dict[str, list[DegradedReport]]",
) -> "dict[str, list]":
    return {
        name: [
            {
                "query_name": r.query_name,
                "region_id": r.region_id,
                "lower": list(r.lower),
                "upper": list(r.upper),
                "est_join_count": float(r.est_join_count),
                "reason": r.reason,
                "timestamp": float(r.timestamp),
            }
            for r in reports
        ]
        for name, reports in degraded.items()
    }


def load_degraded(data: "dict[str, list]") -> "dict[str, list[DegradedReport]]":
    return {
        name: [
            DegradedReport(
                query_name=r["query_name"],
                region_id=int(r["region_id"]),
                lower=tuple(float(v) for v in r["lower"]),
                upper=tuple(float(v) for v in r["upper"]),
                est_join_count=float(r["est_join_count"]),
                reason=r["reason"],
                timestamp=float(r["timestamp"]),
            )
            for r in reports
        ]
        for name, reports in data.items()
    }


def dump_quarantine(
    reports: "dict[str, QuarantineReport]",
) -> "dict[str, Any]":
    return {
        key: {
            "relation": report.relation,
            "rows_scanned": report.rows_scanned,
            "quarantined": [
                [t.row, t.attribute, t.reason] for t in report.quarantined
            ],
        }
        for key, report in reports.items()
    }


def load_quarantine(data: "dict[str, Any]") -> "dict[str, QuarantineReport]":
    return {
        key: QuarantineReport(
            relation=entry["relation"],
            quarantined=[
                QuarantinedTuple(int(row), attribute, reason)
                for row, attribute, reason in entry["quarantined"]
            ],
            rows_scanned=int(entry["rows_scanned"]),
        )
        for key, entry in data.items()
    }


# --------------------------------------------------------------------- #
# Input-side codecs (continuous runs persist their merged tables)
# --------------------------------------------------------------------- #
def dump_relation(relation: Relation) -> "dict[str, Any]":
    return {
        "name": relation.name,
        "attrs": [[a.name, a.role.value] for a in relation.schema.attributes],
        "columns": [
            [name, str(relation.column(name).dtype), relation.column(name).tolist()]
            for name in relation.schema.names
        ],
    }


def load_relation(data: "dict[str, Any]") -> Relation:
    schema = Schema([Attribute(name, Role(role)) for name, role in data["attrs"]])
    columns = {
        name: np.asarray(values, dtype=np.dtype(dtype))
        for name, dtype, values in data["columns"]
    }
    return Relation(data["name"], schema, columns)


def _scalar(value: "Any") -> "Any":
    return value.item() if hasattr(value, "item") else value


def dump_cell(cell: LeafCell) -> "dict[str, Any]":
    return {
        "cell_id": cell.cell_id,
        "relation": cell.relation_name,
        "indices": [int(i) for i in cell.indices],
        "measure_attrs": list(cell.measure_attrs),
        "bounds": [
            [float(v) for v in cell.bounds.lower],
            [float(v) for v in cell.bounds.upper],
        ],
        "signatures": [
            [name, sorted(_scalar(v) for v in values)]
            for name, values in sorted(cell.signatures.items())
        ],
    }


def load_cell(data: "dict[str, Any]") -> LeafCell:
    return LeafCell(
        cell_id=int(data["cell_id"]),
        relation_name=data["relation"],
        indices=np.asarray(data["indices"], dtype=np.intp),
        measure_attrs=tuple(data["measure_attrs"]),
        bounds=HyperRect(
            tuple(float(v) for v in data["bounds"][0]),
            tuple(float(v) for v in data["bounds"][1]),
        ),
        signatures={
            name: frozenset(values) for name, values in data["signatures"]
        },
    )


__all__ = [
    "dump_cell",
    "dump_degraded",
    "dump_graph",
    "dump_logs",
    "dump_plan_windows",
    "dump_quarantine",
    "dump_relation",
    "dump_stats",
    "dump_store",
    "dump_supervisor",
    "latest_snapshot",
    "list_snapshots",
    "load_cell",
    "load_degraded",
    "load_graph",
    "load_logs",
    "load_plan_windows",
    "load_quarantine",
    "load_relation",
    "load_stats",
    "load_store",
    "load_supervisor",
    "read_snapshot",
    "snapshot_path",
    "write_snapshot",
]
