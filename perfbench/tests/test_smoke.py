"""End-to-end smoke: every workload at ``--smoke`` size, plain and traced."""

import copy
import json

import pytest

from perfbench import ledger, run, trace, workloads
from perfbench.__main__ import SMOKE_ROWS

SEED = 12
NAMES = list(workloads.WORKLOADS)
BENCHMARK = run.registry()


def _smoke(name, traced, **extra):
    return run.run_workload(
        name, SEED, 1.0, traced,
        rows=SMOKE_ROWS, datasets=1, setup_samples=1, **extra,
    )


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One plain and one traced run per workload, shared by the tests."""
    spans = tmp_path_factory.mktemp("spans")
    out = {}
    for name in NAMES:
        out[name, False] = _smoke(name, False)
        out[name, True] = _smoke(name, True, trace_out=str(spans / f"{name}.jsonl"))
        with open(spans / f"{name}.jsonl", encoding="utf-8") as handle:
            out[name, "spans"] = [json.loads(line) for line in handle]
    return out


def test_benchmark_json_registers_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_every_registered_metric_is_printed_with_its_unit(
    reports, name, traced, capsys
):
    report = reports[name, traced]
    run.print_report(report)
    printed = capsys.readouterr().out
    line = json.loads(run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        shown = [row.split() for row in printed.splitlines()
                 if row.split()[:1] == [metric["name"]]]
        assert shown and shown[0][-1] == metric["unit"], metric["name"]
        value = line["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and value == value
        if not traced:
            assert value > 0, f"end-to-end {metric['name']} must never read 0"


@pytest.mark.parametrize("name", NAMES)
def test_results_match_the_oracle(reports, name):
    for traced in (False, True):
        report = reports[name, traced]
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1
        assert report["observables"]["plain_and_traced_agree"]


@pytest.mark.parametrize("name", NAMES)
def test_spans_nest_and_self_times_add_up_to_the_wall(reports, name):
    rows = reports[name, "spans"]
    spans = [[r["name"], r["start"], r["end"], r["parent"], r["exec"]] for r in rows]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["exec"]
    for _name, start, end, parent, _exec in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    selfs = trace.self_times(spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)
    # The ledger's closing line: named layers + unattributed = wall.
    values = reports[name, True]["values"]
    layers = sum(
        value for key, value in values.items()
        if key.endswith(".self_s") and value is not None
        and key[: -len(".self_s")] not in ledger.DRIVER_SPANS
    )
    assert layers / values["trace.wall_s"] + values[
        "core.caqe.unattributed_share"
    ] == pytest.approx(1.0, abs=1e-3)
    assert values["trace.missing_targets"] == 0


def test_a_trace_target_that_moved_reads_null_and_is_counted():
    moved = tuple(
        (layer, "repro.core.caqe:renamed_away" if layer == "core.coarse_join"
         else target, counters)
        for layer, target, counters in trace.TARGETS
    )
    report = _smoke("lookahead_bound", True, targets=moved)
    assert report["correct"]
    assert report["values"]["core.coarse_join.self_s"] is None
    assert report["values"]["trace.missing_targets"] == 1
    assert report["missing_targets"] == [
        ("core.coarse_join", "repro.core.caqe:renamed_away")
    ]
    line = json.loads(run.result_line(report))
    assert line["metrics"]["core.coarse_join.self_s"]["value"] == 0.0
    assert line["metrics"]["trace.missing_targets"]["value"] == 1


def test_a_counter_whose_target_changed_shape_reads_null_and_is_counted():
    reshaped = tuple(
        (layer, target,
         {"core.coarse_join.regions": lambda args, kwargs, result: result.no_such}
         if layer == "core.coarse_join" else counters)
        for layer, target, counters in trace.TARGETS
    )
    report = _smoke("lookahead_bound", True, targets=reshaped)
    assert report["correct"]
    values = report["values"]
    assert values["core.coarse_join.regions"] is None
    assert values["core.coarse_skyline.pruned_ratio"] is None
    assert values["core.coarse_join.self_s"] > 0
    assert values["trace.missing_targets"] == 1
    assert report["missing_targets"] == [
        ("core.coarse_join.regions", "repro.core.caqe:coarse_join")
    ]


@pytest.mark.parametrize("name", ["sched_bound", "serving_burst"])
def test_a_wrong_identity_set_is_a_failure(name, tmp_path):
    spec = workloads.WORKLOADS[name].scaled(SMOKE_ROWS)
    data = workloads.generate(spec, SEED)
    record = workloads.execute(
        spec, data, workloads.calibrate(spec, data), None, str(tmp_path)
    )
    assert run.verify([(0, record)], [data], None)["failed"] == 0
    tampered = copy.deepcopy(record)
    _kind, reported = tampered["answers"][0]
    victim = next(q for q, pairs in reported.items() if pairs)
    reported[victim].pop()
    assert run.verify([(0, tampered)], [data], None)["failed"] == 1
    forged = copy.deepcopy(record)
    forged["answers"][0][1][victim].add((10**6, 10**6))
    assert run.verify([(0, forged)], [data], None)["failed"] == 1
    # A submission that never got an answer is a failure too.
    lost = copy.deepcopy(record)
    lost["lost"] = 2
    assert run.verify([(0, lost)], [data], None)["failed"] == 2
