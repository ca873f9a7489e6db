"""Environment pinning, the load guard and ``--compare``."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import __main__ as suite
from perfbench import compare, run


def _observables(tmp_path, tag, extra):
    out = tmp_path / f"{tag}.json"
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_SCALE", "CAQE_TEST_WORKERS")}
    env.update(extra)
    subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
         "--workload", "sched_bound", "--seed", "5", "--datasets", "2",
         "--out", str(out)],
        cwd=run.ROOT, env=env, check=True,
        capture_output=True, timeout=170,
    )
    report = json.loads(out.read_text())
    assert report["correct"]
    return report["observables"]


def test_repro_scale_and_test_workers_do_not_reach_the_benchmark(tmp_path):
    plain = _observables(tmp_path, "plain", {})
    pinned = _observables(
        tmp_path, "pinned", {"REPRO_SCALE": "4", "CAQE_TEST_WORKERS": "2"}
    )
    assert plain == pinned


def test_suite_refuses_a_loaded_host(monkeypatch):
    monkeypatch.setattr(os, "getloadavg", lambda: (64.0, 1.0, 1.0))
    with pytest.raises(SystemExit) as refusal:
        suite.main(["--workload", "sched_bound"])
    assert "load average" in str(refusal.value)


def _report(workload, wall, seed=1, comparisons=100):
    benchmark = run.registry()
    values = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
    values["wall_s"] = wall
    return {
        "workload": workload, "traced": False, "seed": seed, "seconds": 15,
        "rows": None, "datasets": 2, "failed": 0,
        "values": values,
        "observables": {"skyline_comparisons": [comparisons], "fingerprint": "f"},
    }


def _status(a_walls, b_walls, **kw):
    benchmark = run.registry()
    result = compare.compare(
        [_report("commit_bound", w, seed=i) for i, w in enumerate(a_walls)],
        [_report("commit_bound", w, seed=i, **kw) for i, w in enumerate(b_walls)],
        benchmark,
    )
    row = next(r for r in result["timings"] if r["metric"] == "wall_s")
    return row["status"], compare.render(result)[1]


def test_compare_verdicts():
    bound = next(
        m["bound"] for m in run.registry()["end_to_end"] if m["name"] == "wall_s"
    )
    steady = [1.0, 1.01, 0.99, 1.0]
    assert _status(steady, steady) == ("ok", 0)
    worse = [w * (1 + 2 * bound) for w in steady]
    assert _status(steady, worse) == ("regressed", 1)
    assert _status(worse, steady) == ("ok", 0)
    noisy = [1.0, 1.0 + 2 * bound, 1.0 - bound, 1.0 + 3 * bound]
    assert _status(noisy, [w * 1.02 for w in noisy]) == ("unresolved", 0)
    # Wide spread, but every candidate run beats every reference run.
    assert _status(noisy, [0.4, 0.5, 0.45, 0.42]) == ("ok", 0)


def test_compare_flags_a_count_that_moved():
    status, exit_code = _status([1.0, 1.0], [1.0, 1.0], comparisons=101)
    assert status == "ok" and exit_code == 1
