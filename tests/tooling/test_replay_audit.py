"""``tools.replay_audit``'s verdict logic, with no child processes.

The audit itself runs in CI (it needs fresh interpreters and real
``SIGKILL``s); these tests pin what decides its verdict: the diff names
exactly the observables that drifted, and every kill point lands strictly
inside the run it cuts.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.replay_audit import OBSERVABLES, diff, kill_points  # noqa: E402

PAYLOAD = {
    "region_trace": [3, 1, 2],
    "skyline_comparisons": 120,
    "coarse_comparisons": 40,
    "elapsed": 512.5,
    "reported": {"Q1": [[0, 4], [2, 7]]},
    "degraded": {"Q2": [[5, "quarantine", 300.0]]},
}

DRIFTS = {
    "region_trace": [3, 2, 1],
    "skyline_comparisons": 121,
    "coarse_comparisons": 41,
    "elapsed": 512.75,
    "reported": {"Q1": [[0, 4]]},
    "degraded": {},
}


def test_payload_covers_every_observable():
    assert set(PAYLOAD) == set(OBSERVABLES) == set(DRIFTS)


def test_identical_payloads_pass(capsys):
    assert diff("same", PAYLOAD, copy.deepcopy(PAYLOAD)) == []
    assert capsys.readouterr().out.startswith("  ok")


@pytest.mark.parametrize("key", OBSERVABLES)
def test_one_drifted_observable_is_named(capsys, key):
    drifted = dict(copy.deepcopy(PAYLOAD), **{key: DRIFTS[key]})
    assert diff("resume", PAYLOAD, drifted) == [key]
    out = capsys.readouterr().out
    assert out.startswith(f"  FAIL resume: drift in {key}\n")


def test_kill_points_stay_strictly_inside_the_run():
    for total in range(2, 300):
        for seed in range(6):
            points = kill_points(total, seed)
            assert points == sorted(set(points))
            assert all(1 <= p <= total - 1 for p in points), (total, seed)
