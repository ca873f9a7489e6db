"""``tools.bench_gate.gate`` on synthetic records.

The gate is the CI check that the engine's exact observables did not
move; these tests pin what it compares (invariants, within-run ratios),
what it ignores (the ``speedup`` field history entries up to PR 15
carry), and which entries may gate each other (same ``repro_scale``).
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.bench_gate import distil, gate  # noqa: E402

TOLERANCE = 0.35


def _cell(comparisons: int, **extra) -> dict:
    return {
        "wall_s": 0.5,
        "skyline_comparisons": comparisons,
        "virtual_time": comparisons * 3.25,
        "regions_processed": 141,
        "average_satisfaction": 0.314599,
        **extra,
    }


def _report(repro_scale: float = 1.0, base: int = 7815) -> dict:
    """A ``bench_perf_trajectory --quick`` report, one engine mode."""
    return {
        "quick": True,
        "repro_scale": repro_scale,
        "python": "3.11.7",
        "machine": "x86_64",
        "fig9_independent_c2": _cell(base, scenario={"queries": 11}),
        "fig11_size_sweep": [
            _cell(base // 3, scenario={"queries": 3}),
            _cell(base // 2, scenario={"queries": 6}),
        ],
        "scale_sweep": [
            _cell(base, scale=1, cardinality=300, relative_throughput=1.0),
            _cell(9 * base, scale=4, cardinality=1200, relative_throughput=2.0),
        ],
    }


def _passing(record: dict, *, with_speedup: bool = False) -> dict:
    entry = copy.deepcopy(record)
    entry["status"] = "pass"
    if with_speedup:
        # The shape PR <= 15 entries have: a scalar+naive / batch+cache
        # ratio per fig9/fig11 cell.
        entry["fig9"]["speedup"] = 8.04
        for cell in entry["fig11"]:
            cell["speedup"] = 7.5
    return entry


def test_distil_reads_the_one_mode_row():
    record = distil(_report())
    assert record["fig9"]["invariants"]["skyline_comparisons"] == 7815
    assert [c["queries"] for c in record["fig11"]] == [3, 6]
    assert [c["scale"] for c in record["scale_sweep"]] == [1, 4]
    assert "speedup" not in record["fig9"]
    assert all("speedup" not in cell for cell in record["fig11"])


def test_empty_history_seeds_and_unchanged_record_passes():
    record = distil(_report())
    assert gate(record, [], TOLERANCE) == []
    assert gate(record, [_passing(record)], TOLERANCE) == []


def test_invariant_mismatch_fails_and_names_the_cell():
    record = distil(_report())
    history = [_passing(record)]
    for section, label in [
        ("fig9", "DETERMINISM fig9: skyline_comparisons"),
        ("fig11", "DETERMINISM fig11 |S_Q|=6: skyline_comparisons"),
        ("scale_sweep", "DETERMINISM scale 4x: skyline_comparisons"),
    ]:
        drifted = copy.deepcopy(record)
        cell = drifted[section] if section == "fig9" else drifted[section][1]
        cell["invariants"]["skyline_comparisons"] += 1
        failures = gate(drifted, history, TOLERANCE)
        assert len(failures) == 1 and failures[0].startswith(label), failures


def test_failed_history_entries_are_not_a_baseline():
    record = distil(_report())
    bad = _passing(record)
    bad["fig9"]["invariants"]["skyline_comparisons"] += 1
    bad["status"] = "fail"
    assert gate(record, [_passing(record), bad], TOLERANCE) == []


def test_record_without_speedup_passes_against_history_that_has_it():
    record = distil(_report())
    history = [_passing(record, with_speedup=True)] * 3
    assert gate(record, history, TOLERANCE) == []
    # ... and the old entries still gate the invariants.
    record["fig9"]["invariants"]["virtual_time"] += 0.5
    assert any("virtual_time" in f for f in gate(record, history, TOLERANCE))


def test_lineages_with_different_repro_scale_do_not_gate_each_other():
    scale1 = distil(_report(1.0, base=7815))
    scale4 = distil(_report(4.0, base=70865))
    assert gate(scale4, [_passing(scale1)], TOLERANCE) == []
    assert gate(scale1, [_passing(scale4)], TOLERANCE) == []
    # Within a lineage the same drift is caught, whatever sits between.
    drifted = copy.deepcopy(scale4)
    drifted["fig9"]["invariants"]["regions_processed"] += 1
    history = [_passing(scale4), _passing(scale1)]
    assert len(gate(drifted, history, TOLERANCE)) == 1


def test_scale_sweep_relative_throughput_ratio_is_still_gated():
    record = distil(_report())
    history = [_passing(record)]
    slowed = copy.deepcopy(record)
    slowed["scale_sweep"][1]["relative_throughput"] = 2.0 * (1 - TOLERANCE) - 0.01
    failures = gate(slowed, history, TOLERANCE)
    assert len(failures) == 1
    assert failures[0].startswith("PERF scale 4x relative throughput")
    slowed["scale_sweep"][1]["relative_throughput"] = 2.0 * (1 - TOLERANCE) + 0.01
    assert gate(slowed, history, TOLERANCE) == []


def test_history_parallel_section_is_neither_produced_nor_gated():
    """Entries written while a worker pool existed carry a ``parallel``
    section (pool speedups + two serial cells' invariants); they still
    gate the sections a record has, and nothing reads the old one."""
    record = distil(_report())
    assert "parallel" not in record
    old = _passing(record)
    old["parallel"] = {
        "fig9_figure1_c2": {
            "invariants": {"skyline_comparisons": 1},
            "speedups": {"workers=2": 9.0},
        }
    }
    assert gate(record, [old] * 3, TOLERANCE) == []
    record["fig9"]["invariants"]["regions_processed"] += 1
    assert len(gate(record, [old], TOLERANCE)) == 1
