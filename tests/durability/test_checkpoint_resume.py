"""Crash/resume bit-identity for finite runs (docs/ARCHITECTURE.md §10.4).

Crashes are driven two ways here: a counting cancel token stops the run
at an exact region boundary in-process (fast, deterministic), and
``tools/replay_audit.py`` delivers real ``SIGKILL``s in CI.  Both
leave the same on-disk artefact — an fsync'd journal prefix plus the
snapshots written before the cut — which is what resume consumes.
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig, JoinResultStore
from repro.datagen import generate_pair
from repro.durability import resume_run
from repro.durability.checkpoint import (
    dump_store,
    list_snapshots,
    load_store,
    read_snapshot,
    write_snapshot,
)
from repro.durability.journal import JOURNAL_FILENAME, _encode
from repro.errors import DurabilityError, QueryCancelled, ResumeMismatch
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy


class StopAfter:
    """Cancel token that fires after ``n`` region-boundary polls."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def is_cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0


def observables(result):
    return (
        result.stats.region_trace,
        result.stats.skyline_comparisons,
        result.stats.coarse_comparisons,
        result.stats.elapsed,
        result.reported,
        result.degraded,
        result.stats.summary(),
    )


@pytest.fixture(scope="module")
def inputs(figure1_workload):
    pair = generate_pair("independent", 90, 4, selectivity=0.05, seed=29)
    contracts = {q.name: c2(scale=100.0) for q in figure1_workload}
    return pair, figure1_workload, contracts


def journaled_config(journal_dir, **overrides) -> CAQEConfig:
    knobs = dict(
        enable_journal=True,
        journal_dir=str(journal_dir),
        checkpoint_every_regions=5,
    )
    knobs.update(overrides)
    return CAQEConfig(**knobs)


def run(config, inputs, cancel_token=None):
    pair, workload, contracts = inputs
    return CAQE(config).run(
        pair.left, pair.right, workload, contracts, cancel_token=cancel_token
    )


class TestJournalOffEquivalence:
    def test_journal_on_is_bit_identical_to_journal_off(self, inputs, tmp_path):
        baseline = run(CAQEConfig(), inputs)
        journaled = run(journaled_config(tmp_path), inputs)
        assert observables(journaled) == observables(baseline)
        # The journal really was written: header + one record per region.
        assert os.path.getsize(tmp_path / JOURNAL_FILENAME) > 0
        assert list_snapshots(str(tmp_path))


class TestCancelAndResume:
    @pytest.mark.parametrize("stop_at", [0, 3, 13])
    def test_resume_after_cancellation_is_bit_identical(
        self, inputs, tmp_path, stop_at
    ):
        baseline = run(CAQEConfig(), inputs)
        journal_dir = tmp_path / f"stop-{stop_at}"
        with pytest.raises(QueryCancelled):
            run(
                journaled_config(journal_dir),
                inputs,
                cancel_token=StopAfter(stop_at),
            )
        resumed = resume_run(
            inputs[0].left,
            inputs[0].right,
            inputs[1],
            inputs[2],
            journaled_config(journal_dir),
        )
        assert observables(resumed) == observables(baseline)

    def test_journal_only_resume_without_any_snapshot(self, inputs, tmp_path):
        # A huge checkpoint cadence means the run dies before its first
        # snapshot; resume must replay from the very start.
        config = journaled_config(tmp_path, checkpoint_every_regions=10_000)
        baseline = run(CAQEConfig(), inputs)
        with pytest.raises(QueryCancelled):
            run(config, inputs, cancel_token=StopAfter(7))
        assert list_snapshots(str(tmp_path)) == []
        resumed = resume_run(
            inputs[0].left, inputs[0].right, inputs[1], inputs[2], config
        )
        assert observables(resumed) == observables(baseline)

    def test_resume_from_a_moved_directory(self, inputs, tmp_path):
        original = tmp_path / "original"
        moved = tmp_path / "moved"
        with pytest.raises(QueryCancelled):
            run(journaled_config(original), inputs, cancel_token=StopAfter(6))
        shutil.copytree(original, moved)
        baseline = run(CAQEConfig(), inputs)
        resumed = resume_run(
            inputs[0].left,
            inputs[0].right,
            inputs[1],
            inputs[2],
            journaled_config(moved),
        )
        assert observables(resumed) == observables(baseline)

    def test_resume_under_faults_replays_quarantines(self, inputs, tmp_path):
        plan = FaultPlan(
            FaultConfig(
                seed=7,
                region_failure_rate=0.15,
                persistent_failure_rate=0.05,
                straggler_rate=0.2,
            )
        )
        knobs = dict(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=3),
            fault_plan=plan,
        )
        baseline = run(CAQEConfig(**knobs), inputs)
        assert baseline.stats.regions_quarantined > 0  # corner is live
        with pytest.raises(QueryCancelled):
            run(
                journaled_config(tmp_path, **knobs),
                inputs,
                cancel_token=StopAfter(9),
            )
        resumed = resume_run(
            inputs[0].left,
            inputs[0].right,
            inputs[1],
            inputs[2],
            journaled_config(tmp_path, **knobs),
        )
        assert observables(resumed) == observables(baseline)


class TestResumeSafety:
    def test_fresh_run_refuses_a_used_journal_dir(self, inputs, tmp_path):
        run(journaled_config(tmp_path), inputs)
        with pytest.raises(DurabilityError, match="already exists"):
            run(journaled_config(tmp_path), inputs)

    def test_resume_requires_journaling_enabled(self, inputs):
        config = CAQEConfig()
        with pytest.raises(DurabilityError, match="enable_journal"):
            resume_run(
                inputs[0].left, inputs[0].right, inputs[1], inputs[2], config
            )

    def test_resume_rejects_different_inputs(self, inputs, tmp_path):
        with pytest.raises(QueryCancelled):
            run(journaled_config(tmp_path), inputs, cancel_token=StopAfter(4))
        other_pair = generate_pair(
            "independent", 90, 4, selectivity=0.05, seed=30
        )
        with pytest.raises(DurabilityError, match="fingerprint"):
            resume_run(
                other_pair.left,
                other_pair.right,
                inputs[1],
                inputs[2],
                journaled_config(tmp_path),
            )

    def test_tampered_record_raises_resume_mismatch(self, inputs, tmp_path):
        config = journaled_config(tmp_path, checkpoint_every_regions=10_000)
        with pytest.raises(QueryCancelled):
            run(config, inputs, cancel_token=StopAfter(8))
        path = tmp_path / JOURNAL_FILENAME
        lines = path.read_bytes().splitlines(keepends=True)
        # Rewrite the third region record (line 3 after the header) with
        # a drifted comparison count — and a *valid* CRC, so only the
        # verify-then-append replay can catch it.
        import json

        record = json.loads(lines[3].decode().split(" ", 1)[1])
        record["comparisons"] = int(record["comparisons"]) + 1
        lines[3] = _encode(record)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ResumeMismatch, match="comparisons"):
            resume_run(
                inputs[0].left,
                inputs[0].right,
                inputs[1],
                inputs[2],
                config,
            )

    def test_config_must_match_on_observable_knobs(self, inputs, tmp_path):
        with pytest.raises(QueryCancelled):
            run(journaled_config(tmp_path), inputs, cancel_token=StopAfter(4))
        drifted = dataclasses.replace(
            journaled_config(tmp_path), enable_feedback=False
        )
        with pytest.raises(DurabilityError, match="fingerprint"):
            resume_run(
                inputs[0].left,
                inputs[0].right,
                inputs[1],
                inputs[2],
                drifted,
            )

    def test_cadence_change_is_allowed_on_resume(self, inputs, tmp_path):
        # Checkpoint cadence is a durability knob, not run identity.
        baseline = run(CAQEConfig(), inputs)
        with pytest.raises(QueryCancelled):
            run(journaled_config(tmp_path), inputs, cancel_token=StopAfter(4))
        retuned = journaled_config(tmp_path, checkpoint_every_regions=2)
        resumed = resume_run(
            inputs[0].left, inputs[0].right, inputs[1], inputs[2], retuned
        )
        assert observables(resumed) == observables(baseline)


class TestStoreCodec:
    """The result store snapshots as its two identity columns."""

    @staticmethod
    def _filled_store(n):
        store = JoinResultStore()
        left = np.arange(n, dtype=np.int64) * 5 + 2
        right = np.arange(n, dtype=np.int64)[::-1].copy()
        half = n // 2
        store.add_batch(left[:half], right[:half], np.zeros((half, 2)), 0)
        store.add_batch(left[half:], right[half:], np.zeros((n - half, 2)), 1)
        return store, left, right

    def test_dump_json_load_round_trip(self):
        # 2 500 rows: the restored store outgrows its initial capacity.
        source, left, right = self._filled_store(2_500)
        wire = json.loads(json.dumps(dump_store(source)))
        assert sorted(wire) == ["left_row", "right_row"]
        # Loading replaces whatever the target held.
        target = JoinResultStore()
        target.add_batch(np.array([9]), np.array([9]), np.zeros((1, 2)), 0)
        load_store(target, wire)
        assert len(target) == len(source) == 2_500
        for key in (0, 1, 1_023, 1_024, 2_499):
            assert target.identity(key) == source.identity(key)
            assert target.identity(key).as_tuple() == (int(left[key]), int(right[key]))
        # ... and the key sequence continues where the dumped run stopped.
        assert target.add_batch(
            np.array([1]), np.array([2]), np.zeros((1, 2)), 2
        ) == [2_500]
        assert target.identity(2_500).as_tuple() == (1, 2)

    def test_empty_store_round_trips(self):
        target = JoinResultStore()
        load_store(target, json.loads(json.dumps(dump_store(JoinResultStore()))))
        assert len(target) == 0

    def test_pre_columnar_layout_is_refused_by_name(self):
        old = {"next": 1, "entries": [[0, [3, 7], 5, [1.0, 2.0]]]}
        with pytest.raises(DurabilityError, match="entries.*layout|layout.*entries"):
            load_store(JoinResultStore(), old)

    def test_resume_from_an_old_layout_snapshot_raises_durability_error(
        self, inputs, tmp_path
    ):
        """A journal directory written before the columnar store must fail
        at the codec with its reason, not as a ``KeyError`` inside resume."""
        config = journaled_config(tmp_path, checkpoint_every_regions=2)
        with pytest.raises(QueryCancelled):
            run(config, inputs, cancel_token=StopAfter(5))
        snapshots = list_snapshots(str(tmp_path))
        assert snapshots
        for seq, path in snapshots:
            payload = read_snapshot(path)
            state = payload["state"]
            rows = len(state["store"]["left_row"])
            state["store"] = {
                "next": rows,
                "entries": [[k, [0, 0], 0, [0.0]] for k in range(rows)],
            }
            write_snapshot(str(tmp_path), seq, payload["fingerprint"], state)
        with pytest.raises(DurabilityError, match="layout"):
            resume_run(
                inputs[0].left, inputs[0].right, inputs[1], inputs[2], config
            )
