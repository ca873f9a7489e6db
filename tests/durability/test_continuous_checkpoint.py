"""Continuous-engine durability: one journal, mid-epoch checkpoints.

The crash is simulated exactly as a ``SIGKILL`` leaves the directory:
the journal is truncated to its first ``K`` records and every snapshot
with a later seq is deleted (fsync ordering guarantees a record hits
disk before the snapshot that covers it).  Resume must then finish the
interrupted epoch — re-running its MQLA stage from the snapshot's cells,
restoring the run state, replaying its journalled regions with
verification, retries included — and continue through the remaining
deltas bit-identically.
"""

import json
import os

import numpy as np
import pytest

from repro.contracts import c2
from repro.core import CAQEConfig
from repro.core.continuous import ContinuousCAQE
from repro.datagen import generate_pair
from repro.durability import resume_continuous
from repro.durability.checkpoint import list_snapshots
from repro.durability.journal import JOURNAL_FILENAME
from repro.errors import DurabilityError
from repro.relation import Relation
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy

CHUNKS = ((0, 30), (30, 60), (60, 90))


def _slice(relation: Relation, start: int, stop: int) -> Relation:
    return relation.take(np.arange(start, stop), name=relation.name)


@pytest.fixture(scope="module")
def pair():
    return generate_pair("independent", 90, 4, selectivity=0.08, seed=61)


@pytest.fixture(scope="module")
def contracts(figure1_workload):
    return {q.name: c2(scale=1000.0) for q in figure1_workload}


def journaled(journal_dir, **overrides) -> CAQEConfig:
    knobs = dict(
        enable_journal=True,
        journal_dir=str(journal_dir),
        checkpoint_every_regions=3,
    )
    knobs.update(overrides)
    return CAQEConfig(**knobs)


def feed(engine, pair, chunks=CHUNKS):
    return [
        engine.process_epoch(
            left_delta=_slice(pair.left, start, stop),
            right_delta=_slice(pair.right, start, stop),
        )
        for start, stop in chunks
    ]


def epoch_digest(result):
    return (
        result.epoch,
        {k: sorted(v) for k, v in sorted(result.new_results.items())},
        {k: sorted(v) for k, v in sorted(result.retracted.items())},
        result.virtual_time,
        result.region_retries,
        result.regions_quarantined,
    )


def engine_observables(engine, workload):
    return (
        engine.stats.skyline_comparisons,
        engine.stats.elapsed,
        {q.name: sorted(engine.current_skyline(q.name)) for q in workload},
    )


def journal_records(journal_dir):
    path = os.path.join(str(journal_dir), JOURNAL_FILENAME)
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    return lines[0], [
        (line, json.loads(line.decode().split(" ", 1)[1]))
        for line in lines[1:]
    ]


def simulate_crash(journal_dir, keep_records):
    """Truncate to ``keep_records`` journal records + matching snapshots."""
    header, records = journal_records(journal_dir)
    kept = records[:keep_records]
    path = os.path.join(str(journal_dir), JOURNAL_FILENAME)
    with open(path, "wb") as handle:
        handle.write(header + b"".join(line for line, _ in kept))
    max_seq = int(kept[-1][1]["seq"]) if kept else 0
    for seq, snap_path in list_snapshots(str(journal_dir)):
        if seq > max_seq:
            os.remove(snap_path)
    return max_seq


class TestContinuousJournalEquivalence:
    def test_journal_on_matches_journal_off(
        self, figure1_workload, contracts, pair, tmp_path
    ):
        plain = ContinuousCAQE(figure1_workload, contracts, CAQEConfig())
        plain_epochs = feed(plain, pair)
        journaled_engine = ContinuousCAQE(
            figure1_workload, contracts, journaled(tmp_path)
        )
        journal_epochs = feed(journaled_engine, pair)
        journaled_engine.close()
        assert [epoch_digest(e) for e in journal_epochs] == [
            epoch_digest(e) for e in plain_epochs
        ]
        assert engine_observables(
            journaled_engine, figure1_workload
        ) == engine_observables(plain, figure1_workload)


class TestContinuousResume:
    def _reference(self, workload, contracts, pair, config=None):
        engine = ContinuousCAQE(workload, contracts, config or CAQEConfig())
        epochs = feed(engine, pair)
        return engine, epochs

    def test_resume_before_first_epoch(
        self, figure1_workload, contracts, pair, tmp_path
    ):
        # The seq-0 snapshot written at construction makes a crash before
        # any delta recoverable.
        ContinuousCAQE(figure1_workload, contracts, journaled(tmp_path)).close()
        engine, mid = resume_continuous(
            figure1_workload, contracts, journaled(tmp_path)
        )
        assert mid is None
        reference, ref_epochs = self._reference(
            figure1_workload, contracts, pair
        )
        epochs = feed(engine, pair)
        engine.close()
        assert [epoch_digest(e) for e in epochs] == [
            epoch_digest(e) for e in ref_epochs
        ]

    def test_resume_at_epoch_boundary(
        self, figure1_workload, contracts, pair, tmp_path
    ):
        reference, ref_epochs = self._reference(
            figure1_workload, contracts, pair
        )
        victim = ContinuousCAQE(figure1_workload, contracts, journaled(tmp_path))
        feed(victim, pair, chunks=CHUNKS[:2])
        victim.close()

        engine, mid = resume_continuous(
            figure1_workload, contracts, journaled(tmp_path)
        )
        assert mid is None  # the crash fell exactly on an epoch boundary
        final = feed(engine, pair, chunks=CHUNKS[2:])
        engine.close()
        assert epoch_digest(final[0]) == epoch_digest(ref_epochs[2])
        assert engine_observables(
            engine, figure1_workload
        ) == engine_observables(reference, figure1_workload)

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_mid_epoch_crash_with_epoch_replay(
        self, figure1_workload, contracts, pair, tmp_path, fraction
    ):
        # Transient region failures force retries within the epoch; the
        # crash lands *inside* epoch 2, between two of its region records.
        knobs = dict(
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=12),
            fault_plan=FaultPlan(
                FaultConfig(seed=3, region_failure_rate=0.3)
            ),
        )
        reference, ref_epochs = self._reference(
            figure1_workload, contracts, pair, CAQEConfig(**knobs)
        )
        assert sum(e.region_retries for e in ref_epochs) > 0

        journal_dir = tmp_path / f"crash-{fraction}"
        victim = ContinuousCAQE(
            figure1_workload, contracts, journaled(journal_dir, **knobs)
        )
        feed(victim, pair, chunks=CHUNKS[:2])
        victim.close()

        _, records = journal_records(journal_dir)
        epoch2 = [
            payload
            for _, payload in records
            if payload["epoch"] == records[-1][1]["epoch"]
            and payload["event"] != "epoch_end"
        ]
        assert len(epoch2) > 2, "epoch 2 must span several regions"
        cut = int(records[-1][1]["seq"]) - len(epoch2) + max(
            1, int(len(epoch2) * fraction)
        )
        simulate_crash(journal_dir, cut)

        engine, mid = resume_continuous(
            figure1_workload, contracts, journaled(journal_dir, **knobs)
        )
        assert mid is not None, "resume must finish the interrupted epoch"
        assert epoch_digest(mid) == epoch_digest(ref_epochs[1])
        final = feed(engine, pair, chunks=CHUNKS[2:])
        engine.close()
        assert epoch_digest(final[0]) == epoch_digest(ref_epochs[2])
        assert engine_observables(
            engine, figure1_workload
        ) == engine_observables(reference, figure1_workload)

    def test_mid_epoch_crash_in_the_third_epoch(
        self, figure1_workload, contracts, pair, tmp_path
    ):
        """Region ids run on across epochs, so the third epoch's MQLA
        stage must be re-run with its own first region id."""
        reference, ref_epochs = self._reference(
            figure1_workload, contracts, pair
        )
        victim = ContinuousCAQE(figure1_workload, contracts, journaled(tmp_path))
        feed(victim, pair)
        victim.close()

        _, records = journal_records(tmp_path)
        regions = {
            epoch: [
                p["region"]
                for _, p in records
                if p["epoch"] == epoch and p["event"] != "epoch_end"
            ]
            for epoch in (2, 3)
        }
        assert len(regions[3]) > 2, "epoch 3 must span several regions"
        assert min(regions[3]) > max(regions[2]) > 0
        third = [int(p["seq"]) for _, p in records if p["epoch"] == 3]
        simulate_crash(tmp_path, third[len(third) // 2])

        engine, mid = resume_continuous(
            figure1_workload, contracts, journaled(tmp_path)
        )
        engine.close()
        assert mid is not None
        assert epoch_digest(mid) == epoch_digest(ref_epochs[2])
        assert engine_observables(
            engine, figure1_workload
        ) == engine_observables(reference, figure1_workload)
        assert engine.stats.region_trace == reference.stats.region_trace

    def test_journal_with_a_seq_gap_is_refused(
        self, figure1_workload, contracts, pair, tmp_path
    ):
        victim = ContinuousCAQE(figure1_workload, contracts, journaled(tmp_path))
        feed(victim, pair, chunks=CHUNKS[:2])
        victim.close()
        header, records = journal_records(tmp_path)
        path = os.path.join(str(tmp_path), JOURNAL_FILENAME)
        kept = [line for i, (line, _) in enumerate(records) if i != 1]
        with open(path, "wb") as handle:
            # Drop record 2: every snapshot and the tail survive intact.
            handle.write(header + b"".join(kept))
        with pytest.raises(DurabilityError, match="not contiguous"):
            resume_continuous(figure1_workload, contracts, journaled(tmp_path))

    def test_resume_requires_journaling(self, figure1_workload, contracts):
        with pytest.raises(DurabilityError, match="enable_journal"):
            resume_continuous(figure1_workload, contracts, CAQEConfig())
