"""Unit tests for the write-ahead region journal and snapshot codec."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core import CAQEConfig
from repro.durability.checkpoint import (
    latest_snapshot,
    list_snapshots,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.durability.journal import (
    JOURNAL_FILENAME,
    JOURNAL_MAGIC,
    RegionJournal,
    continuous_fingerprint,
    relation_digest,
    run_fingerprint,
)
from repro.errors import DurabilityError


def _journal_path(directory) -> str:
    return os.path.join(str(directory), JOURNAL_FILENAME)


class TestRegionJournal:
    def test_append_then_resume_round_trips_records(self, tmp_path):
        journal = RegionJournal.create(str(tmp_path), "fp")
        records = [
            {"seq": 1, "event": "processed", "clock": 1.5},
            {"seq": 2, "event": "quarantined", "clock": 2.25},
        ]
        for record in records:
            journal.append(record)
        journal.close()

        reopened, recovered = RegionJournal.open_resume(str(tmp_path), "fp")
        reopened.close()
        assert recovered == records

    def test_floats_round_trip_bit_identically(self, tmp_path):
        value = 0.1 + 0.2  # not representable; repr must round-trip it
        journal = RegionJournal.create(str(tmp_path), "fp")
        journal.append({"seq": 1, "clock": value})
        journal.close()
        _, records = RegionJournal.open_resume(str(tmp_path), "fp")
        assert records[0]["clock"] == value

    def test_create_refuses_existing_journal(self, tmp_path):
        RegionJournal.create(str(tmp_path), "fp").close()
        with pytest.raises(DurabilityError, match="already exists"):
            RegionJournal.create(str(tmp_path), "fp")

    def test_resume_truncates_torn_tail(self, tmp_path):
        journal = RegionJournal.create(str(tmp_path), "fp")
        journal.append({"seq": 1})
        journal.close()
        with open(_journal_path(tmp_path), "ab") as handle:
            handle.write(b'deadbeef {"seq": 2')  # no newline: torn write

        reopened, records = RegionJournal.open_resume(str(tmp_path), "fp")
        assert records == [{"seq": 1}]
        # The torn bytes are gone for good — the file ends at the last
        # intact record and appending continues from there.
        reopened.append({"seq": 2})
        reopened.close()
        _, records = RegionJournal.open_resume(str(tmp_path), "fp")
        assert records == [{"seq": 1}, {"seq": 2}]

    def test_resume_discards_everything_after_a_corrupt_line(self, tmp_path):
        journal = RegionJournal.create(str(tmp_path), "fp")
        journal.append({"seq": 1})
        journal.close()
        with open(_journal_path(tmp_path), "ab") as handle:
            handle.write(b'00000000 {"seq": 2}\n')  # bad CRC
            handle.write(b"ffffffff garbage\n")
        _, records = RegionJournal.open_resume(str(tmp_path), "fp")
        assert records == [{"seq": 1}]

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        RegionJournal.create(str(tmp_path), "fp-a").close()
        with pytest.raises(DurabilityError, match="fingerprint mismatch"):
            RegionJournal.open_resume(str(tmp_path), "fp-b")

    def test_resume_rejects_foreign_files(self, tmp_path):
        with open(_journal_path(tmp_path), "w") as handle:
            handle.write("not a journal\n")
        with pytest.raises(DurabilityError, match="header"):
            RegionJournal.open_resume(str(tmp_path), "fp")

    def test_resume_of_missing_journal_raises(self, tmp_path):
        with pytest.raises(DurabilityError, match="no journal"):
            RegionJournal.open_resume(str(tmp_path), "fp")

    def test_header_carries_magic(self, tmp_path):
        RegionJournal.create(str(tmp_path), "fp").close()
        with open(_journal_path(tmp_path)) as handle:
            header = json.loads(handle.readline().split(" ", 1)[1])
        assert header["magic"] == JOURNAL_MAGIC
        assert header["fingerprint"] == "fp"


class TestFingerprints:
    def test_durability_knobs_do_not_change_run_identity(self, small_pair, figure1_workload):
        base = CAQEConfig()
        moved = dataclasses.replace(
            base,
            enable_journal=True,
            journal_dir="/somewhere/else",
            checkpoint_every_regions=3,
            server_queue_limit=7,
        )
        assert run_fingerprint(
            base, small_pair.left, small_pair.right, figure1_workload
        ) == run_fingerprint(
            moved, small_pair.left, small_pair.right, figure1_workload
        )

    def test_engine_knobs_do_change_run_identity(self, small_pair, figure1_workload):
        base = CAQEConfig()
        static = dataclasses.replace(base, enable_feedback=False)
        assert run_fingerprint(
            base, small_pair.left, small_pair.right, figure1_workload
        ) != run_fingerprint(
            static, small_pair.left, small_pair.right, figure1_workload
        )

    def test_input_bytes_change_run_identity(self, small_pair, figure1_workload):
        config = CAQEConfig()
        original = run_fingerprint(
            config, small_pair.left, small_pair.right, figure1_workload
        )
        name = small_pair.left.schema.names[0]
        columns = {
            attr: np.array(small_pair.left.column(attr), copy=True)
            for attr in small_pair.left.schema.names
        }
        columns[name][0] += 1.0
        tweaked = type(small_pair.left)(
            small_pair.left.name, small_pair.left.schema, columns
        )
        assert (
            run_fingerprint(config, tweaked, small_pair.right, figure1_workload)
            != original
        )

    def test_relation_digest_is_stable(self, small_pair):
        assert relation_digest(small_pair.left) == relation_digest(
            small_pair.left
        )

    def test_continuous_identity_ignores_inputs(self, figure1_workload):
        # Deltas arrive over time: the streaming identity is the config
        # plus the workload, never input bytes.
        fp = continuous_fingerprint(CAQEConfig(), figure1_workload)
        assert fp == continuous_fingerprint(CAQEConfig(), figure1_workload)
        assert fp != run_fingerprint.__name__  # sanity: a hex digest
        assert len(fp) == 64


class TestSnapshots:
    def test_write_read_round_trip_preserves_floats(self, tmp_path):
        state = {"clock": 0.1 + 0.2, "trace": [1, 2, 3]}
        write_snapshot(str(tmp_path), 5, "fp", state)
        snapshot = read_snapshot(snapshot_path(str(tmp_path), 5))
        assert snapshot["seq"] == 5
        assert snapshot["fingerprint"] == "fp"
        assert snapshot["state"]["clock"] == state["clock"]

    def test_latest_snapshot_picks_newest_at_or_before_max_seq(self, tmp_path):
        for seq in (3, 6, 9):
            write_snapshot(str(tmp_path), seq, "fp", {"seq_check": seq})
        newest = latest_snapshot(str(tmp_path), "fp")
        assert newest is not None and newest["seq"] == 9
        bounded = latest_snapshot(str(tmp_path), "fp", max_seq=7)
        assert bounded is not None and bounded["seq"] == 6

    def test_latest_snapshot_skips_corrupt_files(self, tmp_path):
        write_snapshot(str(tmp_path), 3, "fp", {"good": True})
        write_snapshot(str(tmp_path), 6, "fp", {"good": True})
        with open(snapshot_path(str(tmp_path), 6), "r+b") as handle:
            handle.seek(0)
            handle.write(b"XXXXXXXX")
        newest = latest_snapshot(str(tmp_path), "fp")
        assert newest is not None and newest["seq"] == 3

    def test_latest_snapshot_rejects_foreign_fingerprints(self, tmp_path):
        write_snapshot(str(tmp_path), 3, "fp-a", {})
        with pytest.raises(DurabilityError, match="fingerprint"):
            latest_snapshot(str(tmp_path), "fp-b")

    def test_no_snapshots_yields_none(self, tmp_path):
        assert latest_snapshot(str(tmp_path), "fp") is None
        assert list_snapshots(str(tmp_path)) == []
