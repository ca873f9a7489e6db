"""Resume entry points for killed runs (docs/ARCHITECTURE.md §10.4).

Recovery is *replay with verification*: the engine re-runs the
deterministic prologue from the original inputs, overwrites the mutable
loop state from the newest intact snapshot, then re-executes the regions
the journal records past that snapshot — and every freshly computed
record must equal the persisted one field for field
(:class:`~repro.errors.ResumeMismatch` otherwise).  Past the old journal
tail the run simply continues, appending new records.  The net effect is
a continuation that is bit-identical to the run that was never killed:
same ``region_trace``, same comparison counts, same virtual-clock
readings, same reported results.

The engine imports live inside the functions — this module is imported
by the :mod:`repro.durability` package, which the engines themselves
import lazily, and function-level imports keep that cycle open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.durability.checkpoint import latest_snapshot
from repro.durability.journal import RegionJournal, run_fingerprint
from repro.errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.contracts.base import Contract
    from repro.core.caqe import CAQEConfig, RunResult
    from repro.query.workload import Workload
    from repro.relation import Relation


@dataclass
class ResumeState:
    """Everything a resumed run needs from the durability directory."""

    #: The journal, torn tail already truncated, reopened for appending.
    journal: RegionJournal
    #: Newest intact snapshot at or before the journal tail (``None``
    #: when the run died before its first checkpoint — journal-only
    #: resume replays from the start).
    snapshot: "dict[str, Any] | None"
    #: Journal records past the snapshot, awaiting verified replay.
    expected: "list[dict[str, Any]]" = field(default_factory=list)
    fingerprint: str = ""


def load_resume_state(config: "CAQEConfig", fingerprint: str) -> ResumeState:
    """Open the journal directory and pick the recovery point."""
    if not config.enable_journal or not config.journal_dir:
        raise DurabilityError(
            "resume requires enable_journal=True and a journal_dir"
        )
    journal, records = RegionJournal.open_resume(config.journal_dir, fingerprint)
    for position, record in enumerate(records, start=1):
        if int(record.get("seq", -1)) != position:
            journal.close()
            raise DurabilityError(
                f"journal at {journal.path} is not contiguous: record "
                f"{position} carries seq {record.get('seq')!r}"
            )
    max_seq = int(records[-1]["seq"]) if records else None
    try:
        snapshot = latest_snapshot(
            config.journal_dir, fingerprint, max_seq=max_seq
        )
    except DurabilityError:
        journal.close()
        raise
    start = int(snapshot["seq"]) if snapshot is not None else 0
    expected = [r for r in records if int(r["seq"]) > start]
    return ResumeState(
        journal=journal,
        snapshot=snapshot,
        expected=expected,
        fingerprint=fingerprint,
    )


def resume_run(
    left: "Relation",
    right: "Relation",
    workload: "Workload",
    contracts: "dict[str, Contract]",
    config: "CAQEConfig",
) -> "RunResult":
    """Resume a killed finite :class:`~repro.core.caqe.CAQE` run.

    Must be called with the *same* config, workload, and input relations
    as the killed run — the journal fingerprint enforces this.
    """
    from repro.core.caqe import CAQE

    fingerprint = run_fingerprint(config, left, right, workload)
    state = load_resume_state(config, fingerprint)
    return CAQE(config).run(left, right, workload, contracts, _resume=state)


def resume_continuous(
    workload: "Workload",
    contracts: "dict[str, Contract]",
    config: "CAQEConfig",
):
    """Resume a killed :class:`~repro.core.continuous.ContinuousCAQE`.

    Returns ``(engine, epoch_result)``: the epoch the crash interrupted is
    finished here (``epoch_result`` is its changelog, ``None`` when the
    crash fell between epochs); feed the engine the remaining deltas to
    continue.
    """
    from repro.core.continuous import ContinuousCAQE

    return ContinuousCAQE.resume(workload, contracts, config)


__all__ = [
    "ResumeState",
    "load_resume_state",
    "resume_continuous",
    "resume_run",
]
