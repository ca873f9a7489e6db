"""Crash-safe durability: write-ahead region journal + snapshots.

Layered on the engine's deterministic virtual time (no wall clocks in
``src/repro``, enforced by caqe-check rule CQ007), a CAQE run becomes a
pure function of its inputs — so durability only needs to persist *how
far* the run got, not what it computed:

* :mod:`repro.durability.journal` — an append-only, fsync'd, CRC32
  checksummed record per completed region (the write-ahead log);
* :mod:`repro.durability.checkpoint` — periodic full snapshots of the
  mutable driver state (skyline windows, dependency-graph frontier,
  stats/clock, feedback weights, reporting state);
* :mod:`repro.durability.recover` — resume entry points that replay
  snapshot + journal to a **bit-identical** continuation of the killed
  run (same ``region_trace``, comparison counts, reported results);
* :mod:`repro.durability.runtime` — the driver-side coordinator gluing
  the three together (verify-then-append journal cursor, checkpoint
  cadence).

See docs/ARCHITECTURE.md §10 for the formats and the recovery protocol,
and ``tools/replay_audit.py`` for the SIGKILL/resume audit that checks
the guarantee end to end in child interpreters.
"""

from repro.durability.checkpoint import (
    latest_snapshot,
    list_snapshots,
    snapshot_path,
    write_snapshot,
)
from repro.durability.journal import RegionJournal, run_fingerprint
from repro.durability.recover import (
    ResumeState,
    load_resume_state,
    resume_continuous,
    resume_run,
)
from repro.durability.runtime import RunDurability

__all__ = [
    "RegionJournal",
    "ResumeState",
    "RunDurability",
    "latest_snapshot",
    "list_snapshots",
    "load_resume_state",
    "resume_continuous",
    "resume_run",
    "run_fingerprint",
    "snapshot_path",
    "write_snapshot",
]
