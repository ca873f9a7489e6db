"""The write-ahead region journal (docs/ARCHITECTURE.md §10.1).

One journal file per run, line-oriented and append-only::

    <crc32:8 hex> <payload JSON>\\n

The first record is a header carrying the format magic and the run
*fingerprint* (a SHA-256 over the configuration, the workload shape and
the exact input bytes); every later record describes one **completed**
region — its id, static RQL, the cumulative skyline-comparison count,
the virtual-clock reading, per-query reported-result counts, and the
fault-plan decision cursor.  Records are flushed and ``os.fsync``'d
before the driver continues, so after a SIGKILL the journal prefix up to
the last fsync is intact and at most the final line is torn.

Torn tails are handled on open: the file is truncated back to the last
line whose CRC verifies.  JSON is used (not pickle) because CPython's
``repr``-based float formatting round-trips ``float`` exactly — the
virtual-clock readings recorded here are compared *bit-identically*
against the resumed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import TYPE_CHECKING, Any

from repro.errors import DurabilityError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.relation import Relation

#: Format magic checked on resume.
JOURNAL_MAGIC = "caqe-journal-v1"
#: File name of the journal inside ``CAQEConfig.journal_dir``.
JOURNAL_FILENAME = "journal.caqe"


def _crc_hex(payload: bytes) -> str:
    return format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")


def _encode(payload: "dict[str, Any]") -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{_crc_hex(body.encode('utf-8'))} {body}\n".encode("utf-8")


def _decode_line(line: bytes) -> "dict[str, Any] | None":
    """Parse one journal line; ``None`` marks a torn/corrupt line."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n") or len(text) < 10 or text[8] != " ":
        return None
    crc, body = text[:8], text[9:-1]
    if _crc_hex(body.encode("utf-8")) != crc:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


# --------------------------------------------------------------------- #
# Run fingerprinting
# --------------------------------------------------------------------- #
#: Config fields with no effect on run observables (durability and
#: serving knobs).  They are pinned to defaults before fingerprinting so
#: a journal can be moved to a new directory or resumed under a
#: different checkpoint cadence without a spurious identity mismatch.
_NEUTRAL_FIELDS = {
    "enable_journal": False,
    "journal_dir": None,
    "checkpoint_every_regions": 25,
    "server_queue_limit": 16,
    "server_breaker_threshold": 3,
    "server_breaker_cooldown": 8,
}


def _config_identity(config: object) -> str:
    from dataclasses import is_dataclass, replace

    if is_dataclass(config):
        config = replace(config, **_NEUTRAL_FIELDS)  # type: ignore[type-var]
    return repr(config)


def relation_digest(relation: "Relation") -> str:
    """SHA-256 over a relation's name, schema, and exact column bytes."""
    digest = hashlib.sha256()
    digest.update(relation.name.encode("utf-8"))
    for attr in relation.schema.attributes:
        digest.update(f"|{attr.name}:{attr.role.value}".encode("utf-8"))
    for name in relation.schema.names:
        column = relation.column(name)
        digest.update(str(column.dtype).encode("utf-8"))
        digest.update(column.tobytes())
    return digest.hexdigest()


def run_fingerprint(config: object, left: "Relation", right: "Relation", workload: object) -> str:
    """Identity of one (config, workload, inputs) triple.

    A journal written under one fingerprint refuses to resume under any
    other — deterministic replay is only sound against identical inputs.
    ``repr`` is used for the config and queries because both define
    stable, address-free representations (dataclasses of scalars; the
    query repr lists function *names*, never function objects).
    """
    digest = hashlib.sha256()
    digest.update(_config_identity(config).encode("utf-8"))
    for query in workload:  # type: ignore[attr-defined]
        digest.update(f"|{query.name}={query!r}".encode("utf-8"))
    digest.update(relation_digest(left).encode("utf-8"))
    digest.update(relation_digest(right).encode("utf-8"))
    return digest.hexdigest()


def continuous_fingerprint(config: object, workload: object) -> str:
    """Identity of one continuous (streaming) run.

    Deltas arrive over time, so input bytes cannot be part of the
    identity — the snapshots themselves persist the merged tables.
    """
    digest = hashlib.sha256()
    digest.update(b"continuous")
    digest.update(_config_identity(config).encode("utf-8"))
    for query in workload:  # type: ignore[attr-defined]
        digest.update(f"|{query.name}={query!r}".encode("utf-8"))
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# The journal proper
# --------------------------------------------------------------------- #
class RegionJournal:
    """Append-only fsync'd record log for one run.

    Use :meth:`create` for a fresh run and :meth:`open_resume` to
    recover — the constructor is internal.
    """

    def __init__(self, path: str, handle: "Any") -> None:
        self.path = path
        self._handle = handle

    # -- lifecycle ------------------------------------------------------ #
    @classmethod
    def create(cls, directory: str, fingerprint: str) -> "RegionJournal":
        """Start a fresh journal; refuses to clobber an existing one."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, JOURNAL_FILENAME)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            raise DurabilityError(
                f"journal already exists at {path}; resume it via "
                "repro.durability.resume_run or point journal_dir at a "
                "fresh directory"
            )
        handle = open(path, "wb")
        journal = cls(path, handle)
        journal.append({"type": "header", "magic": JOURNAL_MAGIC, "fingerprint": fingerprint})
        return journal

    @classmethod
    def open_resume(
        cls, directory: str, fingerprint: str
    ) -> "tuple[RegionJournal, list[dict]]":
        """Open an existing journal for resume.

        Truncates a torn tail (any suffix of lines failing CRC/parse),
        verifies the header against ``fingerprint``, and returns the
        journal positioned for appending plus the surviving region
        records in order.
        """
        path = os.path.join(directory, JOURNAL_FILENAME)
        if not os.path.exists(path):
            raise DurabilityError(f"no journal to resume at {path}")
        with open(path, "rb") as handle:
            raw = handle.read()
        records: "list[dict]" = []
        valid_bytes = 0
        for line in raw.splitlines(keepends=True):
            payload = _decode_line(line)
            if payload is None:
                break  # torn tail: discard this line and everything after
            records.append(payload)
            valid_bytes += len(line)
        if not records:
            raise DurabilityError(f"journal at {path} has no intact header record")
        header, region_records = records[0], records[1:]
        if header.get("type") != "header" or header.get("magic") != JOURNAL_MAGIC:
            raise DurabilityError(f"journal at {path} is not a {JOURNAL_MAGIC} file")
        if header.get("fingerprint") != fingerprint:
            raise DurabilityError(
                "journal fingerprint mismatch: the journal was written for "
                "a different configuration, workload, or input data"
            )
        if valid_bytes < len(raw):
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        handle = open(path, "ab")
        return cls(path, handle), region_records

    # -- record I/O ----------------------------------------------------- #
    def append(self, payload: "dict[str, Any]") -> None:
        """Write one record and force it to stable storage (fsync)."""
        self._handle.write(_encode(payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RegionJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "JOURNAL_FILENAME",
    "JOURNAL_MAGIC",
    "RegionJournal",
    "continuous_fingerprint",
    "relation_digest",
    "run_fingerprint",
]
