"""Worker-side region preparation (the pure half of tuple processing).

A prepare task is a function of immutable inputs only — the base
relations, a join condition, and the two cells' row indices — so it can
run on any process at any time without affecting a single observable:
the driver charges all modelled costs itself at the deterministic commit
point, and `region.active_rql` (which shrinks as discards land) is
applied there too, never in the worker.

Tasks carry their join condition (a tiny frozen dataclass) and, when the
workload's mapping functions survive pickling, the function tuple — so
one long-lived pool can serve many different workloads (the serving
layer shares a single pool across submissions).  The built-in function
factories close over lambdas and therefore do *not* pickle; for them the
task ships ``functions=None`` and the driver projects at commit, exactly
like the serial path.

The same :func:`prepare_payload` powers the driver's inline fallback
(work stealing when a payload is not ready), so parallel and serial
prepare share one code path.

Supervision protocol (docs/ARCHITECTURE.md §14): before touching a
task, the worker announces a **claim** — ``(worker_id, client,
region_id)`` — on a synchronous claim channel, and every result message
leads with the worker id, so the pool always knows which in-flight task
each process owns.  Payloads carry a CRC32 over their packed bytes (the
durability journal's checksum idiom); the pool verifies on receipt and
falls back to inline prepare on mismatch.  Chaos kill triggers
(``kill_after`` / ``poison_regions``) fire at *claim time* with a raw
``SIGKILL`` — after the claim's pipe write, before any result ``put`` —
so a scheduled death never tears a pickle mid-flight and the supervisor
can requeue deterministically.
"""

from __future__ import annotations

import os
import queue
import signal
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.query.joinkernel import cell_join
from repro.parallel.shm import RelationHandle, attach_relation
from repro.query.evaluate import apply_functions
from repro.query.mapping import MappingFunction
from repro.query.predicates import JoinCondition
from repro.relation import Relation


@dataclass(frozen=True)
class PrepareTask:
    """One region's prepare request, shipped to a worker.

    ``client`` namespaces region ids: a shared pool serves several
    concurrent runs, each with its own region-id space.
    """

    client: int
    region_id: int
    condition: JoinCondition
    left_cell_id: int
    right_cell_id: int
    left_indices: np.ndarray
    right_indices: np.ndarray
    functions: "tuple[MappingFunction, ...] | None"


@dataclass(frozen=True)
class PreparedRegion:
    """A region's raw tuple-level products, before any commit decision.

    ``matrix`` holds the mapping-function outputs for *all* join pairs
    (row-aligned with ``left_idx``/``right_idx``); it is ``None`` when the
    preparer had no shippable functions and the driver computes the
    projection at commit instead.  Worker-side evaluation assumes the
    functions are row-independent (Section 2.2: one output per join
    tuple) so filtering rows after evaluation equals evaluating after
    filtering.
    """

    region_id: int
    left_idx: np.ndarray
    right_idx: np.ndarray
    matrix: "np.ndarray | None"


@dataclass(frozen=True)
class PackedRegion:
    """A :class:`PreparedRegion` flattened into one contiguous buffer.

    The wire format for the result queue: ``payload`` is the raw bytes of
    ``left_idx`` (int64), ``right_idx`` (int64) and, when ``width >= 0``,
    the row-major float64 ``matrix`` — back to back.  Packing turns the
    three per-array pickle buffers into a single block, and unpacking is
    three zero-copy ``frombuffer`` views, so a region payload crosses the
    process boundary with exactly one copy each way.

    ``crc`` is a CRC32 over ``payload`` computed sender-side; the pool
    recomputes it on receipt (:func:`packed_crc_ok`) and treats any
    mismatch as a lost task — the driver prepares inline instead of
    committing bytes a dying process may have mangled.
    """

    region_id: int
    rows: int
    #: Matrix column count, or -1 when the preparer shipped no matrix.
    width: int
    #: ``bytearray`` sender-side (written in place through typed views);
    #: both it and ``bytes`` pickle across the queue identically.
    payload: "bytes | bytearray"
    crc: int


def pack_prepared(prepared: PreparedRegion) -> PackedRegion:
    """Flatten a prepared region into the contiguous wire format.

    The payload buffer is allocated once and each column is written
    through a typed view over it, so every array crosses into the wire
    format with exactly one copy (``tobytes`` plus ``join`` would pay
    two).
    """
    left = np.ascontiguousarray(prepared.left_idx, dtype=np.int64)
    right = np.ascontiguousarray(prepared.right_idx, dtype=np.int64)
    parts = [left, right]
    width = -1
    if prepared.matrix is not None:
        matrix = np.ascontiguousarray(prepared.matrix, dtype=np.float64)
        width = int(matrix.shape[1])
        parts.append(matrix)
    payload = bytearray(sum(a.nbytes for a in parts))
    offset = 0
    for a in parts:
        np.frombuffer(payload, dtype=a.dtype, count=a.size, offset=offset)[
            :
        ] = a.reshape(-1)
        offset += a.nbytes
    return PackedRegion(
        region_id=prepared.region_id,
        rows=len(left),
        width=width,
        payload=payload,
        crc=zlib.crc32(payload) & 0xFFFFFFFF,
    )


def packed_crc_ok(packed: PackedRegion) -> bool:
    """Does the payload still hash to the checksum stamped at pack time?"""
    return (zlib.crc32(packed.payload) & 0xFFFFFFFF) == packed.crc


def unpack_prepared(packed: PackedRegion) -> PreparedRegion:
    """Rebuild the prepared region as views over the packed buffer.

    The views alias the shared buffer (read-only when the payload is
    ``bytes``); every consumer gathers rows through fancy indexing,
    which copies, so downstream code never mutates them in place.
    """
    n = packed.rows
    buf = packed.payload
    left_idx = np.frombuffer(buf, dtype=np.int64, count=n)
    right_idx = np.frombuffer(buf, dtype=np.int64, count=n, offset=8 * n)
    matrix = None
    if packed.width >= 0:
        matrix = np.frombuffer(
            buf, dtype=np.float64, count=n * packed.width, offset=16 * n
        ).reshape(n, packed.width)
    return PreparedRegion(packed.region_id, left_idx, right_idx, matrix)


@dataclass(frozen=True)
class WorkerInit:
    """Immutable worker start-up state (shipped once per process)."""

    left: "RelationHandle | Relation"
    right: "RelationHandle | Relation"


def prepare_payload(
    task: PrepareTask,
    left: Relation,
    right: Relation,
    build_values: "Callable[[], np.ndarray] | None" = None,
) -> PreparedRegion:
    """Join one cell pair and project its tuples; pure in the inputs."""
    condition = task.condition
    left_values = (
        build_values()
        if build_values is not None
        else condition.left_values(left)[task.left_indices]
    )
    right_values = condition.right_values(right)[task.right_indices]
    left_idx, right_idx = cell_join(
        left_values, right_values, task.left_indices, task.right_indices
    )
    matrix = None
    if task.functions is not None and len(left_idx):
        matrix = apply_functions(task.functions, left, right, left_idx, right_idx)
    return PreparedRegion(task.region_id, left_idx, right_idx, matrix)


class _WorkerState:
    """Per-process caches: attached relations + per-cell key columns."""

    def __init__(self, init: WorkerInit) -> None:
        self._segments = []
        self.left = self._resolve(init.left)
        self.right = self._resolve(init.right)
        # Left-cell key columns memoised per (condition, cell): a build
        # side shared by many regions is gathered once per worker.
        self._left_keys: "dict[tuple[JoinCondition, int], np.ndarray]" = {}

    def _resolve(self, ref: "RelationHandle | Relation") -> Relation:
        if isinstance(ref, Relation):
            return ref
        relation, segments = attach_relation(ref)
        self._segments.extend(segments)
        return relation

    def prepare(self, task: PrepareTask) -> PreparedRegion:
        cache_key = (task.condition, task.left_cell_id)
        left_values = self._left_keys.get(cache_key)
        if left_values is None:
            left_values = task.condition.left_values(self.left)[task.left_indices]
            self._left_keys[cache_key] = left_values
        return prepare_payload(
            task, self.left, self.right, build_values=lambda: left_values
        )


#: Seconds between orphan checks while idle.  A queue timeout parameter,
#: not a wall-clock read — the worker never observes the time itself.
_ORPHAN_POLL = 2.0


def _kill_self() -> None:
    """Die the way a crashed worker dies: SIGKILL, no cleanup, no goodbye.

    The chaos layer's kill triggers route through this single audited
    point.  ``SIGKILL`` (not ``sys.exit``) is deliberate — atexit hooks,
    queue feeder flushes and multiprocessing finalisers all get skipped,
    which is exactly the failure mode (OOM kill, segfault) the pool's
    supervisor must survive.
    """
    os.kill(os.getpid(), signal.SIGKILL)


def worker_main(
    init: WorkerInit,
    tasks: "object",
    results: "object",
    claims: "object | None" = None,
    worker_id: int = 0,
    kill_after: "int | None" = None,
    poison_regions: "tuple[int, ...]" = (),
) -> None:
    """Worker process entry point: drain tasks until the ``None`` sentinel.

    Each task is claimed on ``claims`` — a ``SimpleQueue``, whose ``put``
    is a synchronous pipe write — *before* any work happens, so the pool
    can attribute every in-flight task to a live process id even if that
    process dies an instant later.  Any error is shipped back as
    ``(worker_id, client, region_id, repr(exc))`` and the driver falls
    back to inline preparation — a worker bug can cost wall-clock time
    but never correctness.

    ``kill_after`` / ``poison_regions`` are chaos triggers (set only by a
    :class:`~repro.robustness.faults.WorkerKillPlan`): the worker
    SIGKILLs itself when claiming its ``kill_after``-th task, or when
    claiming any listed poison region.  Both fire after the claim write
    and before any result ``put``, so the supervisor's books are always
    consistent with what was lost.

    A driver that dies without sending sentinels (SIGKILL — the
    kill-resume audit does exactly this) must not leave orphan workers
    blocked on the task queue forever: while idle, the worker
    periodically checks whether it has been reparented and exits when
    its original parent is gone.
    """
    state = _WorkerState(init)
    parent = os.getppid()
    claimed = 0
    while True:
        try:
            task = tasks.get(timeout=_ORPHAN_POLL)
        except queue.Empty:
            if os.getppid() != parent:
                break
            continue
        if task is None:
            break
        claimed += 1
        if claims is not None:
            claims.put((worker_id, task.client, task.region_id))
        if (kill_after is not None and claimed >= kill_after) or (
            task.region_id in poison_regions
        ):
            _kill_self()
        try:
            payload = state.prepare(task)
        except Exception as exc:  # caqe-check: disable=CQ006 — process boundary
            results.put((worker_id, task.client, task.region_id, repr(exc)))
            continue
        results.put(
            (worker_id, task.client, task.region_id, pack_prepared(payload))
        )


__all__ = [
    "PackedRegion",
    "PrepareTask",
    "PreparedRegion",
    "WorkerInit",
    "pack_prepared",
    "packed_crc_ok",
    "prepare_payload",
    "unpack_prepared",
    "worker_main",
]
