"""Deterministic multi-core region execution (docs/ARCHITECTURE.md §11).

The parallel layer splits Algorithm 1 into a *prepare* phase that is pure
in the base tables (hash join of a region's cell pair, mapping-function
projection) and a *commit* phase that touches shared state (skyline
windows, progressive reporting, the feedback loop).  Prepare work is
farmed out to a pool of worker processes over shared-memory views of the
relation columns; commits are applied by the driver **in the exact serial
benefit order**, so every observable — region trace, charged comparisons,
virtual clock, reported tuples, satisfaction — is bit-identical to the
serial engine (``workers=0``).

All process construction in ``src/repro`` lives in this package
(caqe-check rule CQ008); the rest of the engine only ever talks to
:class:`RegionPool`.
"""

from repro.query.joinkernel import cell_join, vectorized_equi_join
from repro.parallel.pool import PoolClient, PoolHealth, RegionPool
from repro.parallel.shm import SharedRelationStore, attach_relation
from repro.parallel.worker import (
    PackedRegion,
    PrepareTask,
    PreparedRegion,
    pack_prepared,
    packed_crc_ok,
    prepare_payload,
    unpack_prepared,
)

__all__ = [
    "PackedRegion",
    "PoolClient",
    "PoolHealth",
    "PrepareTask",
    "PreparedRegion",
    "RegionPool",
    "SharedRelationStore",
    "attach_relation",
    "cell_join",
    "pack_prepared",
    "packed_crc_ok",
    "prepare_payload",
    "unpack_prepared",
    "vectorized_equi_join",
]
