"""The self-healing pool's supervision layer (docs/ARCHITECTURE.md §14).

Process-level tests use real ``SIGKILL``s through deterministic
:class:`~repro.robustness.faults.WorkerKillPlan` triggers — no mocks:
the pool under test loses actual worker processes and must requeue,
respawn, poison or degrade exactly as the contract says, without moving
a single engine observable (the kill-worker audit proves the same at
full scale; these tests pin the unit-level mechanics).
"""

import gc
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.errors import ExecutionError
from repro.parallel import PoolHealth, RegionPool, pack_prepared, packed_crc_ok
from repro.parallel.pool import _picklable
from repro.parallel.worker import PackedRegion, PreparedRegion
from repro.query import JoinCondition, Preference, SkylineJoinQuery, add
from repro.query.workload import Workload
from repro.robustness.faults import WorkerKillPlan


def small_pair(seed=23, n=80):
    return generate_pair("independent", n, 4, selectivity=0.1, seed=seed)


def small_workload():
    jc = JoinCondition.on("jc1", name="JC1")
    fns = (add("m1", "m1", "d1"), add("m2", "m2", "d2"))
    return Workload(
        [SkylineJoinQuery("Q1", jc, fns, Preference.over("d1", "d2"))]
    )


def run_engine(pair, workload, contracts, **config_kwargs):
    return CAQE(CAQEConfig(**config_kwargs)).run(
        pair.left, pair.right, workload, contracts
    )


@pytest.fixture(scope="module")
def scenario():
    pair = small_pair()
    workload = small_workload()
    contracts = {q.name: c2(scale=60.0) for q in workload}
    serial = run_engine(pair, workload, contracts, workers=0)
    return pair, workload, contracts, serial


def observables(result):
    return (
        tuple(result.stats.region_trace),
        result.stats.skyline_comparisons,
        result.stats.elapsed,
        result.reported,
        tuple(sorted(result.stats.summary().items())),
    )


# -- crash -> requeue -> respawn ----------------------------------------- #
class TestWorkerCrash:
    def test_killed_worker_is_respawned_and_task_requeued(self, scenario):
        pair, workload, contracts, serial = scenario
        result = run_engine(
            pair,
            workload,
            contracts,
            workers=2,
            pool_kill_plan=WorkerKillPlan(kills=((0, 1),)),
        )
        assert observables(result) == observables(serial)
        health = result.stats.pool_health
        assert health["restarts"] >= 1
        assert health["requeues"] >= 1
        assert health["workers_alive"] >= 1
        assert health["degraded"] is False
        # Respawn backoff accrues on the pool-local diagnostic channel,
        # never on the run's clock (that would break bit-identity).
        assert health["restart_backoff"] > 0.0

    def test_no_fault_plan_means_zero_supervision_counters(self, scenario):
        pair, workload, contracts, serial = scenario
        result = run_engine(pair, workload, contracts, workers=2)
        assert observables(result) == observables(serial)
        health = result.stats.pool_health
        assert health["restarts"] == 0
        assert health["requeues"] == 0
        assert health["poison_regions"] == 0
        assert health["corrupt_payloads"] == 0
        assert "pool" not in result.quarantine

    def test_total_worker_loss_degrades_to_serial(self, scenario):
        pair, workload, contracts, serial = scenario
        result = run_engine(
            pair,
            workload,
            contracts,
            workers=2,
            pool_restart_budget=1,
            pool_kill_plan=WorkerKillPlan(kill_all_after=1),
        )
        assert observables(result) == observables(serial)
        health = result.stats.pool_health
        assert health["degraded"] is True
        assert health["workers_alive"] == 0
        assert health["restarts"] == 1

    def test_zero_restart_budget_is_allowed(self, scenario):
        pair, workload, contracts, serial = scenario
        result = run_engine(
            pair,
            workload,
            contracts,
            workers=2,
            pool_restart_budget=0,
            pool_kill_plan=WorkerKillPlan(kill_all_after=1),
        )
        assert observables(result) == observables(serial)
        assert result.stats.pool_health["restarts"] == 0


# -- poison-region quarantine -------------------------------------------- #
class TestPoisonRegion:
    def test_worker_killer_region_is_quarantined(self, scenario):
        pair, workload, contracts, serial = scenario
        target = serial.stats.region_trace[0]
        result = run_engine(
            pair,
            workload,
            contracts,
            workers=2,
            pool_restart_budget=6,
            pool_kill_plan=WorkerKillPlan(poison_regions=(target,)),
        )
        assert observables(result) == observables(serial)
        health = result.stats.pool_health
        assert health["poison_regions"] == 1
        report = result.quarantine["pool"]
        assert report.relation == "region-pool"
        assert [t.row for t in report.quarantined] == [target]
        assert report.quarantined[0].reason == "poison"


# -- corrupt payloads ------------------------------------------------------ #
class TestPayloadChecksum:
    def test_crc_roundtrip(self):
        prepared = PreparedRegion(
            region_id=7,
            left_idx=np.arange(5, dtype=np.int64),
            right_idx=np.arange(5, 10, dtype=np.int64),
            matrix=np.ones((5, 2)),
        )
        packed = pack_prepared(prepared)
        assert packed_crc_ok(packed)

    def test_corrupt_payload_fails_verification(self):
        prepared = PreparedRegion(
            region_id=7,
            left_idx=np.arange(5, dtype=np.int64),
            right_idx=np.arange(5, 10, dtype=np.int64),
            matrix=None,
        )
        packed = pack_prepared(prepared)
        mangled = PackedRegion(
            region_id=packed.region_id,
            rows=packed.rows,
            width=packed.width,
            payload=packed.payload[:-1] + bytes([packed.payload[-1] ^ 0xFF]),
            crc=packed.crc,
        )
        assert not packed_crc_ok(mangled)

    def test_pool_drops_corrupt_payload_and_driver_prepares_inline(self):
        pair = small_pair(seed=5, n=40)
        pool = RegionPool(pair.left, pair.right, workers=1)
        try:
            # Forge a result whose bytes do not match the stamped CRC, as
            # a worker dying mid-serialisation would leave them.
            mangled = PackedRegion(
                region_id=3, rows=1, width=-1,
                payload=b"\x00" * 16, crc=0xDEADBEEF,
            )
            client = pool.client()
            pool._pending.add((client._client_id, 3))
            pool._results.put((0, client._client_id, 3, mangled))
            deadline = time.time() + 5.0
            while time.time() < deadline:
                pool._drain()
                if pool.health().corrupt_payloads:
                    break
                time.sleep(0.01)
            health = pool.health()
            assert health.corrupt_payloads == 1
            # The task is no longer pending: fetch resolves immediately
            # to None and the driver prepares inline.
            assert client.fetch(3) is None
        finally:
            pool.close()


# -- worker error surfacing ------------------------------------------------ #
class TestWorkerErrors:
    def test_error_reprs_are_counted_and_sampled(self):
        pair = small_pair(seed=5, n=40)
        pool = RegionPool(pair.left, pair.right, workers=1)
        try:
            client = pool.client()
            key = (client._client_id, 9)
            pool._pending.add(key)
            pool._results.put(
                (0, key[0], 9, "ValueError('worker exploded')")
            )
            deadline = time.time() + 5.0
            while time.time() < deadline:
                pool._drain()
                if pool.health().worker_errors:
                    break
                time.sleep(0.01)
            health = pool.health()
            assert health.worker_errors == 1
            assert health.error_samples == (
                (key[0], 9, "ValueError('worker exploded')"),
            )
            # Only the first repr per region is retained.
            pool._pending.add(key)
            pool._results.put((0, key[0], 9, "ValueError('again')"))
            deadline = time.time() + 5.0
            while time.time() < deadline:
                pool._drain()
                if pool.health().worker_errors == 2:
                    break
                time.sleep(0.01)
            health = pool.health()
            assert health.worker_errors == 2
            assert health.error_samples[0][2] == "ValueError('worker exploded')"
        finally:
            pool.close()


# -- shared-memory lifecycle ----------------------------------------------- #
class TestSharedMemoryLifecycle:
    def test_close_releases_segments_after_worker_sigkill(self):
        from multiprocessing import shared_memory

        pair = small_pair(seed=9, n=40)
        pool = RegionPool(pair.left, pair.right, workers=2)
        try:
            names = pool._store.segment_names()
            assert names, "shared-memory pool must create segments"
            # SIGKILL one worker mid-life, the hard way.
            victim = pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
        finally:
            pool.close()
        assert pool._store is None
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segment_names_empty_after_close(self):
        pair = small_pair(seed=9, n=40)
        pool = RegionPool(pair.left, pair.right, workers=1)
        store = pool._store
        pool.close()
        assert store.segment_names() == []


# -- satellite regressions ------------------------------------------------- #
class TestSetWorkloadMemo:
    def test_new_workload_recomputed_even_if_id_is_recycled(self):
        pair = small_pair(seed=3, n=40)
        pool = RegionPool(pair.left, pair.right, workers=1)
        try:
            client = pool.client()
            workload = small_workload()
            client.set_workload(workload)
            stale_id = id(workload)
            first_functions = client._functions
            # Drop the workload and try to land a different one on the
            # recycled address — the historic id()-keyed memo would then
            # silently keep the stale function tuple.
            del workload
            gc.collect()
            jc = JoinCondition.on("jc1", name="JC1")
            fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))
            replacement = None
            for _ in range(64):
                candidate = Workload(
                    [
                        SkylineJoinQuery(
                            "Q1", jc, fns, Preference.over("d1", "d2", "d3")
                        )
                    ]
                )
                if id(candidate) == stale_id:
                    replacement = candidate
                    break
                del candidate
            if replacement is None:
                replacement = Workload(
                    [
                        SkylineJoinQuery(
                            "Q1", jc, fns, Preference.over("d1", "d2", "d3")
                        )
                    ]
                )
            client.set_workload(replacement)
            # The memo must recognise a *different* workload object and
            # re-derive its function tuple (3 output dims, not 2).
            assert client._workload is replacement
            if client._functions is not None:
                assert len(client._functions) == 3
            assert client._functions is not first_functions or (
                first_functions is None and client._functions is None
            )
        finally:
            pool.close()

    def test_same_workload_object_is_memoised(self):
        pair = small_pair(seed=3, n=40)
        pool = RegionPool(pair.left, pair.right, workers=1)
        try:
            client = pool.client()
            workload = small_workload()
            client.set_workload(workload)
            first = client._functions
            client.set_workload(workload)
            assert client._functions is first
        finally:
            pool.close()


class TestPicklableHardening:
    def test_recursion_error_degrades_to_driver_projection(self):
        class Bomb:
            def __reduce__(self):
                raise RecursionError("self-referential mapping")

        assert _picklable(Bomb()) is False

    def test_value_error_degrades_to_driver_projection(self):
        class Bomb:
            def __reduce__(self):
                raise ValueError("unpicklable by fiat")

        assert _picklable(Bomb()) is False

    def test_plain_values_still_pickle(self):
        assert _picklable(("a", 1, 2.0)) is True


# -- config and plan validation -------------------------------------------- #
class TestConfigValidation:
    def test_negative_restart_budget_rejected(self):
        with pytest.raises(ExecutionError):
            CAQEConfig(pool_restart_budget=-1)

    def test_zero_poison_threshold_rejected(self):
        with pytest.raises(ExecutionError):
            CAQEConfig(pool_poison_threshold=0)

    def test_kill_plan_validation(self):
        with pytest.raises(ExecutionError):
            WorkerKillPlan(kills=((0, 0),))
        with pytest.raises(ExecutionError):
            WorkerKillPlan(kill_all_after=0)

    def test_seeded_plan_is_deterministic_and_kills_worker_zero(self):
        plan_a = WorkerKillPlan.seeded(17, 4)
        plan_b = WorkerKillPlan.seeded(17, 4)
        assert plan_a == plan_b
        assert plan_a.kill_after_for(0) == 1
        assert plan_a.active

    def test_inactive_plan(self):
        assert not WorkerKillPlan().active


class TestPoolHealthSnapshot:
    def test_health_is_a_plain_dict_roundtrip(self):
        pair = small_pair(seed=7, n=40)
        with RegionPool(pair.left, pair.right, workers=1) as pool:
            health = pool.health()
            assert isinstance(health, PoolHealth)
            as_dict = health.as_dict()
            assert as_dict["workers_alive"] == 1
            assert as_dict["degraded"] is False
            # The snapshot must survive a pickle (served over APIs).
            assert pickle.loads(pickle.dumps(health)) == health


# -- a failed open releases what it took --------------------------------- #
def _region_workers():
    import multiprocessing

    return [
        proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("caqe-region-worker")
    ]


class TestOpenRunFailure:
    """``open_run`` builds the pool before the journal; a journal that
    cannot be created must not strand the pool's worker processes."""

    @staticmethod
    def _used_journal_dir(tmp_path, scenario):
        pair, workload, contracts, _ = scenario
        run_engine(
            pair, workload, contracts,
            workers=0, enable_journal=True, journal_dir=str(tmp_path),
        )
        return str(tmp_path)

    def test_private_pool_is_closed_when_journal_creation_fails(
        self, scenario, tmp_path
    ):
        from repro.errors import DurabilityError

        pair, workload, contracts, _ = scenario
        used = self._used_journal_dir(tmp_path, scenario)
        before = {proc.pid for proc in _region_workers()}
        engine = CAQE(
            CAQEConfig(workers=2, enable_journal=True, journal_dir=used)
        )
        with pytest.raises(DurabilityError):
            engine.open_run(pair.left, pair.right, workload, contracts)
        assert {proc.pid for proc in _region_workers()} == before

    def test_external_pool_survives_with_empty_books(self, scenario, tmp_path):
        from repro.errors import DurabilityError

        pair, workload, contracts, serial = scenario
        used = self._used_journal_dir(tmp_path / "used", scenario)
        with RegionPool(pair.left, pair.right, workers=2) as pool:
            engine = CAQE(
                CAQEConfig(workers=2, enable_journal=True, journal_dir=used)
            )
            with pytest.raises(DurabilityError):
                engine.open_run(
                    pair.left, pair.right, workload, contracts, pool=pool
                )
            # The pool is its owner's: still open, workers alive, and the
            # failed run's client left nothing behind in its books.
            assert len(_region_workers()) >= 2
            assert not pool._pending and not pool._ready
            assert not pool._task_specs and not pool._forgotten
            assert pool.health().dispatched == 0
            # ... and it serves the next run as if nothing had happened.
            fresh = CAQE(
                CAQEConfig(
                    workers=2,
                    enable_journal=True,
                    journal_dir=str(tmp_path / "fresh"),
                )
            ).run(pair.left, pair.right, workload, contracts, pool=pool)
            assert observables(fresh) == observables(serial)
