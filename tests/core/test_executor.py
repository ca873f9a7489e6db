"""Tests for tuple-level region processing (Section 6)."""

import numpy as np
import pytest

from repro.core.coarse_join import coarse_join
from repro.core.executor import (
    JoinResultStore,
    RegionExecutor,
    ResultIdentity,
    join_cell_pair,
)
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError
from repro.partition import quadtree_partition
from repro.plan import WorkloadPlan, build_minmax_cuboid
from repro.query import hash_join


@pytest.fixture
def setup(eleven_query_workload, small_pair):
    wl = eleven_query_workload
    conditions = wl.join_conditions
    lp = quadtree_partition(
        small_pair.left, ("m1", "m2", "m3", "m4"), conditions, "left", capacity=60
    )
    rp = quadtree_partition(
        small_pair.right, ("m1", "m2", "m3", "m4"), conditions, "right", capacity=60
    )
    stats = ExecutionStats()
    cj = coarse_join(wl, lp, rp, stats)
    plan = WorkloadPlan(build_minmax_cuboid(wl), counter=stats.comparison_counter)
    executor = RegionExecutor(
        wl, small_pair.left, small_pair.right, plan, JoinResultStore(), stats
    )
    cells_l = {c.cell_id: c for c in lp.leaves}
    cells_r = {c.cell_id: c for c in rp.leaves}
    regions = cj.regions.materialise()
    return wl, regions, executor, cells_l, cells_r, stats


class TestJoinCellPair:
    def test_matches_hash_join_within_cells(self, setup, small_pair):
        wl, regions, executor, cells_l, cells_r, stats = setup
        region = regions[0]
        li, ri = join_cell_pair(
            small_pair.left, small_pair.right,
            cells_l[region.left_cell_id], cells_r[region.right_cell_id],
            wl.join_conditions[0], stats,
        )
        gl, gr = hash_join(small_pair.left, small_pair.right, wl.join_conditions[0])
        global_pairs = set(zip(gl.tolist(), gr.tolist()))
        local_pairs = set(zip(li.tolist(), ri.tolist()))
        members_l = set(cells_l[region.left_cell_id].indices.tolist())
        members_r = set(cells_r[region.right_cell_id].indices.tolist())
        expected = {
            (a, b) for a, b in global_pairs if a in members_l and b in members_r
        }
        assert local_pairs == expected

    def test_charges_probes(self, setup, small_pair):
        wl, regions, executor, cells_l, cells_r, _ = setup
        stats = ExecutionStats()
        region = regions[0]
        join_cell_pair(
            small_pair.left, small_pair.right,
            cells_l[region.left_cell_id], cells_r[region.right_cell_id],
            wl.join_conditions[0], stats,
        )
        expected = (
            cells_l[region.left_cell_id].size + cells_r[region.right_cell_id].size
        )
        assert stats.join_probes == expected


class TestRegionExecutor:
    def test_processing_all_regions_reconstructs_skylines(
        self, setup, small_pair, eleven_query_workload
    ):
        """After processing every region, per-query windows must equal the
        reference skylines."""
        from repro.query import reference_evaluate

        wl, regions, executor, cells_l, cells_r, stats = setup
        for region in regions:
            executor.process(
                region, cells_l[region.left_cell_id], cells_r[region.right_cell_id]
            )
        for query in wl:
            ref = reference_evaluate(query, small_pair.left, small_pair.right)
            got = {
                executor.store.identity(k).as_tuple()
                for k in executor.plan.current_skyline(query.name)
            }
            assert got == ref.skyline_pairs

    def test_outcome_reports_admissions(self, setup):
        wl, regions, executor, cells_l, cells_r, stats = setup
        region = regions[0]
        outcome = executor.process(
            region, cells_l[region.left_cell_id], cells_r[region.right_cell_id]
        )
        assert outcome.join_count == len(outcome.inserted_keys)
        for name, keys in outcome.admitted.items():
            for key in keys:
                assert executor.plan.is_candidate(name, key)

    def test_join_results_counted(self, setup):
        wl, regions, executor, cells_l, cells_r, stats = setup
        before = stats.join_results
        region = regions[0]
        outcome = executor.process(
            region, cells_l[region.left_cell_id], cells_r[region.right_cell_id]
        )
        assert stats.join_results - before == outcome.join_count

    def test_discarded_region_rejected(self, setup):
        wl, regions, executor, cells_l, cells_r, stats = setup
        region = regions[0]
        for qi in range(len(wl)):
            region.deactivate_query(qi)
        with pytest.raises(ExecutionError, match="discarded"):
            executor.process(
                region, cells_l[region.left_cell_id], cells_r[region.right_cell_id]
            )

    def test_region_overhead_charged(self, setup):
        wl, regions, executor, cells_l, cells_r, stats = setup
        before = stats.regions_processed
        region = regions[1]
        executor.process(
            region, cells_l[region.left_cell_id], cells_r[region.right_cell_id]
        )
        assert stats.regions_processed == before + 1


class TestJoinResultStore:
    def test_add_and_lookup(self):
        store = JoinResultStore()
        (key,) = store.add_batch(
            np.array([3]), np.array([7]), np.array([[1.0, 2.0]]), region_id=5
        )
        assert store.identity(key) == ResultIdentity(3, 7)
        assert store.identity(key).as_tuple() == (3, 7)
        assert len(store) == 1
        # A key is a row of the identity columns: nothing outside them.
        for missing in (1, -1, 10**6):
            with pytest.raises(KeyError):
                store.identity(missing)

    def test_growth_across_a_capacity_boundary_keeps_every_identity(self):
        """Geometric growth copies the filled prefix: identities written
        before a reallocation read back the same after it."""
        from repro.core import executor as executor_module

        capacity = executor_module._STORE_INITIAL_CAPACITY
        store = JoinResultStore()
        sizes = [capacity - 3, 7, 3 * capacity]  # straddle, then outgrow 2x
        total = sum(sizes)
        left = np.arange(total, dtype=np.int64) * 3 + 1
        right = np.arange(total, dtype=np.int64)[::-1].copy()
        keys, lo = [], 0
        for region_id, size in enumerate(sizes):
            keys += store.add_batch(
                left[lo : lo + size],
                right[lo : lo + size],
                np.zeros((size, 2)),
                region_id,
            )
            lo += size
        assert keys == list(range(total))
        assert len(store) == total
        for key in (0, capacity - 4, capacity - 3, capacity, capacity + 4, total - 1):
            assert store.identity(key).as_tuple() == (int(left[key]), int(right[key]))
        got_left, got_right = store.columns()
        np.testing.assert_array_equal(got_left, left)
        np.testing.assert_array_equal(got_right, right)

    def test_keys_are_sequential(self):
        store = JoinResultStore()
        first = store.add_batch(
            np.array([0, 0]), np.array([0, 1]), np.zeros((2, 1)), 0
        )
        second = store.add_batch(np.array([1]), np.array([0]), np.zeros((1, 1)), 1)
        assert first + second == [0, 1, 2]
        assert store.add_batch(
            np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, 1)), 2
        ) == []
        assert len(store) == 3
