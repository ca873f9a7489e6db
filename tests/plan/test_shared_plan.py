"""Tests for tuple-level shared skyline evaluation over the cuboid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.plan import SharedCuboidPlan, build_minmax_cuboid
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import ComparisonCounter


@pytest.fixture
def plan(figure1_workload):
    cuboid = build_minmax_cuboid(figure1_workload)
    return SharedCuboidPlan(cuboid, figure1_workload.output_dims)


def decode(plan, bits, evicted, row):
    """Row ``row`` of an ``insert_batch_arrays`` result, in the oracle's
    shape: ``(admitted masks, {mask: evicted keys})``."""
    admitted = {m for m in plan.cuboid.masks if bits[row] & plan.node_bit(m)}
    return admitted, {m: rows[row] for m, rows in evicted.items() if row in rows}


def insert(plan, key, vector, serve_mask=None):
    """One tuple through the batch walk."""
    bits, evicted = plan.insert_batch_arrays(
        [key],
        np.asarray(vector, dtype=float)[None, :],
        None if serve_mask is None else np.array([serve_mask]),
    )
    return decode(plan, bits, evicted, 0)


def insert_all(plan, points):
    plan.insert_batch_arrays(list(range(len(points))), points)


class TestInsertSemantics:
    def test_admission_report(self, plan):
        admitted, _ = insert(plan, 0, [1.0, 1.0, 1.0, 1.0])
        # First tuple is in every cuboid skyline.
        assert admitted == set(plan.cuboid.masks)
        for name in ("Q1", "Q2", "Q3", "Q4"):
            assert plan.is_candidate(name, 0)

    def test_dominated_tuple_rejected_everywhere(self, plan):
        insert(plan, 0, [1.0, 1.0, 1.0, 1.0])
        admitted, _ = insert(plan, 1, [2.0, 2.0, 2.0, 2.0])
        assert admitted == set()

    def test_eviction_reported_per_query(self, plan, figure1_workload):
        insert(plan, 0, [5.0, 5.0, 5.0, 5.0])
        _, evicted = insert(plan, 1, [1.0, 1.0, 1.0, 1.0])
        for query in figure1_workload:
            assert evicted[plan.query_mask(query.name)] == [0]

    def test_subspace_membership_differs(self, plan):
        insert(plan, 0, [1.0, 5.0, 5.0, 5.0])
        insert(plan, 1, [5.0, 1.0, 1.0, 1.0])
        # Over {d2,d3} (Q3), tuple 1 = (1,1) dominates tuple 0 = (5,5).
        assert plan.is_candidate("Q3", 1)
        assert not plan.is_candidate("Q3", 0)
        # Over {d1,d2} (Q1), (1,5) and (5,1) are incomparable: both stay.
        assert plan.is_candidate("Q1", 0) and plan.is_candidate("Q1", 1)

    def test_wrong_vector_width(self, plan):
        with pytest.raises(PlanError):
            insert(plan, 0, [1.0, 2.0])

    def test_serve_mask_restricts_nodes(self, figure1_workload):
        cuboid = build_minmax_cuboid(figure1_workload)
        plan = SharedCuboidPlan(cuboid, figure1_workload.output_dims)
        # Serve only Q1 (bit 0): only nodes serving Q1 are touched.
        admitted, _ = insert(plan, 0, [1.0, 1.0, 1.0, 1.0], serve_mask=0b0001)
        q1_mask = plan.query_mask("Q1")
        assert q1_mask in admitted
        q4_mask = plan.query_mask("Q4")
        assert q4_mask not in admitted
        assert len(plan.window(q4_mask)) == 0

    def test_unknown_query_raises(self, plan):
        with pytest.raises(PlanError):
            plan.current_skyline("Q99")

    def test_missing_dims_rejected(self, figure1_workload):
        cuboid = build_minmax_cuboid(figure1_workload)
        with pytest.raises(PlanError, match="lacks"):
            SharedCuboidPlan(cuboid, ("d1", "d2"))


class TestCorrectnessAgainstBNL:
    @pytest.mark.parametrize("assume_dva", [True, False])
    def test_per_query_skylines_match_bnl(
        self, figure1_workload, rng, assume_dva
    ):
        cuboid = build_minmax_cuboid(figure1_workload)
        plan = SharedCuboidPlan(
            cuboid, figure1_workload.output_dims, assume_dva=assume_dva
        )
        pts = rng.random((250, 4)) * 100
        insert_all(plan, pts)
        for query in figure1_workload:
            dims = query.preference.positions(figure1_workload.output_dims)
            expected = set(bnl_skyline(pts, dims=dims))
            assert set(plan.current_skyline(query.name)) == expected

    def test_eleven_query_workload_all_match(self, eleven_query_workload, rng):
        cuboid = build_minmax_cuboid(eleven_query_workload)
        plan = SharedCuboidPlan(cuboid, eleven_query_workload.output_dims)
        pts = rng.random((150, 4)) * 100
        insert_all(plan, pts)
        for query in eleven_query_workload:
            dims = query.preference.positions(eleven_query_workload.output_dims)
            assert set(plan.current_skyline(query.name)) == set(
                bnl_skyline(pts, dims=dims)
            )

    def test_window_sizes_view(self, plan):
        insert(plan, 0, [1.0, 2.0, 3.0, 4.0])
        sizes = plan.window_sizes()
        assert all(size == 1 for size in sizes.values())


class TestSharingAccounting:
    def test_dva_seeding_reduces_comparisons(
        self, eleven_query_workload, rng, cuboid_walk
    ):
        """The Theorem-1 shortcut must never cost more than full scans —
        and either way the charge is the tuple-at-a-time walk's."""
        pts = rng.random((200, 4)) * 100
        counts = {}
        for assume_dva in (True, False):
            cuboid = build_minmax_cuboid(eleven_query_workload)
            counter = ComparisonCounter()
            plan = SharedCuboidPlan(
                cuboid,
                eleven_query_workload.output_dims,
                counter=counter,
                assume_dva=assume_dva,
            )
            insert_all(plan, pts)
            counts[assume_dva] = counter.comparisons
            walked = ComparisonCounter()
            walk = cuboid_walk(
                cuboid, eleven_query_workload.output_dims, walked, assume_dva
            )
            for key in range(len(pts)):
                walk.insert(key, pts[key])
            assert counter.comparisons == walked.comparisons
        assert counts[True] <= counts[False]


@given(seed=st.integers(0, 500), n=st.integers(1, 80))
@settings(max_examples=20, deadline=None)
def test_property_shared_plan_matches_bnl(figure1_workload, seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 4)) * 100
    cuboid = build_minmax_cuboid(figure1_workload)
    plan = SharedCuboidPlan(cuboid, figure1_workload.output_dims)
    insert_all(plan, pts)
    for query in figure1_workload:
        dims = query.preference.positions(figure1_workload.output_dims)
        assert set(plan.current_skyline(query.name)) == set(
            bnl_skyline(pts, dims=dims)
        )


@given(
    seed=st.integers(0, 500),
    n=st.integers(1, 60),
    cuts=st.lists(st.integers(0, 60), max_size=3),
    lineage=st.booleans(),
    assume_dva=st.booleans(),
    lift=st.none() | st.integers(0, 15),
)
@settings(max_examples=60, deadline=None)
def test_property_batch_walk_replays_the_tuple_at_a_time_walk(
    figure1_workload, cuboid_walk, seed, n, cuts, lineage, assume_dva, lift
):
    """Grid-valued tuples (ties break DVA), arbitrary batch boundaries and
    per-tuple query lineage: admitted bits, evictions, every window's entry
    order and the charged comparisons equal the oracle walk's.

    With ``lift`` set, every tuple after the first is an offset >= 0 from
    it, raised by 1 on the dimensions in the ``lift`` bits: the first tuple
    heads every window it entered, and later batches meet windows whose
    head dominates their lower corner on the nodes over a lifted dimension
    (the whole-batch rejection) and ties it on the others."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 5, size=(n, 4)).astype(float)
    if lift is not None:
        pts[1:] = pts[0] + rng.integers(0, 3, size=(n - 1, 4))
        pts[1:, [d for d in range(4) if lift >> d & 1]] += 1.0
    serve = rng.integers(1, 16, size=n) if lineage else None
    cuboid = build_minmax_cuboid(figure1_workload)
    counter, walked = ComparisonCounter(), ComparisonCounter()
    dims = figure1_workload.output_dims
    plan = SharedCuboidPlan(cuboid, dims, counter, assume_dva=assume_dva)
    walk = cuboid_walk(cuboid, dims, walked, assume_dva)
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    for lo, hi in zip(bounds, bounds[1:]):
        bits, evicted = plan.insert_batch_arrays(
            list(range(lo, hi)),
            pts[lo:hi],
            None if serve is None else serve[lo:hi],
        )
        for key in range(lo, hi):
            want = walk.insert(
                key, pts[key], None if serve is None else int(serve[key])
            )
            assert decode(plan, bits, evicted, key - lo) == want
    for mask in cuboid.masks:
        assert plan.window(mask).keys == walk.windows[mask].keys
    assert counter.comparisons == walked.comparisons
