"""Tests for WorkloadPlan: lineage-grouped shared skyline state."""

import numpy as np
import pytest

from repro.plan import WorkloadPlan, build_minmax_cuboid
from repro.query import (
    AttributeFilter,
    JoinCondition,
    Op,
    Preference,
    SkylineJoinQuery,
    Workload,
    add,
)
from repro.skyline.dominance import ComparisonCounter


@pytest.fixture
def fns():
    return tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))


def insert(plan, key, vector, serve_mask=None):
    """One tuple through the columnar walk: ``(admitted query names,
    {query name: evicted keys})``."""
    admitted_rows, evicted = plan.insert_batch_columnar(
        [key],
        np.asarray(vector, dtype=float)[None, :],
        None if serve_mask is None else np.array([serve_mask]),
    )
    return set(admitted_rows), evicted


def _q(name, jc_attr, pref, fns, **kwargs):
    return SkylineJoinQuery(
        name, JoinCondition.on(jc_attr, name=f"JC:{jc_attr}"), fns,
        Preference.over(*pref), **kwargs,
    )


class TestGrouping:
    def test_single_condition_single_group(self, fns):
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc1", ("d2", "d3"), fns),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        assert plan.group_count == 1

    def test_conditions_split_groups(self, fns):
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc2", ("d1", "d2"), fns),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        assert plan.group_count == 2

    def test_filters_split_groups(self, fns):
        filt = (AttributeFilter("m1", Op.LE, 50.0),)
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc1", ("d1", "d2"), fns, left_filters=filt),
                _q("c", "jc1", ("d2", "d3"), fns, left_filters=filt),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        assert plan.group_count == 2  # {a} and {b, c}


class TestLineageIsolation:
    def test_cross_condition_tuples_do_not_evict(self, fns):
        """The regression scenario: a JC1 tuple dominating a JC2 candidate
        in the shared subspace must leave the JC2 window untouched."""
        wl = Workload(
            [
                _q("wide", "jc1", ("d1", "d2", "d3"), fns),
                _q("narrow", "jc2", ("d1", "d2"), fns),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        # Key 0: a JC2 join result (serves only 'narrow', bit 1).
        insert(plan, 0, [5.0, 5.0, 5.0], serve_mask=0b10)
        assert plan.is_candidate("narrow", 0)
        # Key 1: a JC1 tuple dominating key 0 — but not a JC2 result.
        admitted, _ = insert(plan, 1, [1.0, 1.0, 1.0], serve_mask=0b01)
        assert admitted == {"wide"}
        assert plan.is_candidate("narrow", 0), "cross-condition eviction!"
        assert not plan.is_candidate("narrow", 1)

    def test_within_group_eviction_reported_per_query(self, fns):
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc1", ("d2", "d3"), fns),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        insert(plan, 0, [1.0, 9.0, 1.0])  # in a's and b's skylines
        admitted, evicted = insert(plan, 1, [0.5, 0.5, 0.5])  # dominates all
        assert admitted == {"a", "b"}
        assert set(evicted) == {"a", "b"}
        assert evicted["a"] == [0]

    def test_serve_mask_none_means_everyone(self, fns):
        wl = Workload([_q("a", "jc1", ("d1", "d2"), fns)])
        plan = WorkloadPlan(build_minmax_cuboid(wl))
        admitted, _ = insert(plan, 0, [1.0, 1.0, 1.0])
        assert admitted == {"a"}

    def test_counter_shared_across_groups(self, fns):
        counter = ComparisonCounter()
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc2", ("d1", "d2"), fns),
            ]
        )
        plan = WorkloadPlan(build_minmax_cuboid(wl), counter=counter)
        insert(plan, 0, [1.0, 1.0, 1.0])
        insert(plan, 1, [2.0, 2.0, 2.0])
        assert counter.comparisons > 0

    def test_two_groups_replay_one_tuple_at_a_time_walk_each(
        self, fns, cuboid_walk
    ):
        """Global lineage bits are translated per group: each group's plan
        sees exactly the tuples (and local masks) its own walk would."""
        wl = Workload(
            [
                _q("a", "jc1", ("d1", "d2"), fns),
                _q("b", "jc2", ("d1", "d2"), fns),
                _q("c", "jc1", ("d2", "d3"), fns),
            ]
        )
        counter, walked = ComparisonCounter(), ComparisonCounter()
        plan = WorkloadPlan(build_minmax_cuboid(wl), counter=counter)
        # Groups in first-seen order: {a, c} (global bits 0, 2) and {b}.
        groups = [(("a", "c"), (0, 2)), (("b",), (1,))]
        walks = [
            cuboid_walk(
                build_minmax_cuboid(wl.subset(names)), wl.output_dims, walked
            )
            for names, _ in groups
        ]
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 4, size=(40, 3)).astype(float)
        serve = rng.integers(1, 8, size=40)
        admitted_rows, evicted = plan.insert_batch_columnar(
            list(range(40)), pts, serve
        )
        want_admitted = {q.name: [] for q in wl}
        want_evicted = {q.name: [] for q in wl}
        for (names, bits), walk in zip(groups, walks):
            for key in range(40):
                local = sum(
                    1 << i for i, bit in enumerate(bits) if serve[key] >> bit & 1
                )
                if not local:
                    continue
                masks, gone = walk.insert(key, pts[key], local)
                for i, name in enumerate(names):
                    node = walk.cuboid.query_nodes[name]
                    want_evicted[name].extend(gone.get(node, []))
                    if node in masks and local >> i & 1:
                        want_admitted[name].append(key)
        for q in wl:
            got = admitted_rows.get(q.name, np.empty(0, dtype=int)).tolist()
            assert got == want_admitted[q.name], q.name
            assert evicted.get(q.name, []) == want_evicted[q.name], q.name
        assert counter.comparisons == walked.comparisons
