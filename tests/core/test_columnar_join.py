"""Property tests: the vectorised grouped join ≡ the scalar reference.

The columnar data plane (docs/ARCHITECTURE.md §11) replaces the
dict-of-lists bucket loop with a sort-based kernel
(:func:`repro.query.joinkernel.vectorized_equi_join`).  Everything
downstream — SFS presort tie-breaks, insertion ids, skyline replay — is
sensitive to the *order* of the emitted pairs, so equivalence here means
identical index arrays, not identical sets.  Hypothesis drives the key
distributions the kernel must survive: heavy duplicates, skew, empty
sides, singletons, and the NaN / non-numeric inputs where the kernel must
decline rather than guess.

The modelled probe charge (``left.size + right.size`` per cell pair,
docs/ARCHITECTURE.md §11) is asserted to be identical on both paths via
:class:`ExecutionStats`, keeping virtual time independent of the plane.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import ExecutionStats
from repro.query.joinkernel import (
    build_grouped,
    bucket_join,
    cell_join,
    probe_grouped,
    vectorized_equi_join,
)

# Small key domains force duplicate-heavy, skewed distributions — the
# regime where grouped runs and bucket chains are longest.
_INT_KEYS = st.lists(st.integers(min_value=-3, max_value=3), max_size=40)
_FLOAT_KEYS = st.lists(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 1e300]), max_size=40
)


def _as_pairs(result):
    left, right = result
    return list(zip(left.tolist(), right.tolist()))


@settings(max_examples=200, deadline=None)
@given(left=_INT_KEYS, right=_INT_KEYS)
def test_integer_keys_match_reference_pairs_and_order(left, right):
    lv = np.asarray(left, dtype=np.int64)
    rv = np.asarray(right, dtype=np.int64)
    got = vectorized_equi_join(lv, rv)
    assert got is not None
    assert _as_pairs(got) == _as_pairs(bucket_join(lv, rv))


@settings(max_examples=200, deadline=None)
@given(left=_FLOAT_KEYS, right=_FLOAT_KEYS)
def test_float_keys_match_reference_pairs_and_order(left, right):
    lv = np.asarray(left, dtype=np.float64)
    rv = np.asarray(right, dtype=np.float64)
    got = vectorized_equi_join(lv, rv)
    assert got is not None
    assert _as_pairs(got) == _as_pairs(bucket_join(lv, rv))


@settings(max_examples=100, deadline=None)
@given(left=_INT_KEYS, right=_INT_KEYS, data=st.data())
def test_cached_build_reprobes_match_one_shot(left, right, data):
    """One build, many probes — the executor's per-(cell, condition) cache."""
    lv = np.asarray(left, dtype=np.int64)
    build = build_grouped(lv)
    assert build is not None
    probes = [right] + data.draw(st.lists(_INT_KEYS, max_size=3))
    for probe in probes:
        rv = np.asarray(probe, dtype=np.int64)
        got = probe_grouped(build, rv)
        assert got is not None
        assert _as_pairs(got) == _as_pairs(bucket_join(lv, rv))


@settings(max_examples=100, deadline=None)
@given(left=_INT_KEYS, right=_INT_KEYS)
def test_cell_join_maps_local_pairs_to_global_rows(left, right):
    lv = np.asarray(left, dtype=np.int64)
    rv = np.asarray(right, dtype=np.int64)
    # Arbitrary (but distinct) global row ids, as leaf cells produce.
    left_indices = np.arange(100, 100 + len(lv), dtype=np.intp)
    right_indices = np.arange(500, 500 + len(rv), dtype=np.intp)
    got_l, got_r = cell_join(lv, rv, left_indices, right_indices)
    ref_l, ref_r = bucket_join(lv, rv)
    np.testing.assert_array_equal(got_l, left_indices[ref_l])
    np.testing.assert_array_equal(got_r, right_indices[ref_r])


def test_empty_sides_yield_empty_index_arrays():
    empty = np.empty(0, dtype=np.int64)
    keys = np.asarray([1, 1, 2], dtype=np.int64)
    for lv, rv in [(empty, keys), (keys, empty), (empty, empty)]:
        got = vectorized_equi_join(lv, rv)
        assert got is not None
        left, right = got
        assert left.shape == (0,) and left.dtype == np.intp
        assert right.shape == (0,) and right.dtype == np.intp
        assert _as_pairs(got) == _as_pairs(bucket_join(lv, rv))


def test_kernel_declines_nan_and_non_numeric_keys():
    nan_keys = np.asarray([1.0, np.nan], dtype=np.float64)
    clean = np.asarray([1.0, 2.0], dtype=np.float64)
    assert build_grouped(nan_keys) is None
    assert vectorized_equi_join(nan_keys, clean) is None
    build = build_grouped(clean)
    assert build is not None
    assert probe_grouped(build, nan_keys) is None
    assert build_grouped(np.asarray(["a", "b"], dtype=object)) is None


@settings(max_examples=50, deadline=None)
@given(left=_INT_KEYS, right=_INT_KEYS)
def test_cell_join_falls_back_identically_on_object_keys(left, right):
    """Out-of-domain dtypes route through the bucket loop unchanged."""
    lv = np.asarray(left, dtype=np.int64)
    rv = np.asarray(right, dtype=np.int64)
    lo = lv.astype(object)
    ro = rv.astype(object)
    left_indices = np.arange(len(lv), dtype=np.intp)
    right_indices = np.arange(len(rv), dtype=np.intp)
    got = cell_join(lo, ro, left_indices, right_indices)
    ref = cell_join(lv, rv, left_indices, right_indices)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])


def test_probe_charge_is_identical_on_both_paths():
    """Virtual time charges cell sizes, never Python work, on either plane."""
    from repro.core.executor import join_cell_pair
    from repro.partition.quadtree import quadtree_partition
    from repro.query.predicates import JoinCondition
    from repro.relation.relation import Relation
    from repro.relation.schema import Role, Schema

    schema = Schema.of(m=Role.MEASURE, j=Role.JOIN)
    left = Relation.from_rows(
        "L", schema, [(float(k), float(k % 3)) for k in range(12)]
    )
    right = Relation.from_rows(
        "R", schema, [(float(k), float(k % 4)) for k in range(9)]
    )
    condition = JoinCondition.on("j", name="JC")
    conditions = (condition,)
    lp = quadtree_partition(left, ("m",), conditions, "left", capacity=16)
    rp = quadtree_partition(right, ("m",), conditions, "right", capacity=16)
    lc, rc = lp.leaves[0], rp.leaves[0]
    charges = {}
    for label in ("vectorised", "reference"):
        stats = ExecutionStats()
        pairs = join_cell_pair(left, right, lc, rc, condition, stats)
        charges[label] = (stats.join_probes, _as_pairs(pairs))
    assert charges["vectorised"] == charges["reference"]
    assert charges["vectorised"][0] == lc.size + rc.size


@pytest.mark.parametrize("nan_side", ["left", "right"])
def test_executor_replays_the_bucket_loop_on_nan_keys(nan_side):
    """Keys outside the kernel domain take the executor's one fallback:
    a declined build (NaN on the left) or a declined probe (NaN on the
    right) both yield ``bucket_join``'s pairs, cached build included."""
    from repro.core.executor import JoinResultStore, RegionExecutor
    from repro.partition.quadtree import quadtree_partition
    from repro.plan import WorkloadPlan, build_minmax_cuboid
    from repro.query import Preference, SkylineJoinQuery, Workload, add
    from repro.query.predicates import JoinCondition
    from repro.relation.relation import Relation
    from repro.relation.schema import Role, Schema

    schema = Schema.of(m=Role.MEASURE, j=Role.JOIN)

    def rows(n, mod, dirty):
        keys = [float(k % mod) for k in range(n)]
        if dirty:
            keys[1] = keys[4] = float("nan")
        return [(float(k), key) for k, key in enumerate(keys)]

    left = Relation.from_rows("L", schema, rows(12, 3, nan_side == "left"))
    right = Relation.from_rows("R", schema, rows(9, 4, nan_side == "right"))
    condition = JoinCondition.on("j", name="JC")
    workload = Workload(
        [
            SkylineJoinQuery(
                "Q", condition, (add("m", "m", "d"),), Preference.over("d")
            )
        ]
    )
    lp = quadtree_partition(left, ("m",), (condition,), "left", capacity=16)
    rp = quadtree_partition(right, ("m",), (condition,), "right", capacity=16)
    lc, rc = lp.leaves[0], rp.leaves[0]
    stats = ExecutionStats()
    executor = RegionExecutor(
        workload, left, right,
        WorkloadPlan(build_minmax_cuboid(workload)), JoinResultStore(), stats,
    )
    lv = condition.left_values(left)[lc.indices]
    rv = condition.right_values(right)[rc.indices]
    ref_l, ref_r = bucket_join(lv, rv)
    assert len(ref_l) > 0
    for _ in range(2):  # second call is served from the build cache
        got_l, got_r = executor._join_cells(lc, rc, condition)
        np.testing.assert_array_equal(got_l, lc.indices[ref_l])
        np.testing.assert_array_equal(got_r, rc.indices[ref_r])
    assert stats.join_probes == 2 * (lc.size + rc.size)
