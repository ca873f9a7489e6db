"""Tests for BNL, SFS, and their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import ComparisonCounter, dominates
from repro.skyline.sfs import sfs_order, sfs_skyline


SIMPLE = np.array(
    [
        [1.0, 5.0],
        [2.0, 2.0],
        [5.0, 1.0],
        [3.0, 3.0],  # dominated by (2,2)
        [6.0, 6.0],  # dominated by everything
    ]
)


class TestBNL:
    def test_simple(self):
        assert bnl_skyline(SIMPLE) == [0, 1, 2]

    def test_empty(self):
        assert bnl_skyline(np.empty((0, 3))) == []

    def test_single(self):
        assert bnl_skyline(np.array([[4.0, 4.0]])) == [0]

    def test_subspace(self):
        assert bnl_skyline(SIMPLE, dims=[0]) == [0]

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            bnl_skyline(np.array([1.0, 2.0]))

    def test_all_duplicates_kept(self):
        pts = np.array([[1.0, 1.0]] * 4)
        assert bnl_skyline(pts) == [0, 1, 2, 3]


class TestSFS:
    def test_simple(self):
        assert sfs_skyline(SIMPLE) == [0, 1, 2]

    def test_order_is_by_ascending_sum(self):
        order = sfs_order(SIMPLE)
        sums = SIMPLE.sum(axis=1)[order]
        assert np.all(np.diff(sums) >= 0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            sfs_skyline(np.array([1.0]))


class TestAgreementAndEfficiency:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bnl_sfs_agree(self, d, rng):
        pts = rng.random((300, d)) * 100
        assert bnl_skyline(pts) == sfs_skyline(pts)

    def test_sfs_needs_fewer_comparisons(self, rng):
        pts = rng.random((400, 3)) * 100
        c_bnl, c_sfs = ComparisonCounter(), ComparisonCounter()
        bnl_skyline(pts, counter=c_bnl)
        sfs_skyline(pts, counter=c_sfs)
        assert c_sfs.comparisons < c_bnl.comparisons

    def test_subspace_agreement(self, rng):
        pts = rng.random((200, 4)) * 100
        for dims in [(0,), (1, 3), (0, 1, 2)]:
            assert bnl_skyline(pts, dims=dims) == sfs_skyline(pts, dims=dims)


matrices = arrays(
    np.float64,
    st.tuples(st.integers(0, 50), st.just(3)),
    elements=st.floats(0, 100, allow_nan=False),
)


@given(pts=matrices)
@settings(max_examples=50, deadline=None)
def test_property_skyline_correct_and_algorithms_agree(pts):
    result = bnl_skyline(pts)
    assert result == sfs_skyline(pts)
    in_skyline = set(result)
    for i in range(len(pts)):
        dominated = any(dominates(pts[j], pts[i]) for j in range(len(pts)))
        assert (i in in_skyline) == (not dominated)
