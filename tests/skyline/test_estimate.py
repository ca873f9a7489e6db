"""Tests for the Buchta skyline-cardinality estimator (Equation 9)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.skyline.bnl import bnl_skyline
from repro.skyline.estimate import buchta_skyline_size


class TestBuchtaFormula:
    def test_one_dimension_gives_one(self):
        """d=1: ln(n)^0 / 0! = 1 — a single minimum."""
        assert buchta_skyline_size(1000, 1) == 1.0

    def test_two_dimensions_is_log(self):
        assert buchta_skyline_size(math.e ** 3, 2) == pytest.approx(3.0)

    def test_matches_formula(self):
        n, d = 5000, 4
        expected = math.log(n) ** 3 / math.factorial(3)
        assert buchta_skyline_size(n, d) == pytest.approx(expected)

    def test_tiny_inputs(self):
        assert buchta_skyline_size(0, 3) == 0.0
        assert buchta_skyline_size(1, 3) == 1.0
        assert buchta_skyline_size(0.5, 3) == 0.5

    def test_invalid_dimension(self):
        with pytest.raises(ReproError):
            buchta_skyline_size(100, 0)

    def test_monotone_in_n(self):
        sizes = [buchta_skyline_size(n, 3) for n in (10, 100, 1000, 10000)]
        assert sizes == sorted(sizes)

    def test_monotone_in_d_for_large_n(self):
        sizes = [buchta_skyline_size(100000, d) for d in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)

    def test_estimates_real_independent_data_within_factor(self, rng):
        """Order-of-magnitude sanity on real uniform data."""
        n, d = 4000, 3
        pts = rng.random((n, d))
        actual = len(bnl_skyline(pts))
        estimate = buchta_skyline_size(n, d)
        assert estimate / 4 <= actual <= estimate * 4


@given(
    n=st.floats(0, 1e9, allow_nan=False),
    d=st.integers(1, 6),
)
@settings(max_examples=100, deadline=None)
def test_property_estimate_nonnegative_and_bounded(n, d):
    est = buchta_skyline_size(n, d)
    assert est >= 0.0
    assert est <= max(n, 1.0) or n <= 1.0
