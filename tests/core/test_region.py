"""Tests for output regions and region dominance (Definition 8).

Region dominance is checked as the engine answers it: one comparison code
per corner pair, looked up in the subspace table of the examined
positions (the coarse skyline, the dependency graph and the discard step
all read it this way)."""

import dataclasses
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.region import OutputRegion, RegionTable
from repro.errors import ExecutionError
from repro.skyline.dominance import subspace_matrix, subspace_table

DOMINATES, PARTIAL, INCOMPARABLE = "dominates", "partial", "incomparable"


def make_region(region_id, lower, upper, rql=0b1):
    return OutputRegion(
        region_id=region_id,
        left_cell_id=0,
        right_cell_id=0,
        condition_name="JC1",
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        rql=rql,
        coord_lo=(0,) * len(lower),
        coord_hi=(0,) * len(lower),
        est_join_count=1.0,
    )


def dominates_on(a, b, positions):
    """Definition 1 for one pair of corners, through the code kernel."""
    mask = sum(1 << p for p in positions)
    word = subspace_table(len(a), [mask])[0]
    return bool(subspace_matrix(np.atleast_2d(a), np.atleast_2d(b), word)[0, 0])


def region_relation(r_i, r_j, positions):
    """Definition 8 over the subspace given by column ``positions``."""
    if dominates_on(r_i.upper, r_j.lower, positions):
        return DOMINATES
    if dominates_on(r_i.lower, r_j.upper, positions):
        return PARTIAL
    return INCOMPARABLE


def point_discards_region(point, region, positions):
    """A result at or below the region's lower corner discards it."""
    return dominates_on(point, region.lower, positions)


def region_could_dominate_point(point, region, positions):
    """The reporting safety test: the region's most dominating possible
    tuple is its lower corner."""
    return dominates_on(region.lower, point, positions)


class TestOutputRegion:
    def test_cell_count(self):
        region = make_region(0, [0, 0], [1, 1])
        region.coord_lo, region.coord_hi = (0, 1), (2, 3)
        assert region.cell_count == 9

    def test_serves_and_deactivate(self):
        region = make_region(0, [0], [1], rql=0b101)
        assert region.serves(0) and not region.serves(1) and region.serves(2)
        region.deactivate_query(0)
        assert not region.serves(0)
        assert not region.is_discarded
        region.deactivate_query(2)
        assert region.is_discarded

    def test_invalid_bounds(self):
        with pytest.raises(ExecutionError):
            make_region(0, [2.0], [1.0])

    def test_empty_rql_rejected(self):
        with pytest.raises(ExecutionError):
            make_region(0, [0.0], [1.0], rql=0)


class TestMaterialise:
    """``RegionTable.materialise`` checks its rows once, as arrays, and
    builds objects equal to the self-validating constructor's."""

    def _table(self):
        regions = [
            make_region(4, [0.0, 1.0], [1.0, 2.0], rql=0b11),
            make_region(7, [2.0, 2.0], [2.0, 3.0], rql=0b10),
            make_region(9, [5.0, 0.0], [6.0, 0.5], rql=0b01),
        ]
        regions[0].active_rql = 0b01
        return regions, RegionTable.from_regions(regions)

    def test_rows_equal_the_constructed_regions(self):
        regions, table = self._table()
        table.active_rql[2] = 0  # discarded: resets to rql, as __post_init__ does
        built = table.materialise([2, 0, 1])
        assert [r.region_id for r in built] == [9, 4, 7]
        assert [r.active_rql for r in built] == [0b01, 0b01, 0b10]
        for got, want in zip(built[1:], regions[:2]):
            for f in dataclasses.fields(OutputRegion):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.array_equal(a, b) and type(a) is type(b), f.name
            assert type(got.active_rql) is int and type(got.rql) is int
            assert np.shares_memory(got.lower, table.lower)
        assert built[0].cell_count == 1

    def test_first_bad_row_raises_the_constructors_error(self):
        _, table = self._table()
        table.lower[2, 0] = 7.0  # lower above upper
        table.rql[1] = 0
        with pytest.raises(ExecutionError, match="#7 serves no query"):
            table.materialise()
        with pytest.raises(ExecutionError, match="#9: lower bound exceeds"):
            table.materialise([0, 2, 1])
        assert [r.region_id for r in table.materialise([0])] == [4]


class TestExample16RegionDominance:
    """Example 16's three regions over (d1, d2, d3, d4)."""

    R1 = make_region(1, [6, 8, 8, 4], [8, 10, 10, 6], rql=0b1)
    R2 = make_region(2, [8, 6, 6, 5], [10, 8, 8, 7], rql=0b1)
    R3 = make_region(3, [7, 5, 4, 1], [9, 7, 6, 4], rql=0b1)

    def test_r1_nondominated_on_d1(self):
        """R1 has the best d1 range: nobody dominates it there."""
        assert region_relation(self.R2, self.R1, (0,)) != DOMINATES
        assert region_relation(self.R3, self.R1, (0,)) != DOMINATES

    def test_r3_dominates_r1_on_d3(self):
        """R3's d3 upper bound (6) <= R1's lower (8): full dominance."""
        assert region_relation(self.R3, self.R1, (2,)) == DOMINATES

    def test_r3_r1_boundary_tie_on_d4_is_not_full_dominance(self):
        """R3's d4 upper bound (4) equals R1's lower bound (4): without a
        strictly better dimension this is only partial dominance."""
        assert region_relation(self.R3, self.R1, (3,)) == PARTIAL

    def test_r3_dominates_r2_on_d4(self):
        assert region_relation(self.R3, self.R2, (3,)) == DOMINATES

    def test_r1_r3_partial_on_d1d2(self):
        """Over {d1,d2} both survive in the example's SKY computation."""
        assert region_relation(self.R3, self.R1, (0, 1)) != DOMINATES
        assert region_relation(self.R1, self.R3, (0, 1)) != DOMINATES

    def test_r3_dominates_r1_on_d3d4(self):
        """Example 16: SKY(d3,d4) = {R3} — R1 and R2 are dominated."""
        assert region_relation(self.R3, self.R1, (2, 3)) == DOMINATES
        assert region_relation(self.R3, self.R2, (2, 3)) == DOMINATES


class TestDominanceKinds:
    def test_full(self):
        a = make_region(0, [0, 0], [1, 1])
        b = make_region(1, [2, 2], [3, 3])
        assert region_relation(a, b, (0, 1)) == DOMINATES

    def test_partial_on_overlap(self):
        a = make_region(0, [0, 0], [5, 5])
        b = make_region(1, [2, 2], [7, 7])
        assert region_relation(a, b, (0, 1)) == PARTIAL

    def test_incomparable(self):
        a = make_region(0, [5, 5], [6, 6])
        b = make_region(1, [0, 0], [1, 1])
        assert region_relation(a, b, (0, 1)) == INCOMPARABLE

    def test_subspace_changes_relation(self):
        a = make_region(0, [0, 9], [1, 10])
        b = make_region(1, [5, 0], [6, 1])
        assert region_relation(a, b, (0,)) == DOMINATES
        assert region_relation(a, b, (1,)) == INCOMPARABLE


class TestPointRegionTests:
    def test_point_dominates_region(self):
        region = make_region(0, [5, 5], [9, 9])
        assert point_discards_region(np.array([1.0, 1.0]), region, (0, 1))
        assert not point_discards_region(np.array([6.0, 1.0]), region, (0, 1))

    def test_point_on_boundary_does_not_dominate(self):
        region = make_region(0, [5, 5], [9, 9])
        assert not point_discards_region(np.array([5.0, 5.0]), region, (0, 1))

    def test_point_could_be_dominated(self):
        region = make_region(0, [2, 2], [4, 4])
        assert region_could_dominate_point(np.array([3.0, 3.0]), region, (0, 1))
        assert region_could_dominate_point(np.array([9.0, 9.0]), region, (0, 1))
        assert not region_could_dominate_point(
            np.array([1.0, 1.0]), region, (0, 1)
        )

    def test_safety_test_is_sound(self, rng):
        """If the safety test says safe, no tuple in the region's box can
        dominate the point."""
        region = make_region(0, [2, 2], [4, 4])
        for _ in range(200):
            point = rng.random(2) * 6
            if not region_could_dominate_point(point, region, (0, 1)):
                samples = region.lower + rng.random((50, 2)) * (
                    region.upper - region.lower
                )
                for s in samples:
                    assert not (np.all(s <= point) and np.any(s < point))


@given(
    lo_a=st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=2),
    w_a=st.lists(st.floats(0, 20, allow_nan=False), min_size=2, max_size=2),
    lo_b=st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=2),
    w_b=st.lists(st.floats(0, 20, allow_nan=False), min_size=2, max_size=2),
)
@settings(max_examples=80, deadline=None)
def test_property_full_dominance_is_asymmetric(lo_a, w_a, lo_b, w_b):
    a = make_region(0, lo_a, [l + w for l, w in zip(lo_a, w_a)])
    b = make_region(1, lo_b, [l + w for l, w in zip(lo_b, w_b)])
    if region_relation(a, b, (0, 1)) == DOMINATES:
        assert region_relation(b, a, (0, 1)) != DOMINATES
