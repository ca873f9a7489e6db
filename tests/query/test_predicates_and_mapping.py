"""Tests for join conditions and mapping functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query.mapping import add, left_only, right_only, scaled, weighted_sum
from repro.query.predicates import JoinCondition
from repro.relation import Attribute, Relation, Role, Schema


@pytest.fixture
def left_rel():
    schema = Schema.of(m1=Role.MEASURE, jc1=Role.JOIN)
    return Relation.from_rows("R", schema, [(1.0, 0), (2.0, 1), (3.0, 0)])


@pytest.fixture
def right_rel():
    schema = Schema.of(m1=Role.MEASURE, jc1=Role.JOIN)
    return Relation.from_rows("T", schema, [(10.0, 0), (20.0, 2)])


class TestJoinCondition:
    def test_on_builder(self):
        jc = JoinCondition.on("city")
        assert jc.left_attr == jc.right_attr == "city"
        assert jc.name == "eq(city)"

    def test_named(self):
        assert JoinCondition.on("x", name="JC1").name == "JC1"

    def test_validate_passes(self, left_rel, right_rel):
        JoinCondition.on("jc1").validate(left_rel, right_rel)

    def test_validate_missing_left(self, left_rel, right_rel):
        jc = JoinCondition("bad", "nope", "jc1")
        with pytest.raises(QueryError, match="nope"):
            jc.validate(left_rel, right_rel)

    def test_validate_missing_right(self, left_rel, right_rel):
        jc = JoinCondition("bad", "jc1", "nope")
        with pytest.raises(QueryError):
            jc.validate(left_rel, right_rel)

    def test_matches(self):
        jc = JoinCondition.on("x")
        assert jc.matches(3, 3) and not jc.matches(3, 4)

    def test_rejects_empty_name(self):
        with pytest.raises(QueryError):
            JoinCondition("", "a", "b")

    def test_value_access(self, left_rel, right_rel):
        jc = JoinCondition.on("jc1")
        np.testing.assert_array_equal(jc.left_values(left_rel), [0, 1, 0])
        np.testing.assert_array_equal(jc.right_values(right_rel), [0, 2])


class TestMappingFunctions:
    def test_add(self):
        fn = add("m1", "m1", "d1")
        out = fn.apply({"m1": np.array([1.0, 2.0])}, {"m1": np.array([10.0, 20.0])})
        np.testing.assert_array_equal(out, [11.0, 22.0])

    def test_add_scalar(self):
        fn = add("a", "b", "d")
        assert fn.apply_scalar({"a": 1.0}, {"b": 2.5}) == 3.5

    def test_left_only_and_right_only(self):
        fl = left_only("price")
        fr = right_only("cost", output="total_cost")
        assert fl.output == "price" and fl.right_inputs == ()
        assert fr.output == "total_cost" and fr.left_inputs == ()
        assert fl.apply_scalar({"price": 9.0}, {}) == 9.0
        assert fr.apply_scalar({}, {"cost": 4.0}) == 4.0

    def test_weighted_sum(self):
        fn = weighted_sum(["a"], ["b", "c"], [2.0, 1.0, 0.5], "score")
        result = fn.apply_scalar({"a": 1.0}, {"b": 2.0, "c": 4.0})
        assert result == pytest.approx(2.0 + 2.0 + 2.0)

    def test_weighted_sum_wrong_arity(self):
        with pytest.raises(QueryError, match="weights"):
            weighted_sum(["a"], ["b"], [1.0], "x")

    def test_weighted_sum_negative_weight(self):
        with pytest.raises(QueryError, match="non-negative"):
            weighted_sum(["a"], [], [-1.0], "x")

    def test_scaled_example5(self):
        """Example 5: (price + WiFi) * 10 (+ air fare as offset)."""
        total = scaled(add("price", "wifi", "total"), 10.0, offset=300.0)
        assert total.apply_scalar({"price": 200.0}, {"wifi": 20.0}) == 2500.0

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(QueryError):
            scaled(add("a", "b", "d"), -1.0)

    def test_apply_bounds_monotone(self):
        fn = add("a", "b", "d")
        low, high = fn.apply_bounds({"a": 1.0}, {"a": 2.0}, {"b": 10.0}, {"b": 20.0})
        assert (low, high) == (11.0, 22.0)
        assert isinstance(low, float) and isinstance(high, float)

    def test_apply_bounds_columns_match_scalar_calls(self):
        fn = weighted_sum(["a"], ["b"], [0.5, 2.0], "d")
        a_lo, a_hi = np.array([1.0, 3.0, -2.0]), np.array([2.0, 3.5, 0.0])
        b_lo, b_hi = np.array([0.1, 7.0, 4.0]), np.array([0.3, 9.0, 4.0])
        low, high = fn.apply_bounds({"a": a_lo}, {"a": a_hi}, {"b": b_lo}, {"b": b_hi})
        assert low.shape == high.shape == (3,)
        for k in range(3):
            assert (low[k], high[k]) == fn.apply_bounds(
                {"a": a_lo[k]}, {"a": a_hi[k]}, {"b": b_lo[k]}, {"b": b_hi[k]}
            )

    def test_apply_bounds_rejects_non_monotone(self):
        from repro.query.mapping import MappingFunction

        fn = MappingFunction(
            output="d", left_inputs=("a",), right_inputs=(), fn=lambda a: -a,
            monotone=False,
        )
        with pytest.raises(QueryError, match="monotone"):
            fn.apply_bounds({"a": 0.0}, {"a": 1.0}, {}, {})

    def test_rejects_no_inputs(self):
        from repro.query.mapping import MappingFunction

        with pytest.raises(QueryError):
            MappingFunction(output="d", left_inputs=(), right_inputs=(), fn=lambda: 0)

    def test_rejects_empty_output(self):
        from repro.query.mapping import MappingFunction

        with pytest.raises(QueryError):
            MappingFunction(output="", left_inputs=("a",), right_inputs=(), fn=lambda a: a)


@given(
    a_lo=st.floats(0, 50), a_hi_delta=st.floats(0, 50),
    b_lo=st.floats(0, 50), b_hi_delta=st.floats(0, 50),
    a=st.floats(0, 1), b=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_property_bounds_contain_any_interior_value(
    a_lo, a_hi_delta, b_lo, b_hi_delta, a, b
):
    """For monotone functions, f of interior points lies within the mapped bounds."""
    fn = add("x", "y", "d")
    a_hi, b_hi = a_lo + a_hi_delta, b_lo + b_hi_delta
    low, high = fn.apply_bounds({"x": a_lo}, {"x": a_hi}, {"y": b_lo}, {"y": b_hi})
    va = a_lo + a * (a_hi - a_lo)
    vb = b_lo + b * (b_hi - b_lo)
    value = fn.apply_scalar({"x": va}, {"y": vb})
    assert low - 1e-9 <= value <= high + 1e-9
