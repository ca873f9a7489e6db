"""Tests for tuple-level dominance (Definitions 1-2), incl. paper examples."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.skyline.dominance import (
    MAX_CODE_DIMS,
    ComparisonCounter,
    Dominance,
    all_lt_broadcast,
    compare,
    dominance_broadcast,
    dominance_codes,
    dominance_mask,
    dominates,
    subspace_matrix,
    subspace_table,
    subspace_union,
)

# The paper's Example 3 hotels: (price, 5-rating-ish kept as rating, distance, wifi).
H1 = np.array([200.0, 5.0, 0.5, 20.0])
H2 = np.array([350.0, 5.0, 0.5, 20.0])
H3 = np.array([89.0, 2.0, 3.0, 0.0])


class TestExample3FullSpace:
    """Example 3 uses 'smaller is better' on price; rating 5 is mapped so
    that equal ratings tie — we compare raw vectors where h1 <= h2."""

    def test_h1_dominates_h2(self):
        assert dominates(H1, H2)

    def test_h2_not_dominates_h1(self):
        assert not dominates(H2, H1)

    def test_h1_h3_incomparable(self):
        assert not dominates(H1, H3)
        assert not dominates(H3, H1)


class TestExample4Subspace:
    def test_h3_dominates_both_in_price_wifi(self):
        dims = (0, 3)  # price, wifi
        assert dominates(H3, H1, dims=dims)
        assert dominates(H3, H2, dims=dims)

    def test_subspace_changes_outcome(self):
        assert not dominates(H3, H1)  # full space: incomparable
        assert dominates(H3, H1, dims=(0, 3))


class TestCompare:
    def test_left(self):
        assert compare(H1, H2) is Dominance.LEFT

    def test_right(self):
        assert compare(H2, H1) is Dominance.RIGHT

    def test_equal(self):
        assert compare(H1, H1) is Dominance.EQUAL

    def test_incomparable(self):
        assert compare(H1, H3) is Dominance.INCOMPARABLE

    def test_subspace_equal(self):
        assert compare(H1, H2, dims=(1, 2)) is Dominance.EQUAL


class TestStrictness:
    def test_equal_vectors_do_not_dominate(self):
        v = np.array([1.0, 2.0])
        assert not dominates(v, v)

    def test_weakly_smaller_dominates(self):
        assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))


class TestCounter:
    def test_counts_each_call(self):
        counter = ComparisonCounter()
        dominates(H1, H2, counter=counter)
        compare(H1, H3, counter=counter)
        assert counter.comparisons == 2

    def test_on_increment_callback(self):
        seen = []
        counter = ComparisonCounter(on_increment=seen.append)
        counter.record(3)
        counter.record()
        assert counter.comparisons == 4
        assert seen == [3, 1]


points = arrays(np.float64, 3, elements=st.floats(0, 100, allow_nan=False))


@given(a=points, b=points, c=points)
@settings(max_examples=100, deadline=None)
def test_property_dominance_is_a_strict_partial_order(a, b, c):
    # Irreflexive.
    assert not dominates(a, a)
    # Asymmetric.
    if dominates(a, b):
        assert not dominates(b, a)
    # Transitive.
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@given(a=points, b=points)
@settings(max_examples=100, deadline=None)
def test_property_compare_consistent_with_dominates(a, b):
    outcome = compare(a, b)
    assert (outcome is Dominance.LEFT) == dominates(a, b)
    assert (outcome is Dominance.RIGHT) == dominates(b, a)


@given(a=points, b=points, dims=st.sets(st.integers(0, 2), min_size=1))
@settings(max_examples=100, deadline=None)
def test_property_subspace_dominance_from_full_dominance(a, b, dims):
    """Full-space dominance implies weak subspace preference (never reversed)."""
    if dominates(a, b):
        assert not dominates(b, a, dims=sorted(dims))


# ---------------------------------------------------------------------- #
# The pairwise kernel against the literal definition
# ---------------------------------------------------------------------- #
def literal_dominance(a, b, axis=-1):
    """Definition 1 written out: the oracle the kernel must equal."""
    return (a <= b).all(axis=axis) & (a < b).any(axis=axis)


def literal_all(op, a, b, axis=-1):
    return op(a, b).all(axis=axis)


#: Few distinct values, so ties, duplicates, NaN and +-inf are the norm.
_VALUES = st.sampled_from([0.0, 1.0, 2.0, 2.5, np.inf, -np.inf, np.nan])
_LAYOUTS = ("c", "fortran", "strided", "reversed")


def _laid_out(array: np.ndarray, layout: str) -> np.ndarray:
    """The same values behind different strides."""
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided":
        wide = np.full(tuple(2 * s for s in array.shape), 7.0)
        view = wide[tuple(slice(None, None, 2) for _ in array.shape)]
        view[...] = array
        return view
    if layout == "reversed":  # negative stride along the first axis
        return np.ascontiguousarray(array[::-1])[::-1]
    return array


@st.composite
def _row_matrices(draw):
    d = draw(st.sampled_from([0, 1, 2, 4, 7]))
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    a = draw(arrays(np.float64, (n, d), elements=_VALUES))
    b = draw(arrays(np.float64, (m, d), elements=_VALUES))
    return (
        _laid_out(a, draw(st.sampled_from(_LAYOUTS))),
        _laid_out(b, draw(st.sampled_from(_LAYOUTS))),
    )


def _assert_kernels_match(a, b, axis):
    got = dominance_broadcast(a, b, axis=axis)
    want = literal_dominance(a, b, axis=axis)
    assert got.dtype == np.bool_ and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        all_lt_broadcast(a, b, axis=axis), literal_all(np.less, a, b, axis)
    )


@given(pair=_row_matrices())
@settings(max_examples=150, deadline=None)
def test_property_cross_masks_equal_the_literal_definition(pair):
    a, b = pair
    np.testing.assert_array_equal(
        dominance_mask(a, b), literal_dominance(a[:, None, :], b[None, :, :], axis=2)
    )
    _assert_kernels_match(a[:, None, :], b[None, :, :], axis=2)
    _assert_kernels_match(a[:, None, :], b[None, :, :], axis=-1)
    # The attribute axis need not be the last one.
    _assert_kernels_match(a[:, :, None], b.T[None, :, :], axis=1)
    _assert_kernels_match(a[:, :, None], b.T[None, :, :], axis=-2)


@given(pair=_row_matrices(), batch=st.integers(0, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_property_4d_broadcasts_equal_the_literal_definition(pair, batch, data):
    """The ``axis=3`` shapes of ``benefit.py``: per-batch threat rows against
    per-batch sample rows, and events against every row's samples."""
    a, b = pair
    d = a.shape[1]
    thr = data.draw(arrays(np.float64, (batch, len(a), d), elements=_VALUES))
    samp = data.draw(arrays(np.float64, (batch, len(b), d), elements=_VALUES))
    _assert_kernels_match(thr[:, :, None, :], samp[:, None, :, :], axis=3)
    _assert_kernels_match(a[:, None, None, :], samp[None, :, :, :], axis=3)


@given(pair=_row_matrices())
@settings(max_examples=100, deadline=None)
def test_property_attribute_axis_broadcasts(pair):
    """Width 1 on one side repeats against width d on the other; operands
    of different rank align from the end."""
    a, b = pair
    if a.shape[1] == 0:
        return
    _assert_kernels_match(a[:, None, :1], b[None, :, :], axis=2)
    _assert_kernels_match(a[:, None, :], b[None, :, :1], axis=2)
    if len(a):
        _assert_kernels_match(a[0], b, axis=-1)
        _assert_kernels_match(b, a[0], axis=1)


class TestKernelEdges:
    def test_zero_width_axis_is_all_false(self):
        a, b = np.empty((3, 1, 0)), np.empty((1, 4, 0))
        got = dominance_broadcast(a, b, axis=2)
        assert got.shape == (3, 4) and got.dtype == np.bool_ and not got.any()
        assert all_lt_broadcast(a, b, axis=2).shape == (3, 4)
        assert dominance_mask(np.empty((0, 0)), np.empty((2, 0))).shape == (0, 2)

    def test_mismatched_widths_raise(self):
        with pytest.raises(ValueError, match="broadcast"):
            dominance_broadcast(np.zeros((2, 1, 3)), np.zeros((1, 2, 2)), axis=2)

    def test_inf_padding_rows_dominate_nothing(self):
        """``estimate_roots_arrays`` pads threat rows with +inf corners."""
        thr = np.full((2, 3, 1, 2), np.inf)
        thr[0, 0, 0] = (1.0, 1.0)
        samp = np.array([[[[2.0, 2.0], [np.inf, np.inf], [0.5, 3.0]]]] * 2)
        counts = dominance_broadcast(thr, samp, axis=3).sum(axis=1)
        np.testing.assert_array_equal(counts, [[1, 1, 0], [0, 0, 0]])

    def test_nan_neither_dominates_nor_is_dominated(self):
        pts = np.array([[np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]])
        mask = dominance_mask(pts, pts)
        assert not mask[0].any() and not mask[:, 0].any()
        assert mask[1, 2] and not mask[2, 1]

    def test_operands_are_not_modified(self):
        a = np.arange(12.0).reshape(4, 3)[:, ::2]
        b = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        a0, b0 = a.copy(), b.copy()
        dominance_mask(a, b)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


# ---------------------------------------------------------------------- #
# Comparison codes + subspace table against the pairwise kernel
# ---------------------------------------------------------------------- #
def _table_bit(table, k, codes):
    """Subspace ``k``'s flags, read from ``table`` at ``codes``."""
    width = table.dtype.itemsize * 8
    return ((table[k // width][codes] >> (k % width)) & 1).astype(bool)


def _columns(mask, d):
    return [p for p in range(d) if (mask >> p) & 1]


@st.composite
def _coded_pairs(draw):
    """Row matrices over d in 1..6, exact duplicates planted, and a random
    subspace list — sometimes longer than one 64-bit table word."""
    d = draw(st.integers(1, 6))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    a = draw(arrays(np.float64, (n, d), elements=_VALUES))
    b = draw(arrays(np.float64, (m, d), elements=_VALUES))
    if n and m and draw(st.booleans()):
        b[draw(st.integers(0, m - 1))] = a[draw(st.integers(0, n - 1))]
    masks = draw(
        st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=140)
    )
    return a, b, masks


@given(case=_coded_pairs())
@example(case=(np.ones((2, 1)), np.ones((3, 1)), [0] * 33))  # a uint64 word
@settings(max_examples=150, deadline=None)
def test_property_subspace_table_equals_the_kernel_per_subspace(case):
    a, b, masks = case
    d = a.shape[1]
    codes = dominance_codes(a, b)
    assert codes.shape == (len(a), len(b))
    table = subspace_table(d, masks)
    width = table.dtype.itemsize * 8
    assert table.shape == (-(-len(masks) // width), 4**d)
    assert width == 64 or len(masks) <= width
    for k, mask in enumerate(masks):
        cols = _columns(mask, d)
        want = dominance_mask(a[:, cols], b[:, cols])
        np.testing.assert_array_equal(_table_bit(table, k, codes), want)
    if len(masks) <= 64:
        word = table[0]
        bits = subspace_matrix(a, b, word)
        np.testing.assert_array_equal(bits, word[codes])
        np.testing.assert_array_equal(
            subspace_union(a, b, word), np.bitwise_or.reduce(bits, axis=0)
        )
        gate = np.arange(len(a), dtype=np.int64) * 0x5A5A
        # The gate applies in the word's own width (uint32, or uint64
        # past 32 masks), as ``subspace_union`` documents.
        np.testing.assert_array_equal(
            subspace_union(a, b, word, gate),
            np.bitwise_or.reduce(bits & gate.astype(word.dtype)[:, None], axis=0),
        )


@given(case=_coded_pairs())
@settings(max_examples=60, deadline=None)
def test_property_codes_pack_every_attribute_comparison(case):
    """Bit k is ``<=`` and bit d + k is ``<`` on attribute k."""
    a, b, _ = case
    d = a.shape[1]
    codes = dominance_codes(a, b)
    for k in range(d):
        le = a[:, None, k] <= b[None, :, k]
        lt = a[:, None, k] < b[None, :, k]
        np.testing.assert_array_equal((codes >> k) & 1, le)
        np.testing.assert_array_equal((codes >> (d + k)) & 1, lt)


class TestCodeEdges:
    def test_code_widths(self):
        assert dominance_codes(np.zeros((1, 4)), np.zeros((1, 4))).dtype == np.uint8
        assert dominance_codes(np.zeros((1, 8)), np.zeros((1, 8))).dtype == np.uint16
        with pytest.raises(ValueError, match="at most"):
            dominance_codes(np.zeros((1, MAX_CODE_DIMS + 1)), np.zeros((1, MAX_CODE_DIMS + 1)))

    def test_table_word_widths_and_cache(self):
        assert subspace_table(2, [1, 2, 3]).dtype == np.uint8
        assert subspace_table(3, list(range(1, 8)) * 2).dtype == np.uint16
        assert subspace_table(3, list(range(1, 8)) * 4).dtype == np.uint32
        wide = subspace_table(3, list(range(1, 8)) * 10)
        assert wide.dtype == np.uint64 and wide.shape == (2, 64)
        assert subspace_table(2, (1, 2, 3)) is subspace_table(2, [1, 2, 3])
        assert not subspace_table(2, [3]).flags.writeable

    def test_nan_neither_dominates_nor_is_dominated_on_any_subspace(self):
        pts = np.array([[np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]])
        codes = dominance_codes(pts, pts)
        word = subspace_table(2, [1, 2, 3])[0]
        bits = word[codes]
        # Row 0 takes part only on the NaN-free subspace {1} (bit 1).
        assert not (bits[0] & 0b101).any() and not (bits[:, 0] & 0b101).any()
        assert bits[0, 2] == 0b010 and bits[0, 1] == 0 and bits[1, 0] == 0
        assert bits[1, 2] == 0b111 and bits[2, 1] == 0

    def test_pair_blocks_cover_wide_inputs(self, monkeypatch):
        from repro.skyline import dominance

        monkeypatch.setattr(dominance, "_PAIR_BUDGET", 7)
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 4, (20, 3)) * 1.0, rng.integers(0, 4, (9, 3)) * 1.0
        word = subspace_table(3, [1, 3, 7])[0]
        want = word[dominance_codes(a, b)]
        np.testing.assert_array_equal(subspace_matrix(a, b, word), want)
        np.testing.assert_array_equal(
            subspace_union(a, b, word), np.bitwise_or.reduce(want, axis=0)
        )
