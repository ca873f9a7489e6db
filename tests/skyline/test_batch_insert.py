"""``SkylineWindow`` ≡ sequential BNL over a plain entry list.

Figure 10b is stated in sequential-BNL comparisons, so the window's
contract is the list-based loop below: every admission, eviction list
*and its order*, duplicate flag, final entry order **and charged
comparison count** of :meth:`SkylineWindow.insert`,
:meth:`SkylineWindow.insert_known_member` and
:meth:`SkylineWindow.insert_batch` must replay it exactly, for any
interleaving of scalar inserts and batches.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline import window as window_module
from repro.skyline.dominance import ComparisonCounter
from repro.skyline.window import SkylineWindow


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and a != b


class ListBNL:
    """The oracle: block-nested-loop skyline maintenance, one point at a time."""

    def __init__(self):
        self.entries = []  # (key, vector) in admission order
        self.comparisons = 0

    def insert(self, key, point, known_member=False):
        """Returns ``(admitted, evicted keys in window order, duplicate)``."""
        vec = tuple(float(v) for v in point)
        first = next(
            (i for i, (_, w) in enumerate(self.entries) if _dominates(w, vec)),
            None,
        )
        # A plain insert stops at its first dominator; an admitted point and
        # a Theorem-1 "known member" scan the whole window.
        if known_member or first is None:
            self.comparisons += len(self.entries)
        else:
            self.comparisons += first + 1
        if first is not None:
            return False, [], False
        duplicate = any(w == vec for _, w in self.entries)
        evicted = [k for k, w in self.entries if _dominates(vec, w)]
        self.entries = [e for e in self.entries if not _dominates(vec, e[1])]
        self.entries.append((key, vec))
        return True, evicted, duplicate


@st.composite
def insert_cases(draw):
    """Points on a coarse grid (to provoke ties/dominance chains), a
    known-member flag per point, arbitrary segment cut points, and per
    segment whether it runs as one batch or as scalar inserts."""
    n = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=3))
    points = [
        np.array(
            draw(
                st.lists(
                    st.integers(0, 4).map(float),
                    min_size=width,
                    max_size=width,
                )
            )
        )
        for _ in range(n)
    ]
    known = [draw(st.booleans()) for _ in range(n)]
    cuts = sorted(
        draw(st.lists(st.integers(0, n), min_size=0, max_size=4, unique=True))
    )
    batched = [draw(st.booleans()) for _ in range(len(cuts) + 1)]
    return points, known, cuts, batched


def _run_window(points, known, cuts, batched, dims=None):
    """Drive a window segment by segment; one outcome triple per point."""
    counter = ComparisonCounter()
    window = SkylineWindow(dims=dims, counter=counter)
    outcomes = []
    bounds = [0, *cuts, len(points)]
    for (lo, hi), as_batch in zip(zip(bounds, bounds[1:]), batched):
        if hi <= lo:
            continue
        if as_batch:
            batch = window.insert_batch(
                list(range(lo, hi)),
                np.vstack(points[lo:hi]),
                known_member=np.array(known[lo:hi], dtype=bool),
            )
            results = [batch.outcome(j) for j in range(hi - lo)]
        else:
            results = [
                (window.insert_known_member if known[i] else window.insert)(
                    i, points[i]
                )
                for i in range(lo, hi)
            ]
        window.check_invariants()
        outcomes.extend(results)
    return window, counter, outcomes


def _assert_replays_oracle(points, known, window, counter, outcomes, dims=None):
    oracle = ListBNL()
    projected = [p if dims is None else p[list(dims)] for p in points]
    for i, got in enumerate(outcomes):
        admitted, evicted, duplicate = oracle.insert(i, projected[i], known[i])
        assert got.admitted == admitted, f"admission differs at {i}"
        assert got.duplicate == duplicate, f"duplicate flag differs at {i}"
        assert [e.key for e in got.evicted] == evicted, f"evictions at {i}"
        for entry in got.evicted:
            np.testing.assert_array_equal(entry.vector, projected[entry.key])
    assert window.keys == [k for k, _ in oracle.entries]
    assert [tuple(v) for v in window.vectors.tolist()] == [
        w for _, w in oracle.entries
    ]
    # Figure 10b bit-identity: same total charged comparisons.
    assert counter.comparisons == oracle.comparisons


@given(case=insert_cases())
@settings(max_examples=200, deadline=None)
def test_property_batch_equals_sequential(case):
    points, known, cuts, batched = case
    window, counter, outcomes = _run_window(points, known, cuts, batched)
    _assert_replays_oracle(points, known, window, counter, outcomes)
    # ... and so does the all-scalar drive of the same points.
    window, counter, outcomes = _run_window(points, known, [], [False])
    _assert_replays_oracle(points, known, window, counter, outcomes)


@given(case=insert_cases())
@settings(max_examples=60, deadline=None)
def test_property_batch_respects_subspace_projection(case):
    """A dims-restricted window compares the projected columns only."""
    points, known, cuts, batched = case
    wide = [np.concatenate([p, [float(i)]]) for i, p in enumerate(points)]
    dims = tuple(range(len(points[0]))) if points else (0,)
    window, counter, outcomes = _run_window(wide, known, cuts, batched, dims)
    _assert_replays_oracle(wide, known, window, counter, outcomes, dims)


def test_batch_on_empty_input_is_a_noop():
    # The 1-d empty array is what ``np.asarray([])`` yields;
    # ``reshape(0, -1)`` cannot infer a width for it.
    for empty in (np.empty((0, 2)), np.empty(0)):
        window = SkylineWindow()
        outcome = window.insert_batch([], empty)
        assert outcome.admitted.shape == (0,)
        assert outcome.duplicate.shape == (0,)
        assert outcome.evicted == []
        assert len(window) == 0


def test_batch_continues_from_existing_window():
    """A batch against a pre-populated window sees its entries."""
    counter = ComparisonCounter()
    window = SkylineWindow(counter=counter)
    window.insert("seed", np.array([1.0, 1.0]))
    counter.comparisons = 0
    outcome = window.insert_batch(
        ["a", "b"], np.array([[2.0, 2.0], [0.0, 0.0]])
    )
    assert not outcome.admitted[0]  # dominated by the seed entry
    assert outcome.admitted[1]
    assert [e.key for e in outcome.evicted[1]] == ["seed"]
    assert window.keys == ["b"]
    # "a" rejected at first dominator (1) + "b" admitted vs 1 entry (1).
    assert counter.comparisons == 2


# --------------------------------------------------------------------- #
# The block scan and the rescan of ``insert_batch`` (ARCHITECTURE §14.1):
# ``insert_cases`` draws at most 40 points, which one default-sized block
# swallows whole, so these drive the paths a long window takes.
# --------------------------------------------------------------------- #
def _small_blocks(first_block):
    """Scan one or two rows, then geometrically longer blocks, never the
    whole window at once."""
    return mock.patch.multiple(
        window_module,
        _FIRST_BLOCK=first_block,
        _BLOCK_GROWTH=2,
        _ONE_BLOCK_PAIRS=0,
    )


@pytest.mark.parametrize("first_block", [1, 2])
@given(case=insert_cases())
@settings(max_examples=120, deadline=None)
def test_property_multi_block_scan_equals_sequential(first_block, case):
    points, known, cuts, batched = case
    with _small_blocks(first_block):
        window, counter, outcomes = _run_window(points, known, cuts, batched)
    _assert_replays_oracle(points, known, window, counter, outcomes)


def _eviction_chain_case():
    """A tombstoned 60-row anti-chain and a 40-point batch in which an
    admission kills the recorded first dominator of later points.

    Window rows are ``W_i = (i, 100 - i)``, ``i`` in 0..69, every
    ``i % 7 == 3`` removed again (10 tombstones of 70 rows: below the
    compaction threshold).  ``(x, y)`` is dominated by exactly the live
    ``W_i`` with ``100 - y <= i <= x``.
    """
    counter = ComparisonCounter()
    window = SkylineWindow(counter=counter)
    for i in range(70):
        window.insert(("w", i), np.array([float(i), 100.0 - i]))
    for i in range(3, 70, 7):
        assert window.remove_key(("w", i))
    assert len(window) == 60 and 0.0 < window.dead_fraction < 0.5
    counter.comparisons = 0
    oracle = ListBNL()
    oracle.entries = [
        (("w", i), (float(i), 100.0 - i)) for i in range(70) if i % 7 != 3
    ]
    named = [
        # (point, known_member)
        ((10.0, 95.0), False),  # W_5..W_10: ahead of every death, no shift
        ((30.0, 60.0), False),  # admitted; evicts the live W_30..W_40
        ((45.0, 65.0), False),  # recorded W_35 dies -> rescan finds W_41
        ((39.0, 64.0), False),  # W_36..W_39 all die -> only (30, 60) is left
        ((60.0, 50.0), False),  # recorded W_50 lives: position shifts by 9
        ((44.0, 63.0), True),   # known member, dominator died: pays the window
        ((12.0, 95.0), True),   # known member, untouched dominator
        ((30.0, 60.0), False),  # equal to the admitted entry: a duplicate tie
        ((29.0, 60.0), False),  # admitted; evicts both (30, 60)s and W_29
        ((41.5, 62.0), False),  # W_41 only; two rounds of shifting behind it
    ]
    # One dominator each, spread over the whole window: W_i for (i+.5, 100.5-i).
    filler = [
        ((i + 0.5, 100.5 - i), i % 5 == 0) for i in range(1, 69, 2) if i % 7 != 3
    ]
    cases = named[:2] + filler[:10] + named[2:8] + filler[10:] + named[8:]
    points = [np.array(p) for p, _ in cases]
    known = [k for _, k in cases]
    return window, counter, oracle, points, known


@pytest.mark.parametrize("blocks", ["default", "small"])
def test_admission_that_kills_recorded_dominators_replays_bnl(blocks):
    window, counter, oracle, points, known = _eviction_chain_case()
    scans = []
    real_scan = window_module._first_dominators
    real_mask = window_module.dominance_mask

    def spy_scan(rows, pts):
        scans.append([])
        return real_scan(rows, pts)

    def spy_mask(rows, pts):
        scans[-1].append((len(rows), len(pts)))
        return real_mask(rows, pts)

    patches = [
        mock.patch.object(window_module, "_first_dominators", spy_scan),
        mock.patch.object(window_module, "dominance_mask", spy_mask),
    ]
    if blocks == "small":
        patches.append(_small_blocks(2))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        batch = window.insert_batch(
            [("b", i) for i in range(len(points))],
            np.vstack(points),
            known_member=np.array(known),
        )
    # The case reaches what it is for: the batch-start scan takes >= 3
    # blocks with fewer points in each, and the admission of (30, 60)
    # sends the 8 later points whose recorded dominator it killed back
    # over the survivors ((29, 60) kills W_29 only, which no later point
    # had recorded: a shift without a rescan).
    first_scan, rescan = scans
    assert len(first_scan) >= 3
    assert [m for _, m in first_scan] == sorted(
        (m for _, m in first_scan), reverse=True
    ) and first_scan[-1][1] < first_scan[0][1]
    assert rescan[0][1] == 8
    for i, point in enumerate(points):
        admitted, evicted, duplicate = oracle.insert(("b", i), point, known[i])
        got = batch.outcome(i)
        assert got.admitted == admitted, f"admission differs at {i}"
        assert got.duplicate == duplicate, f"duplicate flag differs at {i}"
        assert [e.key for e in got.evicted] == evicted, f"evictions at {i}"
    assert int(batch.admitted.sum()) == 3 and int(batch.duplicate.sum()) == 1
    assert window.keys == [k for k, _ in oracle.entries]
    assert [tuple(v) for v in window.vectors.tolist()] == [
        w for _, w in oracle.entries
    ]
    assert counter.comparisons == oracle.comparisons


def test_rejected_points_never_report_a_duplicate():
    """A window is a skyline: it holds no equal of a point that one of its
    entries dominates, so ``duplicate`` is False on every rejection —
    scalar, known-member and batch alike."""
    window = SkylineWindow()
    window.insert("a", np.array([1.0, 3.0]))
    window.insert("b", np.array([3.0, 1.0]))
    window.insert("b2", np.array([3.0, 1.0]))  # an admitted tie
    assert window.keys == ["a", "b", "b2"]
    for point in ([3.0, 3.0], [1.0, 4.0], [4.0, 1.0]):
        vec = np.array(point)
        for outcome in (
            window.insert("x", vec),
            window.insert_known_member("x", vec),
            window.insert_batch(["x"], vec[None, :]).outcome(0),
            window.insert_batch(
                ["x"], vec[None, :], known_member=np.array([True])
            ).outcome(0),
        ):
            assert not outcome.admitted
            assert outcome.duplicate is False
            assert outcome.evicted == []
    assert window.keys == ["a", "b", "b2"]


@given(case=insert_cases())
@settings(max_examples=60, deadline=None)
def test_property_only_admitted_points_tie(case):
    points, known, cuts, batched = case
    for drive in ((cuts, batched), ([], [False]), ([], [True])):
        _, _, outcomes = _run_window(points, known, *drive)
        assert not any(o.duplicate and not o.admitted for o in outcomes)


# --------------------------------------------------------------------- #
# Whole-batch rejection (ARCHITECTURE §14.1): a first live entry that
# dominates the batch's lower corner rejects every point at position 0,
# before any scan.
# --------------------------------------------------------------------- #
def _anti_chain_window(rows, tombstone_head):
    """Window over the 2-d anti-chain ``(i, 10 - i)``, ``i < rows``, with
    its physical row 0 optionally tombstoned (no compaction: one dead row
    of ``rows``)."""
    counter = ComparisonCounter()
    window = SkylineWindow(counter=counter)
    for i in range(rows):
        window.insert(("w", i), np.array([float(i), 10.0 - i]))
    if tombstone_head:
        assert window.remove_key(("w", 0))
        assert 0.0 < window.dead_fraction < 0.5
    counter.comparisons = 0
    return window, counter


def _oracle_of(window):
    oracle = ListBNL()
    oracle.entries = [
        (key, tuple(vec)) for key, vec in zip(window.keys, window.vectors.tolist())
    ]
    return oracle


def _insert_spied(window, points, known=None):
    scan = mock.Mock(wraps=window_module._first_dominators)
    with mock.patch.object(window_module, "_first_dominators", scan):
        batch = window.insert_batch(
            [("b", i) for i in range(len(points))],
            np.asarray(points, dtype=float),
            known_member=known,
        )
    return batch, scan.call_count


@pytest.mark.parametrize("tombstone_head", [False, True])
def test_head_dominating_the_corner_rejects_the_batch_unscanned(tombstone_head):
    window, counter = _anti_chain_window(6, tombstone_head)
    head = window.vectors[0]
    before = (window.keys, window.vectors, window.dead_fraction)
    # Every point sits above the head; the batch's corner is head + (0, .5),
    # which a tombstoned row 0 at (0, 10) does not dominate.
    offsets = ([0, 0.5], [3, 0.5], [0, 0.75], [2, 0.5])
    points = [head + np.asarray(offset) for offset in offsets]
    known = np.array([True, False, True, False])
    oracle = _oracle_of(window)
    batch, scans = _insert_spied(window, points, known)
    assert scans == 0
    assert not batch.admitted.any() and not batch.duplicate.any()
    assert batch.evicted == [[]] * len(points)
    after = (window.keys, window.vectors, window.dead_fraction)
    assert after[0] == before[0] and after[2] == before[2]
    np.testing.assert_array_equal(after[1], before[1])
    n_live = len(window)
    assert counter.comparisons == len(points) + (n_live - 1) * int(known.sum())
    for i, point in enumerate(points):
        assert oracle.insert(("b", i), point, known[i])[0] is False
    assert counter.comparisons == oracle.comparisons
    window.check_invariants()


@pytest.mark.parametrize(
    "case, offsets",
    [
        # The head ties the corner on every dimension: not strict.
        ("tie", [[0, 1], [1, 0], [2, 2]]),
        # A NaN corner compares False everywhere.
        ("nan", [[1, 1], [np.nan, 2]]),
        # The tombstoned row 0 at (0, 10) would dominate (0.5, 10); the
        # first live entry (1, 9) does not, and nothing live does.
        ("dead_row_0", [[-0.5, 1]]),
    ],
)
def test_a_corner_the_head_does_not_dominate_takes_the_full_path(case, offsets):
    window, counter = _anti_chain_window(6, tombstone_head=True)
    head = window.vectors[0]
    points = [head + np.asarray(offset, dtype=float) for offset in offsets]
    oracle = _oracle_of(window)
    batch, scans = _insert_spied(window, points)
    assert scans == 1
    for i, point in enumerate(points):
        admitted, evicted, duplicate = oracle.insert(("b", i), point)
        got = batch.outcome(i)
        assert (got.admitted, got.duplicate) == (admitted, duplicate)
        assert [e.key for e in got.evicted] == evicted
    assert window.keys == [k for k, _ in oracle.entries]
    assert counter.comparisons == oracle.comparisons
    window.check_invariants()


def test_an_empty_window_admits_the_batch_head():
    counter = ComparisonCounter()
    window = SkylineWindow(counter=counter)
    batch = window.insert_batch(["a", "b"], np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert batch.admitted.tolist() == [True, False]
    assert window.keys == ["a"] and counter.comparisons == 1


@st.composite
def head_offset_cases(draw):
    """A seeded window, then a batch drawn as offsets >= 0 from its head:
    one dimension lifted by 1 on every point makes the corner strict (the
    whole-batch rejection), no lift leaves ties (the full path).  The head
    row is optionally tombstoned first."""
    width = draw(st.integers(1, 3))

    def row(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=width, max_size=width))

    seed = [np.array(row(0, 4), dtype=float) for _ in range(draw(st.integers(1, 12)))]
    offsets = np.array(
        [row(0, 3) for _ in range(draw(st.integers(1, 20)))], dtype=float
    )
    lift = draw(st.none() | st.integers(0, width - 1))
    if lift is not None:
        offsets[:, lift] += 1.0
    known = np.array([draw(st.booleans()) for _ in offsets], dtype=bool)
    return seed, offsets, known, draw(st.booleans())


@given(case=head_offset_cases())
@settings(max_examples=120, deadline=None)
def test_property_batches_above_the_head_replay_bnl(case):
    seed, offsets, known, tombstone_head = case
    counter = ComparisonCounter()
    window = SkylineWindow(counter=counter)
    for i, point in enumerate(seed):
        window.insert(("s", i), point)
    if tombstone_head and len(window) > 1:
        window.remove_key(window.keys[0])
    counter.comparisons = 0
    oracle = _oracle_of(window)
    points = window.vectors[0] + offsets
    batch = window.insert_batch(
        [("b", i) for i in range(len(points))], points, known_member=known
    )
    window.check_invariants()
    for i, point in enumerate(points):
        admitted, evicted, duplicate = oracle.insert(("b", i), point, known[i])
        got = batch.outcome(i)
        assert (got.admitted, got.duplicate) == (admitted, duplicate), i
        assert [e.key for e in got.evicted] == evicted, i
    assert window.keys == [k for k, _ in oracle.entries]
    assert [tuple(v) for v in window.vectors.tolist()] == [
        w for _, w in oracle.entries
    ]
    assert counter.comparisons == oracle.comparisons
