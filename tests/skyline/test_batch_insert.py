"""``SkylineWindow`` ≡ sequential BNL over a plain entry list.

Figure 10b is stated in sequential-BNL comparisons, so the window's
contract is the list-based loop below: every admission, eviction list
*and its order*, duplicate flag, final entry order **and charged
comparison count** of :meth:`SkylineWindow.insert`,
:meth:`SkylineWindow.insert_known_member` and
:meth:`SkylineWindow.insert_batch` must replay it exactly, for any
interleaving of scalar inserts and batches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
