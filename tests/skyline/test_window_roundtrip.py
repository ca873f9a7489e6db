"""Round-trip properties of the flat-array window (docs/ARCHITECTURE.md §14).

``dump_entries``/``load_entries`` is the frozen serialisation contract the
durability snapshots ride on.  The SoA rewrite must keep it exact through
every storage event the dump can straddle — geometric growth, tombstoned
rows, deferred compaction, hash-collision key scans — and through a real
journal checkpoint/resume.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.durability import resume_run
from repro.errors import QueryCancelled
from repro.query.workload import subspace_workload
from repro.skyline.window import SkylineWindow


class Collider:
    """Hashable key whose hash is constant: every instance collides.

    Forces the hash-column fast path of ``remove_key`` to fall through to
    the key side table, the worst case for the SoA layout.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: int) -> None:
        self.payload = payload

    def __hash__(self) -> int:
        return 7

    def __eq__(self, other) -> bool:
        return isinstance(other, Collider) and self.payload == other.payload

    def __repr__(self) -> str:
        return f"Collider({self.payload})"


def window_state(window: SkylineWindow):
    return (
        list(window.keys),
        window.vectors.tolist(),
        len(window),
        [(e.key, e.vector.tolist()) for e in window],
    )


def roundtrip(window: SkylineWindow) -> SkylineWindow:
    keys, rows = window.dump_entries()
    fresh = SkylineWindow(dims=window.dims)
    fresh.load_entries(keys, rows)
    return fresh


@st.composite
def window_scripts(draw):
    """A script of inserts and removals over grid-valued points.

    Grid values provoke dominance chains (mass evictions → tombstones)
    and the script lengths cross the initial capacity (16) so geometric
    growth boundaries are exercised; interleaved removals drive the
    deferred compaction threshold from both sides.
    """
    width = draw(st.integers(min_value=1, max_value=3))
    n_ops = draw(st.integers(min_value=0, max_value=60))
    ops = []
    for i in range(n_ops):
        if draw(st.booleans()):
            vec = draw(
                st.lists(
                    st.integers(0, 4).map(float),
                    min_size=width,
                    max_size=width,
                )
            )
            ops.append(("insert", i, vec))
        else:
            ops.append(("remove", draw(st.integers(0, max(i, 1))), None))
    return width, ops


def run_script(window: SkylineWindow, ops) -> None:
    for op, i, vec in ops:
        if op == "insert":
            window.insert(("k", i), np.asarray(vec))
        else:
            window.remove_key(("k", i))


class TestDumpLoadRoundTrip:
    @given(script=window_scripts())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_preserves_contents_and_order(self, script):
        width, ops = script
        window = SkylineWindow()
        run_script(window, ops)
        restored = roundtrip(window)
        assert window_state(restored) == window_state(window)
        # The dump is a fixed point: dumping the restored window again
        # yields byte-equal keys and rows.
        assert restored.dump_entries() == window.dump_entries()

    @given(script=window_scripts())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_midway_then_same_tail(self, script):
        """Dump/load at an arbitrary cut must not disturb later behaviour:
        the restored window and the original charge identical comparisons
        and evict identical keys for the remaining script."""
        width, ops = script
        cut = len(ops) // 2
        window = SkylineWindow()
        run_script(window, ops[:cut])
        restored = roundtrip(window)
        run_script(window, ops[cut:])
        run_script(restored, ops[cut:])
        assert window_state(restored) == window_state(window)

    def test_empty_window_roundtrip(self):
        window = SkylineWindow()
        keys, rows = window.dump_entries()
        assert keys == [] and rows == []
        restored = roundtrip(window)
        assert len(restored) == 0
        assert list(restored.keys) == []
        assert restored.vectors.shape[0] == 0
        # And an emptied window (everything evicted) dumps empty too.
        window.insert("a", np.array([1.0, 1.0]))
        window.insert("b", np.array([0.0, 0.0]))  # evicts "a"
        window.remove_key("b")
        assert window.dump_entries() == ([], [])

    def test_growth_boundary_roundtrip(self):
        # Mutually incomparable points: the window grows monotonically
        # through several capacity doublings (16 -> 32 -> 64).
        window = SkylineWindow()
        n = 50
        for i in range(n):
            window.insert(i, np.array([float(i), float(n - i)]))
        assert len(window) == n
        restored = roundtrip(window)
        assert window_state(restored) == window_state(window)

    def test_compaction_boundary_roundtrip(self):
        window = SkylineWindow()
        n = 40
        for i in range(n):
            window.insert(i, np.array([float(i), float(n - i)]))
        # Remove well past the dead-fraction threshold so at least one
        # deferred compaction fires mid-removal.
        for i in range(0, n, 2):
            assert window.remove_key(i)
        survivors = [i for i in range(n) if i % 2]
        assert list(window.keys) == survivors
        restored = roundtrip(window)
        assert window_state(restored) == window_state(window)
        assert restored.dead_fraction == 0.0


class TestCollidingKeys:
    def test_collision_safe_membership_and_removal(self):
        window = SkylineWindow()
        keys = [Collider(i) for i in range(24)]
        for i, key in enumerate(keys):
            window.insert(key, np.array([float(i), float(24 - i)]))
        assert all(window.contains_key(k) for k in keys)
        assert not window.contains_key(Collider(99))
        assert not window.remove_key(Collider(99))
        # Remove every third key; the hash column narrows to *all* rows
        # (constant hash), so the side table must settle each lookup.
        for key in keys[::3]:
            assert window.remove_key(key)
        survivors = [k for i, k in enumerate(keys) if i % 3]
        assert list(window.keys) == survivors
        restored = roundtrip(window)
        assert window_state(restored) == window_state(window)

    @given(payloads=st.lists(st.integers(0, 9), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_colliding_duplicates_fuzz(self, payloads):
        window = SkylineWindow()
        expected: "dict[Collider, list[float]]" = {}
        for n, p in enumerate(payloads):
            key = Collider(p)
            vec = [float(p), float(10 - p), float(n % 3)]
            if key in expected:
                window.remove_key(key)
                del expected[key]
            outcome = window.insert(key, np.asarray(vec))
            if outcome.admitted:
                expected[key] = vec
            for entry in outcome.evicted:
                expected.pop(entry.key, None)
        assert set(window.keys) == set(expected)
        restored = roundtrip(window)
        assert window_state(restored) == window_state(window)


class StopAfter:
    def __init__(self, n: int) -> None:
        self.remaining = n

    def is_cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0


class TestJournalResume:
    """Windows cross a real checkpoint (dump) and resume (load) intact."""

    @pytest.mark.parametrize("stop_at", [2, 9])
    def test_resume_restores_windows_bit_identically(self, tmp_path, stop_at):
        pair = generate_pair("independent", 80, 4, selectivity=0.06, seed=17)
        workload = subspace_workload(2, priority_scheme="uniform")
        contracts = {q.name: c2(scale=100.0) for q in workload}
        baseline = CAQE(CAQEConfig()).run(
            pair.left, pair.right, workload, contracts
        )
        journal_dir = tmp_path / f"stop-{stop_at}"
        config = CAQEConfig(
            enable_journal=True,
            journal_dir=str(journal_dir),
            checkpoint_every_regions=2,
        )
        with pytest.raises(QueryCancelled):
            CAQE(config).run(
                pair.left,
                pair.right,
                workload,
                contracts,
                cancel_token=StopAfter(stop_at),
            )
        resumed = resume_run(
            pair.left, pair.right, workload, contracts, config
        )
        assert (
            resumed.stats.skyline_comparisons
            == baseline.stats.skyline_comparisons
        )
        assert resumed.stats.elapsed == baseline.stats.elapsed
        assert resumed.stats.region_trace == baseline.stats.region_trace
        assert resumed.reported == baseline.reported
