"""Incremental skyline maintenance (the BNL window).

A :class:`SkylineWindow` holds the skyline of every point inserted so far
over one fixed subspace.  It is the building block shared by the BNL and
SFS algorithms, the full skycube, the min-max-cuboid shared plan and all
executors: inserting a point either rejects it (dominated by the current
window) or admits it, evicting any window entries it dominates.

Skyline-over-join queries are **non-monotonic** (Section 1.4): an admitted
point may invalidate previously admitted ones.  Evictions are therefore
reported back to the caller so progressive executors know which earlier
results became invalid.

Storage layout (docs/ARCHITECTURE.md §14) is a structure of arrays:

* ``_store`` — a growable float64 matrix whose row order *is* admission
  order (BNL charges depend on entry order, so the order is load-bearing);
* ``_key_hash`` — an int64 column of key hashes, with ``_key_list`` as the
  collision-safe side table holding the actual :class:`Hashable` keys;
* ``_live`` — liveness tombstones: an eviction only flips a bit.

Rows grow geometrically and evictions never move data; dead rows are
swept out by a deferred compaction that fires once the dead fraction
crosses ``_DEAD_FRACTION``.  Live rows in physical row order are exactly
the window's entries in admission order at all times — every public view
(``keys``, ``vectors``, iteration, :meth:`dump_entries`) reads that
sequence, so the layout is invisible to observables: charged comparison
counts, admissions, evictions and duplicate flags are bit-identical to a
naive entry-list implementation.

:meth:`SkylineWindow.insert_batch` skips work whose answer is known
before any scan: when the first live entry dominates the batch's lower
corner, it dominates every point (Theorem 1), so the batch is rejected
whole at the charge sequential BNL records — one comparison per plain
insert, the live window per known member — and the window is untouched.
:meth:`SkylineWindow.check_invariants` states the storage invariants and
the transitivity this shortcut and the batch replay rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.skyline.dominance import ComparisonCounter, dims_index, dominance_mask

_INITIAL_CAPACITY = 16

#: Compact once dead rows outnumber this fraction of all physical rows.
#: 0.5 bounds wasted scan width at 2× the live window while keeping
#: compaction cost amortised O(1) per eviction.
_DEAD_FRACTION = 0.5

#: Shared read-only eviction list for batch rows that evicted nothing —
#: :meth:`SkylineWindow.insert_batch` assigns a fresh list at every
#: admission, so this sentinel is never mutated.
_NO_EVICTIONS: "list" = []

#: The first-dominator scan of :meth:`SkylineWindow.insert_batch` reads the
#: live window in row blocks: ``_FIRST_BLOCK`` rows, then blocks
#: ``_BLOCK_GROWTH`` times longer each.  Sequential BNL stops a rejected
#: point at its first dominator and the executor's SFS presort puts that
#: dominator near the head of the window, so most of a batch leaves the
#: scan after the first block and the work tracks the charged comparisons
#: rather than ``window × batch``.
_FIRST_BLOCK = 8
_BLOCK_GROWTH = 4

#: A ``(live rows × batch)`` plane of at most this many pairs is scanned as
#: one block: below it the per-block NumPy call overhead costs more than
#: the pairs an early exit would save.
_ONE_BLOCK_PAIRS = 2048


def _first_dominators(window: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point, the position of the first ``window`` row dominating it
    (``-1`` when none does) — the row sequential BNL stops at.

    ``window`` rows are in window order; a point drops out of the scan at
    the block that holds its first dominator.
    """
    n, m = len(window), len(points)
    first = np.full(m, -1, dtype=np.intp)
    if n * m <= _ONE_BLOCK_PAIRS:
        if n and m:
            mask = dominance_mask(window, points)
            np.copyto(first, mask.argmax(axis=0), where=mask.any(axis=0))
        return first
    active = np.arange(m)
    lo, size = 0, _FIRST_BLOCK
    while lo < n and active.size:
        mask = dominance_mask(window[lo : lo + size], points)
        hit = mask.any(axis=0)
        if hit.any():
            first[active[hit]] = mask.argmax(axis=0)[hit] + lo
            active = active[~hit]
            points = points[~hit]
        lo += size
        size *= _BLOCK_GROWTH
    return first


def _dominated_and_equal(
    point: np.ndarray, columns: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Which entries the point dominates, and which it equals.

    ``columns`` is attribute-major — ``(d, n)`` and contiguous, one column
    per entry — so each reduce runs over the short leading axis in long
    contiguous strides; the row-major ``(n, d)`` form reduces ``n`` rows
    of ``d`` values one at a time and costs 3–5× more from a few hundred
    entries on.  One point against many: there is no pairwise cube here.
    """
    point = point[:, None]
    le = (point <= columns).all(axis=0)
    equal = le & (point >= columns).all(axis=0)
    return le & ~equal, equal


@dataclass(frozen=True, slots=True)
class WindowEntry:
    """A point kept in the window plus its caller-supplied identity."""

    key: Hashable
    vector: np.ndarray  # values over the window's subspace only


@dataclass
class InsertOutcome:
    """Result of one :meth:`SkylineWindow.insert` call."""

    admitted: bool
    evicted: "list[WindowEntry]" = field(default_factory=list)
    #: True when an identical vector was already present (ties are kept:
    #: strict dominance cannot discard an equal point).  Only an admitted
    #: point can tie: the window is a skyline, so it holds no equal of a
    #: point one of its entries dominates.
    duplicate: bool = False


@dataclass
class BatchInsertOutcome:
    """Result of one :meth:`SkylineWindow.insert_batch` call.

    Index ``i`` of every field describes what a sequential
    :meth:`SkylineWindow.insert` of batch element ``i`` would have done —
    the batch form is an execution strategy, not a semantic change.
    """

    admitted: np.ndarray  # bool per batch element
    evicted: "list[list[WindowEntry]]"
    duplicate: np.ndarray  # bool per batch element

    def outcome(self, i: int) -> InsertOutcome:
        """The equivalent scalar :class:`InsertOutcome` of element ``i``."""
        return InsertOutcome(
            admitted=bool(self.admitted[i]),
            evicted=list(self.evicted[i]),
            duplicate=bool(self.duplicate[i]),
        )


class SkylineWindow:
    """Skyline of all inserted points over a fixed list of dimensions."""

    __slots__ = (
        "dims", "counter", "_dims_index", "_store", "_key_hash", "_live",
        "_key_list", "_keyset", "_size", "_live_count",
    )

    def __init__(
        self,
        dims: "Sequence[int] | None" = None,
        counter: "ComparisonCounter | None" = None,
    ) -> None:
        #: Column indices (into the full point vector) this window compares;
        #: ``None`` means the full space.
        self.dims = tuple(dims) if dims is not None else None
        self._dims_index = dims_index(self.dims) if self.dims is not None else None
        self.counter = counter
        #: Flat columns; ``None`` until the first admission sizes the width.
        self._store: "np.ndarray | None" = None
        self._key_hash: "np.ndarray | None" = None
        self._live: "np.ndarray | None" = None
        #: Side table resolving key-hash collisions: the actual key object
        #: per physical row (stale at dead rows until compaction).
        self._key_list: list[Hashable] = []
        # Live keys for O(1) membership tests; window keys are unique
        # result identities, so a set tracks the live rows exactly.
        self._keyset: set = set()
        #: Physical rows in use (live + tombstoned).
        self._size = 0
        #: Live rows only — the window size every charge is based on.
        self._live_count = 0

    # ------------------------------------------------------------------ #
    # Storage plumbing (never charges a comparison)
    # ------------------------------------------------------------------ #
    def _project(self, point: np.ndarray) -> np.ndarray:
        vec = np.asarray(point, dtype=float)
        if self._dims_index is not None:
            vec = vec[self._dims_index]
        return vec

    def _ensure_capacity(self, width: int, needed: int) -> None:
        if self._store is None:
            capacity = _INITIAL_CAPACITY
            while capacity < needed:
                capacity *= 2
            self._store = np.empty((capacity, width))
            self._key_hash = np.empty(capacity, dtype=np.int64)
            self._live = np.zeros(capacity, dtype=bool)
        elif needed > len(self._store):
            capacity = len(self._store)
            while capacity < needed:
                capacity *= 2
            for name in ("_store", "_key_hash", "_live"):
                old = getattr(self, name)
                shape = (capacity, width) if old.ndim == 2 else (capacity,)
                grown = np.zeros(shape, dtype=old.dtype)
                grown[: self._size] = old[: self._size]
                setattr(self, name, grown)

    def _append(self, key: Hashable, vec: np.ndarray) -> None:
        self._ensure_capacity(len(vec), self._size + 1)
        row = self._size
        self._store[row] = vec
        self._key_hash[row] = hash(key)
        self._live[row] = True
        self._key_list.append(key)
        self._keyset.add(key)
        self._size += 1
        self._live_count += 1

    def _append_rows(self, keys: "list[Hashable]", rows: np.ndarray) -> None:
        """Bulk append of already-projected live rows (batch commit)."""
        k = len(keys)
        if k == 0:
            return
        self._ensure_capacity(rows.shape[1], self._size + k)
        sl = slice(self._size, self._size + k)
        self._store[sl] = rows
        self._key_hash[sl] = [hash(key) for key in keys]
        self._live[sl] = True
        self._key_list.extend(keys)
        self._keyset.update(keys)
        self._size += k
        self._live_count += k

    def _evict_rows(self, rows: np.ndarray) -> "list[WindowEntry]":
        """Tombstone live rows (ascending row order = window order)."""
        # Key side-table walk: eviction reports carry Python key objects.
        # caqe-check: disable=CQ009
        removed = [
            WindowEntry(self._key_list[i], self._store[i].copy())
            for i in rows.tolist()
        ]
        self._live[rows] = False
        self._live_count -= len(removed)
        for entry in removed:
            self._keyset.discard(entry.key)
        return removed

    def _maybe_compact(self) -> None:
        """Sweep tombstones once the dead fraction crosses the threshold.

        Invariants: live rows keep their relative order (admission order),
        no comparison is charged, and no public view can tell a compacted
        window from an uncompacted one.
        """
        dead = self._size - self._live_count
        if dead == 0 or dead <= int(self._size * _DEAD_FRACTION):
            return
        if self._live_count == 0:
            self._size = 0
            self._key_list = []
            return
        live_idx = np.flatnonzero(self._live[: self._size])
        k = live_idx.size
        self._store[:k] = self._store[live_idx]
        self._key_hash[:k] = self._key_hash[live_idx]
        self._live[: self._size] = False
        self._live[:k] = True
        # Key side-table sweep (Python objects; no column data reboxed).
        # caqe-check: disable=CQ009
        self._key_list = [self._key_list[i] for i in live_idx.tolist()]
        self._size = k

    def _replace_all(self, keys: "list[Hashable]", rows: np.ndarray) -> None:
        """Swap in a complete new window (checkpoint restore)."""
        self._size = 0
        self._live_count = 0
        self._key_list = []
        self._keyset = set()
        if self._live is not None:
            self._live[:] = False
        if len(keys):
            self._append_rows(list(keys), np.asarray(rows, dtype=float))

    def _live_index(self) -> np.ndarray:
        return np.flatnonzero(self._live[: self._size])

    # ------------------------------------------------------------------ #
    def insert(self, key: Hashable, point: np.ndarray) -> InsertOutcome:
        """Try to add ``point``; returns admission status and evictions."""
        vec = self._project(point)
        if self._live_count == 0:
            self._maybe_compact()
            self._append(key, vec)
            return InsertOutcome(admitted=True)
        n_rows = self._size
        window = self._store[:n_rows]
        entry_le = np.all(window <= vec, axis=1)
        new_le = np.all(vec <= window, axis=1)
        compact = self._live_count == n_rows
        if not compact:
            live = self._live[:n_rows]
            entry_le &= live
            new_le &= live
        equal = entry_le & new_le
        dominators = entry_le & ~equal
        if np.any(dominators):
            # Sequential BNL stops at the first dominating entry; the
            # charge is its position among *live* rows (entry order).
            if self.counter is not None:
                row = int(np.argmax(dominators))
                position = (
                    row if compact
                    else int(np.count_nonzero(self._live[:row]))
                )
                self.counter.record(position + 1)
            return InsertOutcome(admitted=False)
        if self.counter is not None:
            self.counter.record(self._live_count)
        dominated = new_le & ~equal
        evicted = (
            self._evict_rows(np.flatnonzero(dominated))
            if np.any(dominated)
            else []
        )
        self._maybe_compact()
        self._append(key, vec)
        return InsertOutcome(
            admitted=True, evicted=evicted, duplicate=bool(np.any(equal))
        )

    def insert_known_member(self, key: Hashable, point: np.ndarray) -> InsertOutcome:
        """Insert a point expected to belong to this skyline (Theorem 1).

        The sharing shortcut of Theorem 1 / Corollary 1: a point in a child
        subspace's skyline is — under the DVA property — guaranteed to be in
        the parent's skyline, so the scan never needs to stop early to hunt
        for a dominator.  The full scan performed for evictions verifies the
        claim as a side effect at no extra comparison cost, so the method
        stays *correct* even when DVA does not hold (duplicate attribute
        values): a genuinely dominated point is rejected, exactly like
        :meth:`insert`, just without the early-termination discount.
        """
        vec = self._project(point)
        if self._live_count == 0:
            self._maybe_compact()
            self._append(key, vec)
            return InsertOutcome(admitted=True)
        if self.counter is not None:
            self.counter.record(self._live_count)
        n_rows = self._size
        window = self._store[:n_rows]
        entry_le = np.all(window <= vec, axis=1)
        new_le = np.all(vec <= window, axis=1)
        if self._live_count != n_rows:
            live = self._live[:n_rows]
            entry_le &= live
            new_le &= live
        equal = entry_le & new_le
        if bool(np.any(entry_le & ~equal)):
            # DVA violated: the "guaranteed member" is actually dominated.
            return InsertOutcome(admitted=False)
        dominated = new_le & ~equal
        evicted = (
            self._evict_rows(np.flatnonzero(dominated))
            if np.any(dominated)
            else []
        )
        self._maybe_compact()
        self._append(key, vec)
        return InsertOutcome(
            admitted=True, evicted=evicted, duplicate=bool(np.any(equal))
        )

    # ------------------------------------------------------------------ #
    def insert_batch(
        self,
        keys: "Sequence[Hashable]",
        matrix: np.ndarray,
        known_member: "np.ndarray | None" = None,
    ) -> BatchInsertOutcome:
        """Insert many points at once, preserving sequential-BNL semantics.

        Equivalent to calling :meth:`insert` (or, where ``known_member[i]``
        is True, :meth:`insert_known_member`) once per batch element in
        order — identical admissions, evictions, duplicate flags, final
        window contents *and charged comparison counts* — but it does the
        work sequential BNL is charged for, not a ``(window × batch)``
        plane (docs/ARCHITECTURE.md §14.1):

        * a batch whose lower corner the first live entry dominates is
          rejected whole, before any scan: every point stops at position
          0, so the charge is ``m + (n_live - 1) * #known_member``;
        * the batch runs against the *live* rows only, addressed by their
          position in window order — the unit a charge is stated in;
        * per point, :func:`_first_dominators` finds the position of its
          first live dominator and stops looking there.  A point without
          one is the only kind that can be admitted: a dominator that dies
          mid-batch is covered by its evictor (strict dominance is
          transitive through the eviction chain), so "has a dominator" is
          monotone;
        * each *admission* compares the new entry once against the live
          window (what it evicts, whether it ties) and the batch (the
          cached dominance row that tells later points about it, ties
          with earlier admissions) — nothing is computed for a point that is rejected beyond
          the position it is charged for, and its ``duplicate`` flag is
          the constant False (a skyline holds no equal of a dominated
          point);
        * all points up to the next admissible one are rejected wholesale
          with one vectorised charge;
        * when an admission evicts initial rows, the positions recorded
          for later points shift down past the dead rows, and the few
          whose recorded dominator just died rescan the survivors.

        Commits are pure column writes: old-row evictions flip tombstones,
        surviving admissions append in admission order — no entry objects,
        no key-list rebuild, no matrix reallocation beyond amortised
        geometric growth.
        """
        m = len(keys)
        admitted = np.zeros(m, dtype=bool)
        duplicate = np.zeros(m, dtype=bool)
        # Eviction lists are written only at admissions, so rejected rows
        # can all share one immutable empty list (callers never mutate
        # outcome rows; ``outcome`` copies).
        evicted = [_NO_EVICTIONS] * m
        if m == 0:
            return BatchInsertOutcome(admitted, evicted, duplicate)
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2:
            mat = mat.reshape(m, -1)
        if self._dims_index is not None:
            mat = mat[:, self._dims_index]
        known = (
            None if known_member is None
            else np.asarray(known_member, dtype=bool)
        )
        n_old = self._live_count
        if n_old:
            # Whole-batch rejection: a head entry dominating the batch's
            # lower corner dominates every point (Theorem 1), so a plain
            # insert stops at position 0 and a known member pays the live
            # window; nothing is admitted, the window is untouched.  A NaN
            # corner compares False and falls through.
            head = self._store[
                0 if n_old == self._size
                else int(np.argmax(self._live[: self._size]))
            ]
            # Reduced column-major: over a C-ordered (m, d) batch the
            # reduction runs a d-long inner loop per row, ~6x slower at
            # m = 800.
            corner = np.asfortranarray(mat).min(axis=0)
            if (head <= corner).all() and (head < corner).any():
                if self.counter is not None:
                    n_known = 0 if known is None else int(known.sum())
                    self.counter.record(m + (n_old - 1) * n_known)
                return BatchInsertOutcome(admitted, evicted, duplicate)
        # Surviving initial entries in window order; ``live_rows`` maps a
        # position to its physical row (``None``: they coincide).
        live_rows = None if n_old == self._size else self._live_index()
        if n_old:
            window = (
                self._store[:n_old] if live_rows is None
                else self._store[live_rows]
            )
            # Position of each point's first dominator among them (-1:
            # none left; only admitted batch entries can reject it).
            first_pos = _first_dominators(window, mat)
            has_dom = first_pos >= 0
        else:
            window = None
            first_pos = np.full(m, -1, dtype=np.intp)
            has_dom = np.zeros(m, dtype=bool)
        killed_rows: "list[int]" = []
        # Admitted batch entries still in the window (admission order) and
        # their cached dominance rows over the whole batch, kept in a
        # growable row-matrix buffer so per-round prefix reads are one
        # slice, not a Python-level stack of cached rows.
        cap = 8
        adm_pos = np.empty(cap, dtype=np.intp)
        adm_dom = np.empty((cap, m), dtype=bool)
        n_adm = 0
        # What an admission is compared against — the surviving initial
        # entries, then the whole batch — attribute-major; built at the
        # first admission and again after initial entries die.
        columns = None

        total_charge = 0
        pos = 0
        while pos < m:
            n_w = n_old + n_adm
            tail = has_dom[pos:]
            first = int(np.argmin(tail))
            if tail[first]:
                first = m - pos
            j = pos + first
            if first:
                # Every rejected point has an *alive* dominator (the
                # eviction-chain invariant): the recorded initial entry
                # when there is one, else the first admitted entry.
                firsts = first_pos[pos:j]
                if n_adm:
                    uncovered = firsts < 0
                    if uncovered.any():
                        firsts = np.where(
                            uncovered,
                            adm_dom[:n_adm, pos:j].argmax(axis=0) + n_old,
                            firsts,
                        )
                if known is None:
                    total_charge += int(firsts.sum()) + first
                else:
                    total_charge += int(
                        np.where(known[pos:j], n_w, firsts + 1).sum()
                    )
            if j >= m:
                break
            if columns is None:
                columns = np.ascontiguousarray(
                    (np.concatenate((window, mat)) if n_old else mat).T
                )
            dominated, equal = _dominated_and_equal(mat[j], columns)
            dom_row = dominated[n_old:]
            admitted[j] = True
            total_charge += n_w
            # A tie with a surviving initial entry or a live admitted one.
            duplicate[j] = (
                equal[:n_old].any() or equal[n_old:][adm_pos[:n_adm]].any()
            )
            # Evictions in current-window order: surviving initial entries
            # (window order) first, then admitted ones (admission order).
            evs: "list[WindowEntry]" = []
            if n_old:
                kill_old = dominated[:n_old]
                if kill_old.any():
                    kill_at = np.flatnonzero(kill_old)
                    rows = kill_at if live_rows is None else live_rows[kill_at]
                    killed_rows.extend(rows.tolist())
                    # Eviction report rows carry Python key objects.
                    # caqe-check: disable=CQ009
                    evs = [
                        WindowEntry(self._key_list[i], point)
                        for i, point in zip(rows.tolist(), window[kill_at])
                    ]
                    # The dead rows leave the position space: later
                    # points' recorded positions shift down past them, and
                    # a point whose recorded dominator just died rescans
                    # the survivors (rows ahead of the record never
                    # dominated it, so the scan lands behind it or
                    # nowhere; ``has_dom`` holds either way — the evictor
                    # dominates whatever its victim dominated).
                    keep = ~kill_old
                    live_rows = (
                        np.flatnonzero(keep) if live_rows is None
                        else live_rows[keep]
                    )
                    window = window[keep]
                    columns = None
                    n_old -= kill_at.size
                    later = first_pos[j + 1 :]
                    covered = np.flatnonzero(later >= 0)
                    at = later[covered]
                    later[covered] = at - np.cumsum(kill_old)[at]
                    orphans = covered[kill_old[at]]
                    if orphans.size:
                        later[orphans] = _first_dominators(
                            window, mat[j + 1 :][orphans]
                        )
            if n_adm:
                kill_adm = dom_row[adm_pos[:n_adm]]
                if kill_adm.any():
                    # caqe-check: disable=CQ009
                    evs.extend(
                        WindowEntry(keys[p], mat[p].copy())
                        for p in adm_pos[:n_adm][kill_adm].tolist()
                    )
                    keep = ~kill_adm
                    kept = int(keep.sum())
                    adm_pos[:kept] = adm_pos[:n_adm][keep]
                    adm_dom[:kept] = adm_dom[:n_adm][keep]
                    n_adm = kept
            evicted[j] = evs
            if n_adm == cap:
                cap *= 2
                grown_pos = np.empty(cap, dtype=np.intp)
                grown_pos[:n_adm] = adm_pos[:n_adm]
                grown_dom = np.empty((cap, m), dtype=bool)
                grown_dom[:n_adm] = adm_dom[:n_adm]
                adm_pos, adm_dom = grown_pos, grown_dom
            adm_pos[n_adm] = j
            adm_dom[n_adm] = dom_row
            n_adm += 1
            np.logical_or(has_dom, dom_row, out=has_dom)
            pos = j + 1
        if self.counter is not None and total_charge:
            self.counter.record(total_charge)
        # Column-only commit: tombstone evicted old rows, append surviving
        # admissions, sweep if the dead fraction crossed the threshold.
        if killed_rows:
            self._live[killed_rows] = False
            self._live_count -= len(killed_rows)
            for i in killed_rows:
                self._keyset.discard(self._key_list[i])
        if n_adm:
            final_adm = adm_pos[:n_adm]
            self._append_rows(
                # caqe-check: disable=CQ009
                [keys[a] for a in final_adm.tolist()],
                mat[final_adm],
            )
        self._maybe_compact()
        return BatchInsertOutcome(admitted, evicted, duplicate)

    # ------------------------------------------------------------------ #
    # Durability hooks (docs/ARCHITECTURE.md §10): snapshots capture the
    # window's exact entry order because BNL charges depend on it (a
    # rejected insert pays up to its *first* dominator).
    # ------------------------------------------------------------------ #
    def dump_entries(self) -> "tuple[list[Hashable], list[list[float]]]":
        """Window contents in entry order, as JSON-serialisable lists."""
        if self._live_count == self._size:
            keys = list(self._key_list)
            rows = self._store[: self._size].tolist() if self._size else []
        else:
            live_idx = self._live_index()
            # Serialisation boundary: keys/rows leave as Python objects.
            # caqe-check: disable=CQ009
            keys = [self._key_list[i] for i in live_idx.tolist()]
            rows = self._store[live_idx].tolist()
        return keys, rows

    def load_entries(
        self, keys: "Sequence[Hashable]", rows: "Sequence[Sequence[float]]"
    ) -> None:
        """Restore a dumped window verbatim — no comparisons are charged.

        Direct state injection for checkpoint recovery: the entries were
        already paid for when originally inserted, and the restored stats
        snapshot carries those charges.
        """
        if len(keys) != len(rows):
            raise ValueError("window restore: keys/rows length mismatch")
        if len(keys) == 0:
            self._replace_all([], np.empty((0, 0)))
            return
        self._replace_all(list(keys), np.asarray(rows, dtype=float))

    # ------------------------------------------------------------------ #
    def contains_key(self, key: Hashable) -> bool:
        return key in self._keyset

    def remove_key(self, key: Hashable) -> bool:
        """Drop an entry by identity (used when a result is retracted)."""
        if key not in self._keyset:
            return False
        # The hash column narrows the scan to colliding rows; the key side
        # table settles which of them actually holds the key.
        candidates = np.flatnonzero(
            (self._key_hash[: self._size] == hash(key))
            & self._live[: self._size]
        )
        # Collision scan over the key side table (usually one row).
        # caqe-check: disable=CQ009
        for row in candidates.tolist():
            if self._key_list[row] == key:
                self._evict_rows(np.asarray([row], dtype=np.intp))
                self._maybe_compact()
                return True
        return False

    @property
    def keys(self) -> "list[Hashable]":
        if self._live_count == self._size:
            return list(self._key_list)
        # caqe-check: disable=CQ009
        return [self._key_list[i] for i in self._live_index().tolist()]

    @property
    def vectors(self) -> np.ndarray:
        if self._live_count == 0:
            width = len(self.dims) if self.dims is not None else 0
            if self._store is not None:
                width = self._store.shape[1]
            return np.empty((0, width))
        if self._live_count == self._size:
            return self._store[: self._size].copy()
        return self._store[self._live_index()]

    @property
    def dead_fraction(self) -> float:
        """Tombstoned fraction of physical rows (compaction trigger gauge)."""
        if self._size == 0:
            return 0.0
        return (self._size - self._live_count) / self._size

    def check_invariants(self) -> None:
        """Check the columns against the entry sequence they encode;
        raises ``AssertionError`` on the first disagreement.

        * ``_live_count`` is the number of live rows, and no row at or
          past ``_size`` is live;
        * ``_keyset`` is exactly the live keys, and those are unique;
        * ``_key_hash`` holds ``hash(key)`` at every live row;
        * no live row dominates another over the window's dims.

        Batch replay (a dominator that dies is covered by its evictor)
        and the whole-batch rejection (the head dominates the lower
        corner, so it dominates every point) both assume that full
        dominance is transitive.  k-dominance is not (Awasthi et al.,
        PAPERS.md): a window kept under it could use neither shortcut.
        A test-side check, quadratic in the live rows.
        """

        def expect(condition: bool, message: str) -> None:
            if not condition:
                raise AssertionError(f"SkylineWindow{self.dims}: {message}")

        if self._store is None:
            expect(self._size == self._live_count == 0, "rows without storage")
            expect(not self._keyset, "keys without storage")
            return
        expect(
            int(np.count_nonzero(self._live[: self._size])) == self._live_count,
            "_live_count != number of live rows",
        )
        expect(not self._live[self._size :].any(), "a live row past _size")
        expect(len(self._key_list) == self._size, "key side table != _size")
        live_idx = self._live_index()
        # caqe-check: disable=CQ009
        live_keys = [self._key_list[i] for i in live_idx.tolist()]
        expect(len(set(live_keys)) == len(live_keys), "duplicate live keys")
        expect(self._keyset == set(live_keys), "_keyset != live keys")
        expect(
            self._key_hash[live_idx].tolist() == [hash(k) for k in live_keys],
            "_key_hash != hash(key) on a live row",
        )
        rows = self._store[live_idx]
        a, b = rows[:, None, :], rows[None, :, :]
        dominates = (a <= b).all(axis=2) & (a < b).any(axis=2)
        expect(not dominates.any(), "a live row dominates another")

    def __len__(self) -> int:
        return self._live_count

    def __iter__(self) -> "Iterator[WindowEntry]":
        live_idx = self._live_index() if self._size else np.empty(0, np.intp)
        # caqe-check: disable=CQ009
        return (
            WindowEntry(self._key_list[i], self._store[i].copy())
            for i in live_idx.tolist()
        )

    def __repr__(self) -> str:
        return f"SkylineWindow(dims={self.dims}, size={self._live_count})"


__all__ = ["BatchInsertOutcome", "InsertOutcome", "SkylineWindow", "WindowEntry"]
