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

Storage layout (docs/ARCHITECTURE.md §16) is a structure of arrays:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.skyline.dominance import ComparisonCounter, all_le_broadcast, dims_index

_INITIAL_CAPACITY = 16

#: Compact once dead rows outnumber this fraction of all physical rows.
#: 0.5 bounds wasted scan width at 2× the live window while keeping
#: compaction cost amortised O(1) per eviction.
_DEAD_FRACTION = 0.5

#: Shared read-only eviction list for batch rows that evicted nothing —
#: :meth:`SkylineWindow.insert_batch` assigns a fresh list at every
#: admission, so this sentinel is never mutated.
_NO_EVICTIONS: "list" = []


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
    #: strict dominance cannot discard an equal point).
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
        duplicate = bool(np.any(equal))
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
            return InsertOutcome(admitted=False, duplicate=duplicate)
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
        return InsertOutcome(admitted=True, evicted=evicted, duplicate=duplicate)

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
            return InsertOutcome(admitted=False, duplicate=bool(np.any(equal)))
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
        window contents *and charged comparison counts* — but the
        dominance structure is computed **once** per batch instead of once
        per insertion:

        * batch-vs-initial-window dominance/equality matrices are built in
          a single broadcast over the physical rows (tombstoned rows are
          zeroed out, so contiguous column slices stay valid all batch);
        * each *admission* adds one cached dominance row (the new entry
          against the whole batch), so the "does a window entry dominate
          point j" predicate is maintained incrementally — an evicted
          entry's dominance is always covered by its evictor (strict
          dominance is transitive through the eviction chain), which makes
          the predicate monotone and cache-safe;
        * all points up to the next admissible one are rejected wholesale:
          per-round work is boolean gathers over the rejected prefix, not
          a fresh ``(window × remaining × dims)`` float pass;
        * charges need entry *positions*, not physical rows, so a
          live-prefix rank column maps a first-dominator row to its rank
          among live rows (recomputed only on the rare old-row eviction).

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
        if known_member is None:
            known = np.zeros(m, dtype=bool)
        else:
            known = np.asarray(known_member, dtype=bool)
        n_rows = self._size
        width = mat.shape[1]
        if n_rows:
            window = self._store[:n_rows]
            entry_le0 = all_le_broadcast(window[:, None, :], mat[None, :, :], axis=2)
            new_le0 = all_le_broadcast(mat[None, :, :], window[:, None, :], axis=2)
            eq0 = entry_le0 & new_le0
            dom0 = entry_le0 & ~eq0
            alive0 = self._live[:n_rows].copy()
            if self._live_count != n_rows:
                dead = ~alive0
                dom0[dead] = False
                eq0[dead] = False
                new_le0[dead] = False
            has_dom = dom0.any(axis=0)
            # Rank among live rows per physical row (valid at live rows).
            live_rank = np.cumsum(alive0) - alive0
        else:
            window = np.empty((0, width))
            new_le0 = eq0 = dom0 = np.zeros((0, m), dtype=bool)
            alive0 = np.zeros(0, dtype=bool)
            has_dom = np.zeros(m, dtype=bool)
            live_rank = np.zeros(0, dtype=np.int64)
        n_old = self._live_count
        killed_rows: "list[int]" = []
        # Admitted batch entries still in the window (admission order) and
        # their cached dominance/equality rows over the whole batch, kept
        # in growable row-matrix buffers so per-round prefix reads are one
        # slice, not a Python-level stack of cached rows.
        cap = 8
        adm_pos = np.empty(cap, dtype=np.intp)
        adm_dom = np.empty((cap, m), dtype=bool)
        adm_eq = np.empty((cap, m), dtype=bool)
        n_adm = 0

        def batch_rows(vec: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            # One point against the batch: an (m, d) compare, no pairwise
            # cube — two calls beat the per-attribute kernel at this shape.
            le = (vec <= mat).all(axis=1)
            ge = (vec >= mat).all(axis=1)
            eq_row = le & ge
            return le & ~eq_row, eq_row

        total_charge = 0
        pos = 0
        while pos < m:
            n_w = n_old + n_adm
            if n_w == 0:
                # Empty window: the point enters for free.
                admitted[pos] = True
                dom_row, eq_row = batch_rows(mat[pos])
                adm_pos[0] = pos
                adm_dom[0] = dom_row
                adm_eq[0] = eq_row
                n_adm = 1
                np.logical_or(has_dom, dom_row, out=has_dom)
                pos += 1
                continue
            tail = has_dom[pos:]
            first = int(np.argmin(tail))
            if tail[first]:
                first = m - pos
            if first:
                if n_old:
                    dom_old = dom0[:, pos : pos + first]
                    dup = eq0[:, pos : pos + first].any(axis=0)
                    any_old = dom_old.any(axis=0)
                    first_old = live_rank[dom_old.argmax(axis=0)]
                else:
                    dup = np.zeros(first, dtype=bool)
                    any_old = np.zeros(first, dtype=bool)
                    first_old = np.zeros(first, dtype=np.intp)
                if n_adm:
                    dom_adm = adm_dom[:n_adm, pos : pos + first]
                    dup = dup | adm_eq[:n_adm, pos : pos + first].any(axis=0)
                    first_adm = dom_adm.argmax(axis=0) + n_old
                else:
                    first_adm = np.zeros(first, dtype=np.intp)
                # Every rejected point has an *alive* dominator (the
                # eviction-chain invariant), so the old-part position wins
                # when present and the admitted part covers the rest.
                firsts = np.where(any_old, first_old, first_adm)
                charges = np.where(known[pos : pos + first], n_w, firsts + 1)
                total_charge += int(charges.sum())
                duplicate[pos : pos + first] = dup
            j = pos + first
            if j >= m:
                break
            dom_row, eq_row = batch_rows(mat[j])
            admitted[j] = True
            dup_j = bool(eq0[:, j].any()) if n_old else False
            if not dup_j and n_adm:
                dup_j = bool(adm_eq[:n_adm, j].any())
            duplicate[j] = dup_j
            total_charge += n_w
            # Evictions in current-window order: surviving initial entries
            # (physical row order = original order) first, then admitted
            # ones (admission order).
            evs: "list[WindowEntry]" = []
            if n_old:
                kill_old = new_le0[:, j] & ~eq0[:, j]
                if kill_old.any():
                    kill_idx = np.flatnonzero(kill_old)
                    # Eviction report rows carry Python key objects.
                    # caqe-check: disable=CQ009
                    for i in kill_idx.tolist():
                        evs.append(WindowEntry(self._key_list[i], window[i].copy()))
                        killed_rows.append(i)
                    # Dead rows must stop dominating, tying and killing in
                    # later rounds — zero their cached columns and refresh
                    # the live-rank map (rare: old evictions only).
                    dom0[kill_idx] = False
                    eq0[kill_idx] = False
                    new_le0[kill_idx] = False
                    alive0[kill_idx] = False
                    n_old -= kill_idx.size
                    live_rank = np.cumsum(alive0) - alive0
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
                    adm_eq[:kept] = adm_eq[:n_adm][keep]
                    n_adm = kept
            evicted[j] = evs
            if n_adm == cap:
                cap *= 2
                grown_pos = np.empty(cap, dtype=np.intp)
                grown_pos[:n_adm] = adm_pos[:n_adm]
                grown_dom = np.empty((cap, m), dtype=bool)
                grown_dom[:n_adm] = adm_dom[:n_adm]
                grown_eq = np.empty((cap, m), dtype=bool)
                grown_eq[:n_adm] = adm_eq[:n_adm]
                adm_pos, adm_dom, adm_eq = grown_pos, grown_dom, grown_eq
            adm_pos[n_adm] = j
            adm_dom[n_adm] = dom_row
            adm_eq[n_adm] = eq_row
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
