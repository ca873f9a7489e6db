"""Tuple-level shared skyline evaluation over the min-max cuboid.

A :class:`SharedCuboidPlan` holds one incremental skyline window per cuboid
subspace.  Inserting (join-result) tuples walks the cuboid bottom-up:

* level-0 and unseeded nodes run a normal window insert;
* a node whose *child* subspace already admitted the tuple uses the
  Theorem 1 / Corollary 1 shortcut: under the DVA property the tuple is
  guaranteed to be in the parent skyline too, so the membership half of the
  scan is skipped and only evictions are checked.

This is exactly where the comparison sharing of Section 4.1 happens: a
dominance comparison along the shared dimensions is performed once at the
shared child instead of once per query; the saved work shows up directly in
the Figure 10b metric.

Each query ``Q_i`` reads its current candidate skyline from the window of
its full preference subspace ``P_i`` (a cuboid node by Definition 7,
condition 3).  Because skyline-over-join is non-monotonic, evictions are
reported so executors know which earlier candidates became invalid.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.errors import PlanError
from repro.plan.minmax_cuboid import MinMaxCuboid, build_minmax_cuboid
from repro.skyline.dominance import ComparisonCounter
from repro.skyline.window import SkylineWindow


class SharedCuboidPlan:
    """Shared multi-query skyline state for one workload."""

    def __init__(
        self,
        cuboid: MinMaxCuboid,
        attribute_order: "Sequence[str]",
        counter: "ComparisonCounter | None" = None,
        *,
        assume_dva: bool = True,
    ) -> None:
        self.cuboid = cuboid
        self.attribute_order = tuple(attribute_order)
        self.counter = counter
        #: When False the Theorem 1 shortcut is disabled and every node runs
        #: a full membership scan (correct for data violating DVA).
        self.assume_dva = assume_dva
        table = cuboid.lattice.table
        missing = [d for d in table.dims if d not in self.attribute_order]
        if missing:
            raise PlanError(
                f"attribute order {self.attribute_order} lacks skyline dims {missing}"
            )
        positions = {d: self.attribute_order.index(d) for d in table.dims}
        self._windows: dict[int, SkylineWindow] = {}
        for mask in cuboid.masks:
            dims = tuple(positions[d] for d in table.names(mask))
            self._windows[mask] = SkylineWindow(dims=dims, counter=counter)
        self._query_mask = dict(cuboid.query_nodes)
        # Array-native walk plan (docs/ARCHITECTURE.md §14): each cuboid
        # node gets a position bit in a per-batch int64 "admitted bits"
        # column, and its Theorem-1 seeding test collapses to one AND
        # against the OR of its children's bits.
        self._node_bit = {
            mask: np.int64(1) << np.int64(p)
            for p, mask in enumerate(cuboid.masks)
        }
        self._walk: "list[tuple[int, SkylineWindow, np.int64, np.int64, np.int64]]" = []
        for mask in cuboid.masks:
            node = cuboid.node(mask)
            child_bits = np.int64(0)
            for child in node.children:
                child_bits |= self._node_bit[child]
            self._walk.append(
                (
                    mask,
                    self._windows[mask],
                    np.int64(node.qserve),
                    child_bits,
                    self._node_bit[mask],
                )
            )

    # ------------------------------------------------------------------ #
    def node_bit(self, mask: int) -> np.int64:
        """Position bit of a cuboid node in the admitted-bits column."""
        return self._node_bit[mask]

    def insert_batch_arrays(
        self,
        keys: "Sequence[Hashable]",
        vectors: np.ndarray,
        serve_masks: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, dict[int, dict[int, list]]]":
        """Insert a batch of tuples (full output vectors) bottom-up.

        Equivalent to walking the cuboid once per tuple, in batch order:
        the walk runs mask-outer/tuple-inner so each cuboid window absorbs
        its share of the batch in one :meth:`SkylineWindow.insert_batch`
        call — windows are independent, and the Theorem 1 seeding decision
        for a tuple at a parent node only reads that same tuple's
        admission at child nodes, which the bottom-up mask order has
        already produced.

        ``serve_masks`` carries one query-lineage mask per tuple (the CQL
        of Section 6): a tuple only touches cuboid nodes serving at least
        one of its queries — the paper's restriction of skyline
        comparisons to cells with intersecting lineage.  Skipping a node
        is sound because a tuple whose region cannot contribute to a query
        is provably dominated for that query's subspaces (see coarse
        skyline / discard steps), so omitting it never changes a final
        skyline.

        Returns one int64 **admitted-bits column** (row ``i`` has
        :meth:`node_bit` of every cuboid node that admitted tuple ``i``)
        plus a sparse per-mask ``{row: [evicted keys]}`` map.  The bits
        column fuses the whole maintenance kernel: Theorem-1 seeding is
        ``bits & child_bits``, the per-node admission scatter is one
        masked OR, and query-level reads downstream are one AND.
        Evictions can only be caused by admitted entries, so the eviction
        scatter is O(admissions), not O(batch × masks).
        """
        vecs = np.asarray(vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[1] != len(self.attribute_order):
            raise PlanError(
                f"batch has shape {vecs.shape}, plan expects "
                f"(n, {len(self.attribute_order)})"
            )
        n = len(keys)
        admitted_bits = np.zeros(n, dtype=np.int64)
        evicted_by_mask: "dict[int, dict[int, list]]" = {}
        if n == 0:
            return admitted_bits, evicted_by_mask
        # Object-array view of the keys: per-mask key gathers become one
        # C-level fancy index instead of a Python list comprehension.
        keys_arr = np.empty(n, dtype=object)
        keys_arr[:] = list(keys)
        serve = (
            np.asarray(serve_masks, dtype=np.int64)
            if serve_masks is not None
            else None
        )
        dva = self.assume_dva
        for mask, window, qserve, child_bits, posbit in self._walk:
            # ``idx`` lists the served rows; ``None`` when the node serves
            # the whole batch, which then goes in as it is, uncopied.
            idx = None
            sub_keys, sub_vecs, sub_bits = keys_arr, vecs, admitted_bits
            if serve is not None:
                idx = np.flatnonzero((serve & qserve) != 0)
                if idx.size == 0:
                    continue
                if idx.size == n:
                    idx = None
                else:
                    sub_keys = keys_arr[idx]
                    sub_vecs = vecs[idx]
                    sub_bits = admitted_bits[idx]
            known = (
                (sub_bits & child_bits) != 0 if dva and child_bits else None
            )
            outcome = window.insert_batch(sub_keys, sub_vecs, known_member=known)
            admitted = outcome.admitted
            if idx is None:
                admitted_bits[admitted] |= posbit
            else:
                admitted_bits[idx[admitted]] |= posbit
            evictions: "dict[int, list]" = {}
            for local in np.flatnonzero(admitted).tolist():
                entry_evictions = outcome.evicted[local]
                if entry_evictions:
                    row = local if idx is None else int(idx[local])
                    evictions[row] = [e.key for e in entry_evictions]
            if evictions:
                evicted_by_mask[mask] = evictions
        return admitted_bits, evicted_by_mask

    # ------------------------------------------------------------------ #
    # Query-level views
    # ------------------------------------------------------------------ #
    def query_mask(self, query_name: str) -> int:
        try:
            return self._query_mask[query_name]
        except KeyError:
            raise PlanError(f"no query named {query_name!r} in the shared plan") from None

    def window(self, mask: int) -> SkylineWindow:
        try:
            return self._windows[mask]
        except KeyError:
            raise PlanError(f"mask {mask:#x} is not a cuboid subspace") from None

    def current_skyline(self, query_name: str) -> "list[Hashable]":
        return self._windows[self.query_mask(query_name)].keys

    def is_candidate(self, query_name: str, key: Hashable) -> bool:
        return self._windows[self.query_mask(query_name)].contains_key(key)

    def window_sizes(self) -> "dict[int, int]":
        return {mask: len(window) for mask, window in self._windows.items()}


class WorkloadPlan:
    """Shared skyline plans for a workload with per-query selections.

    The min-max cuboid's comparison sharing presumes queries that differ
    *only* in their skyline dimensions (Section 4.1): window-level
    dominance between two tuples is only meaningful when both tuples are
    join results of the same queries (the CQL-intersection condition of
    Section 6).  This wrapper therefore partitions the workload into
    equivalence classes over ``(join condition, selections)`` and maintains
    one :class:`SharedCuboidPlan` per class — within a class every
    inserted tuple is a genuine join result of every class member, so
    evictions are always valid; across classes nothing is shared at the
    window level because nothing may be.  The paper's benchmark workloads
    collapse to a single class.
    """

    def __init__(
        self,
        cuboid: MinMaxCuboid,
        counter: "ComparisonCounter | None" = None,
        *,
        assume_dva: bool = True,
    ) -> None:
        workload = cuboid.workload
        self.workload = workload
        self.query_bits = {q.name: i for i, q in enumerate(workload)}
        groups: dict[tuple, list[str]] = {}
        for query in workload:
            signature = (
                query.join_condition.name,
                query.left_filters,
                query.right_filters,
            )
            groups.setdefault(signature, []).append(query.name)
        self._groups: list[dict] = []
        self._group_of: dict[str, dict] = {}
        for names in groups.values():
            # One group holds every query in workload order: its cuboid is
            # the run's own.
            sub_cuboid = (
                cuboid
                if len(groups) == 1
                else build_minmax_cuboid(workload.subset(names))
            )
            plan = SharedCuboidPlan(
                sub_cuboid,
                workload.output_dims,
                counter=counter,
                assume_dva=assume_dva,
            )
            local_bit = {name: i for i, name in enumerate(names)}
            group = {
                "names": tuple(names),
                "plan": plan,
                # Local (sub-workload) bit per query name.
                "local_bit": local_bit,
                # When local numbering equals the global one (the common
                # single-group workload), global→local mask translation is
                # a single AND with the group's bit union.
                "identity_bits": all(
                    self.query_bits[name] == bit for name, bit in local_bit.items()
                ),
                "all_bits": np.int64(
                    sum(1 << bit for bit in local_bit.values())
                ),
            }
            self._groups.append(group)
            for name in names:
                self._group_of[name] = group

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def windows(self) -> "Iterator[SkylineWindow]":
        """Every cuboid window of every group, in group then mask order."""
        for group in self._groups:
            plan: SharedCuboidPlan = group["plan"]
            for mask in plan.cuboid.masks:
                yield plan.window(mask)

    def insert_batch_columnar(
        self,
        keys: "Sequence[Hashable]",
        vectors: np.ndarray,
        serve_masks: "np.ndarray | None" = None,
    ) -> "tuple[dict[str, np.ndarray], dict[str, list[Hashable]]]":
        """Insert a batch into every group its tuples' lineage touches.

        ``serve_masks`` uses *global* workload query bits (``None`` means
        every query); it is translated to each group's local numbering
        for :meth:`SharedCuboidPlan.insert_batch_arrays`.  The result is
        returned per *query*: a row-index array of this batch's
        admissions (rows into ``vectors``/``keys``) and a flat list of
        evicted keys.  Queries with no admissions/evictions are simply
        absent.  A tuple may share a cuboid node with queries outside its
        own lineage and evict their candidates there; admissions only
        count for queries the tuple actually serves.  Each query belongs
        to exactly one group, so the per-group results never need merging
        (docs/ARCHITECTURE.md §11).
        """
        vecs = np.asarray(vectors, dtype=float)
        n = len(keys)
        admitted_rows: "dict[str, np.ndarray]" = {}
        evicted_keys: "dict[str, list[Hashable]]" = {}
        if n == 0:
            return admitted_rows, evicted_keys
        serve = (
            np.asarray(serve_masks, dtype=np.int64)
            if serve_masks is not None
            else None
        )
        for group in self._groups:
            if serve is None:
                local_masks = np.full(n, group["all_bits"], dtype=np.int64)
            elif group["identity_bits"]:
                # Single-group workloads: global bits *are* local bits.
                local_masks = serve & group["all_bits"]
            else:
                local_masks = np.zeros(n, dtype=np.int64)
                for name in group["names"]:
                    bit = np.int64(1) << group["local_bit"][name]
                    local_masks |= np.where(
                        (serve >> self.query_bits[name]) & 1, bit, np.int64(0)
                    )
            if not np.any(local_masks):
                continue
            plan: SharedCuboidPlan = group["plan"]
            admitted_bits, evicted_arr = plan.insert_batch_arrays(
                keys, vecs, local_masks
            )
            for name in group["names"]:
                mask = plan.query_mask(name)
                evictions = evicted_arr.get(mask)
                if evictions:
                    out = evicted_keys.setdefault(name, [])
                    for keys_out in evictions.values():
                        out.extend(keys_out)
                posbit = plan.node_bit(mask)
                bit = np.int64(1) << group["local_bit"][name]
                rows = np.flatnonzero(
                    ((admitted_bits & posbit) != 0)
                    & ((local_masks & bit) != 0)
                )
                if rows.size:
                    admitted_rows[name] = rows
        return admitted_rows, evicted_keys

    def is_candidate(self, query_name: str, key: Hashable) -> bool:
        return self._group_of[query_name]["plan"].is_candidate(query_name, key)

    def current_skyline(self, query_name: str) -> "list[Hashable]":
        return self._group_of[query_name]["plan"].current_skyline(query_name)


__all__ = ["SharedCuboidPlan", "WorkloadPlan"]
