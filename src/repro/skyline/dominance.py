"""Tuple-level dominance tests (Definitions 1 and 2).

All tests use the paper's convention: attribute values are non-negative and
*smaller values are preferred*.  ``a`` dominates ``b`` over dimensions ``V``
iff ``a`` is no worse than ``b`` in every dimension of ``V`` and strictly
better in at least one.

Pairwise dominance comparisons are the CPU-cost unit the paper reports
(Figure 10b), so every function here takes an optional
:class:`ComparisonCounter` and charges exactly one comparison per invoked
pair test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class ComparisonCounter:
    """Counts pairwise dominance comparisons (the paper's CPU metric)."""

    comparisons: int = 0
    #: Optional callback invoked with the increment, letting the virtual
    #: clock charge time for each comparison without a hard dependency.
    on_increment: "callable | None" = field(default=None, repr=False)

    def record(self, count: int = 1) -> None:
        self.comparisons += count
        if self.on_increment is not None:
            self.on_increment(count)


class Dominance(enum.Enum):
    """Outcome of a single pairwise comparison."""

    LEFT = "left"                  # a dominates b
    RIGHT = "right"                # b dominates a
    EQUAL = "equal"                # identical over the compared dims
    INCOMPARABLE = "incomparable"  # each better somewhere


#: Reusable index arrays per dims tuple — ``_subspace`` runs once per pair
#: test, so rebuilding ``list(dims)`` and re-running ``np.asarray`` on every
#: call dominates the cost of the comparison itself.
_DIMS_INDEX_CACHE: "dict[tuple[int, ...], np.ndarray]" = {}


def dims_index(dims: "Sequence[int]") -> np.ndarray:
    """A cached ``np.intp`` index array for one subspace's dimensions."""
    key = tuple(dims)
    index = _DIMS_INDEX_CACHE.get(key)
    if index is None:
        index = np.asarray(key, dtype=np.intp)
        _DIMS_INDEX_CACHE[key] = index
    return index


def _subspace(point: np.ndarray, dims: "Sequence[int] | None") -> np.ndarray:
    vec = np.asarray(point, dtype=float)
    if dims is None:
        return vec
    return vec[dims_index(dims)]


def compare(
    a: np.ndarray,
    b: np.ndarray,
    dims: "Sequence[int] | None" = None,
    counter: "ComparisonCounter | None" = None,
) -> Dominance:
    """Full three-way comparison of ``a`` vs ``b`` over ``dims``."""
    if counter is not None:
        counter.record()
    av = _subspace(a, dims)
    bv = _subspace(b, dims)
    a_le = bool(np.all(av <= bv))
    b_le = bool(np.all(bv <= av))
    if a_le and b_le:
        return Dominance.EQUAL
    if a_le:
        return Dominance.LEFT
    if b_le:
        return Dominance.RIGHT
    return Dominance.INCOMPARABLE


def dominates(
    a: np.ndarray,
    b: np.ndarray,
    dims: "Sequence[int] | None" = None,
    counter: "ComparisonCounter | None" = None,
) -> bool:
    """Definition 1 / 2: ``a`` strictly dominates ``b`` over ``dims``."""
    if counter is not None:
        counter.record()
    av = _subspace(a, dims)
    bv = _subspace(b, dims)
    return bool(np.all(av <= bv) and np.any(av < bv))


def _attribute_planes(
    lefts: np.ndarray, rights: np.ndarray, axis: int
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Both operands' ``k``-th attribute planes, for each ``k`` of the
    broadcast attribute axis (a width-1 side repeats) — views, whatever
    the operands' strides.  ``axis`` indexes the broadcast result, so it is
    counted from the end, where operands of different rank align.
    """
    if axis >= 0:
        axis -= max(lefts.ndim, rights.ndim)
    wl, wr = lefts.shape[axis], rights.shape[axis]
    if wl != wr and wl != 1 and wr != 1:
        raise ValueError(f"attribute axes of width {wl} and {wr} do not broadcast")
    tail = (slice(None),) * (-1 - axis)
    return [
        (lefts[(..., k % wl) + tail], rights[(..., k % wr) + tail])
        for k in range(wr if wl == 1 else wl)
    ]


def _all_planes(
    op: np.ufunc, lefts: np.ndarray, rights: np.ndarray, axis: int
) -> np.ndarray:
    """``op(lefts, rights).all(axis)``, AND-accumulated plane by plane."""
    planes = _attribute_planes(lefts, rights, axis)
    if not planes:  # nothing to accumulate: the (empty) literal form is free
        return op(lefts, rights).all(axis=axis)
    acc = op(*planes[0])
    for lk, rk in planes[1:]:
        acc &= op(lk, rk)
    return acc


def all_le_broadcast(
    lefts: np.ndarray, rights: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Broadcast ``all(lefts <= rights, axis)`` (``all(>=)`` with the
    operands swapped); kernel shape of :func:`dominance_broadcast`."""
    return _all_planes(np.less_equal, lefts, rights, axis)


def all_lt_broadcast(
    lefts: np.ndarray, rights: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Broadcast ``all(lefts < rights, axis)`` — the optimizer's box-reach
    test; kernel shape of :func:`dominance_broadcast`."""
    return _all_planes(np.less, lefts, rights, axis)


def dominance_broadcast(
    dominators: np.ndarray,
    candidates: np.ndarray,
    axis: int = -1,
) -> np.ndarray:
    """Broadcast form of Definition 1: ``all(<=, axis) & any(<, axis)``.

    ``dominators`` and ``candidates`` are ndarrays (views are never
    copied) that broadcast against each other; ``axis`` is the attribute
    axis of the broadcast result.  The mask is accumulated one attribute
    at a time over the broadcast planes — no ``(..., d)`` comparison cube,
    no reduce over the 2-4 wide attribute axis — with the definition's own
    comparisons: NaN, +-inf and ties come out as in the literal form, a
    zero-width axis gives all-False.  No comparisons are charged —
    callers on charged paths account for their own counts; this is the
    single audited implementation that CQ002 requires every vectorised
    dominance test to flow through.
    """
    planes = _attribute_planes(dominators, candidates, axis)
    if not planes:
        return (dominators < candidates).any(axis=axis)
    dk, ck = planes[0]
    le = dk <= ck
    lt = dk < ck
    for dk, ck in planes[1:]:
        le &= dk <= ck
        lt |= dk < ck
    le &= lt
    return le


def dominance_mask(dominators: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cross mask: ``mask[i, j]`` iff ``dominators[i]`` dominates
    ``candidates[j]`` (both inputs ``(n, d)`` / ``(m, d)`` row matrices)."""
    return dominance_broadcast(
        dominators[:, None, :], candidates[None, :, :], axis=2
    )


def dominates_matrix(
    points: np.ndarray,
    candidate: np.ndarray,
    dims: "Sequence[int] | None" = None,
    counter: "ComparisonCounter | None" = None,
) -> bool:
    """True iff any row of ``points`` dominates ``candidate``.

    Vectorised helper used by the reference evaluator; charges one
    comparison per row actually examined (all of them — the vectorised form
    cannot short-circuit, matching a worst-case BNL pass).
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return False
    if dims is not None:
        pts = pts[:, dims_index(dims)]
        candidate = _subspace(candidate, dims)
    if counter is not None:
        counter.record(len(pts))
    le = np.all(pts <= candidate, axis=1)
    lt = np.any(pts < candidate, axis=1)
    return bool(np.any(le & lt))


__all__ = [
    "ComparisonCounter",
    "Dominance",
    "all_le_broadcast",
    "all_lt_broadcast",
    "compare",
    "dims_index",
    "dominance_broadcast",
    "dominance_mask",
    "dominates",
    "dominates_matrix",
]
