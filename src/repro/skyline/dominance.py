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
import functools
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


#: Widest attribute axis :func:`dominance_codes` packs.  A
#: :func:`subspace_table` has ``4**d`` entries per word and a cuboid has up
#: to ``2**d - 1`` subspaces, so at 8 attributes one table is at most
#: 4 words x 65 536 entries x 8 bytes = 2 MiB (at 10 it would be 128 MiB).
MAX_CODE_DIMS = 8
#: Largest ``(dominators, candidates)`` pair block :func:`subspace_union`
#: and :func:`subspace_matrix` code at once; wider inputs run in chunks of
#: dominator rows.  The table gather converts a block's codes to an
#: ``intp`` index, 8 bytes a pair, so this bounds that temporary at 256 KiB.
_PAIR_BUDGET = 1 << 15


def _code_dtype(d: int) -> type:
    if d > MAX_CODE_DIMS:
        raise ValueError(
            f"dominance codes pack at most {MAX_CODE_DIMS} attributes, got {d}"
        )
    return np.uint8 if d <= 4 else np.uint16


def dominance_codes(dominators: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``codes[i, j]``: every attribute's comparison of ``dominators[i]``
    with ``candidates[j]`` (``(n, d)`` / ``(m, d)`` row matrices), packed
    into one small unsigned code: bit ``k`` is ``dominators[i, k] <=
    candidates[j, k]`` and bit ``d + k`` is ``dominators[i, k] <
    candidates[j, k]``.

    A pair is a Definition-1 dominance on the subspace with attribute
    bitmask ``P`` iff ``(le & P) == P`` and ``(lt & P) != 0`` — the
    question :func:`subspace_table` answers for many subspaces with one
    lookup.  NaN compares False both ways, as in the literal form.  No
    comparisons are charged.
    """
    d = dominators.shape[1]
    codes = np.zeros((len(dominators), len(candidates)), dtype=_code_dtype(d))
    bit = np.empty(codes.shape, dtype=bool)
    # Horner order, most significant bit first: doubling shifts the code.
    for op in (np.less, np.less_equal):
        for k in reversed(range(d)):
            op(dominators[:, None, k], candidates[None, :, k], out=bit)
            codes += codes
            codes += bit
    return codes


#: A run reads up to three tables (cuboid subspaces, query subspaces for the
#: dependency graph and for the discard step); at most 2 MiB each.
@functools.lru_cache(maxsize=8)
def _subspace_table(d: int, subspaces: "tuple[int, ...]") -> np.ndarray:
    _code_dtype(d)
    width = next(w for w in (8, 16, 32, 64) if len(subspaces) <= w or w == 64)
    dtype = np.dtype(f"uint{width}")
    words = max(1, -(-len(subspaces) // width))
    codes = np.arange(1 << (2 * d), dtype=np.int64)
    le, lt = codes & ((1 << d) - 1), codes >> d
    table = np.zeros((words, len(codes)), dtype=dtype)
    for k, mask in enumerate(subspaces):
        hit = ((le & mask) == mask) & ((lt & mask) != 0)
        table[k // width, hit] |= dtype.type(1 << (k % width))
    table.setflags(write=False)
    return table


def subspace_table(d: int, subspace_bitmasks: "Sequence[int]") -> np.ndarray:
    """The ``(words, 4**d)`` lookup from a :func:`dominance_codes` code to
    the subspaces on which that pair is a Definition-1 dominance.

    Subspace ``k`` (an attribute bitmask; repeats allowed) is bit
    ``k % w`` of word ``k // w``, where ``w`` is the narrowest unsigned
    width — 8, 16, 32 or 64 bits — that holds every subspace, capped at
    64.  Callers with at most 64 subspaces read ``table[0]``: one gather
    ``table[0][codes]`` answers every subspace for every pair.  The empty
    subspace dominates nowhere.  Cached and read-only.
    """
    return _subspace_table(int(d), tuple(int(m) for m in subspace_bitmasks))


def subspace_union(
    dominators: np.ndarray,
    candidates: np.ndarray,
    table_word: np.ndarray,
    dominator_bits: "np.ndarray | None" = None,
) -> np.ndarray:
    """Per candidate row, the OR over dominator rows ``i`` of
    ``table_word[code(dominators[i], candidate)]`` — the subspaces (of one
    :func:`subspace_table` word) on which some dominator dominates it —
    each term first masked by ``dominator_bits[i]`` when given.

    Both inputs are ``(n, d)`` / ``(m, d)`` row matrices; the pairs are
    coded in blocks of dominator rows of at most ``_PAIR_BUDGET`` pairs.
    ``dominator_bits`` are bitmaps over the word's subspaces, so they are
    applied in the word's own width.
    """
    out = np.zeros(len(candidates), dtype=table_word.dtype)
    if dominator_bits is not None:
        dominator_bits = dominator_bits.astype(table_word.dtype)[:, None]
    step = max(1, _PAIR_BUDGET // max(1, len(candidates)))
    for start in range(0, len(dominators), step):
        stop = start + step
        bits = table_word[dominance_codes(dominators[start:stop], candidates)]
        if dominator_bits is not None:
            bits &= dominator_bits[start:stop]
        out |= np.bitwise_or.reduce(bits, axis=0)
    return out


def subspace_matrix(
    dominators: np.ndarray, candidates: np.ndarray, table_word: np.ndarray
) -> np.ndarray:
    """``out[i, j] = table_word[code(dominators[i], candidates[j])]``: the
    subspaces (of one :func:`subspace_table` word) on which row ``i``
    dominates row ``j``, coded in blocks of at most ``_PAIR_BUDGET``
    pairs."""
    out = np.empty((len(dominators), len(candidates)), dtype=table_word.dtype)
    step = max(1, _PAIR_BUDGET // max(1, len(candidates)))
    for start in range(0, len(dominators), step):
        stop = start + step
        out[start:stop] = table_word[
            dominance_codes(dominators[start:stop], candidates)
        ]
    return out


def dominance_mask(dominators: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cross mask: ``mask[i, j]`` iff ``dominators[i]`` dominates
    ``candidates[j]`` (both inputs ``(n, d)`` / ``(m, d)`` row matrices)."""
    return dominance_broadcast(
        dominators[:, None, :], candidates[None, :, :], axis=2
    )


__all__ = [
    "ComparisonCounter",
    "Dominance",
    "MAX_CODE_DIMS",
    "all_lt_broadcast",
    "compare",
    "dims_index",
    "dominance_broadcast",
    "dominance_codes",
    "dominance_mask",
    "dominates",
    "subspace_matrix",
    "subspace_table",
    "subspace_union",
]
