"""Order-exact vectorised equi-join of two leaf cells.

The join's pair order is defined by the hash-join bucket loop
(:func:`bucket_join`): right rows outer (cell order), matching left rows
inner (ascending cell-local position, the bucket append order).
Everything downstream of the join (the SFS presort
tie-breaks, the insertion-id assignment in :class:`JoinResultStore`, the
skyline replay) is sensitive to that order, so the vectorised kernel
reproduces it exactly: a stable argsort groups equal left keys while
preserving local position, and ``searchsorted`` locates each right key's
run.

The build side (the stable argsort of the left key column) is reusable
across every probe against the same cell, so it is split out as
:class:`GroupedBuild` / :func:`build_grouped`; the executor caches one per
``(cell_id, condition)``.

The dict-based loop and the sort-based kernel can only disagree on keys
whose hash equality differs from numeric comparison — in practice NaN
(never equal to itself) — or on non-numeric key columns; for those inputs
:func:`build_grouped` / :func:`probe_grouped` decline and the caller falls
back to the bucket loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.relation.values import unbox

_NUMERIC_KINDS = "biuf"


@dataclass(frozen=True, slots=True)
class GroupedBuild:
    """Sorted build side of one cell's join key column."""

    order: np.ndarray
    sorted_values: np.ndarray


def build_grouped(values: np.ndarray) -> "GroupedBuild | None":
    """Group a key column for repeated probes, or ``None`` out of domain.

    Declines (returns ``None``) on non-numeric dtypes and on float keys
    containing NaN, where sort-order grouping and hash equality diverge.
    """
    lv = np.asarray(values)
    if lv.dtype.kind not in _NUMERIC_KINDS:
        return None
    if lv.dtype.kind == "f" and bool(np.isnan(lv).any()):
        return None
    order = np.argsort(lv, kind="stable")
    return GroupedBuild(order=order, sorted_values=lv[order])


def probe_grouped(
    build: GroupedBuild, right_values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray] | None":
    """Cell-local match positions in bucket-loop order, or ``None``.

    Returns ``(left_local, right_local)`` index arrays into the build's
    value array and ``right_values``, ordered exactly like the hash-join
    bucket loop, or ``None`` when the probe side is outside the kernel's
    domain (non-numeric dtype, or float keys containing NaN).
    """
    rv = np.asarray(right_values)
    if rv.dtype.kind not in _NUMERIC_KINDS:
        return None
    if rv.dtype.kind == "f" and bool(np.isnan(rv).any()):
        return None
    sorted_lv = build.sorted_values
    starts = np.searchsorted(sorted_lv, rv, side="left")
    ends = np.searchsorted(sorted_lv, rv, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    right_local = np.repeat(np.arange(len(rv), dtype=np.intp), counts)
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.intp) - np.repeat(offsets, counts)
    left_local = build.order[np.repeat(starts, counts) + within]
    return left_local.astype(np.intp, copy=False), right_local


def vectorized_equi_join(
    left_values: np.ndarray, right_values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray] | None":
    """One-shot :func:`build_grouped` + :func:`probe_grouped`."""
    build = build_grouped(left_values)
    if build is None:
        return None
    return probe_grouped(build, right_values)


def bucket_join(
    left_values: np.ndarray, right_values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """The reference bucket loop (hash-equality fallback path)."""
    buckets: "dict[object, list[int]]" = {}
    for local, value in enumerate(left_values):  # caqe-check: disable=CQ009
        buckets.setdefault(unbox(value), []).append(local)
    left_out: "list[int]" = []
    right_out: "list[int]" = []
    for local_r, value in enumerate(right_values):  # caqe-check: disable=CQ009
        for local_l in buckets.get(unbox(value), ()):
            left_out.append(local_l)
            right_out.append(local_r)
    return (
        np.asarray(left_out, dtype=np.intp),
        np.asarray(right_out, dtype=np.intp),
    )


def cell_join(
    left_values: np.ndarray,
    right_values: np.ndarray,
    left_indices: np.ndarray,
    right_indices: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Global (left, right) row-index pairs of one cell pair's equi-join.

    Identical output — values *and* order — to
    :func:`repro.core.executor.join_cell_pair`, via the vectorised kernel
    when the key columns are in its domain and the bucket loop otherwise.
    """
    local = vectorized_equi_join(left_values, right_values)
    if local is None:
        local = bucket_join(left_values, right_values)
    left_local, right_local = local
    return (
        np.asarray(left_indices, dtype=np.intp)[left_local],
        np.asarray(right_indices, dtype=np.intp)[right_local],
    )


__all__ = [
    "GroupedBuild",
    "bucket_join",
    "build_grouped",
    "cell_join",
    "probe_grouped",
    "vectorized_equi_join",
]
