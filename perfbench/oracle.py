"""Independent ground truth for skyline-over-join workloads.

A plain NumPy evaluation — sort-merge equi-join, mapping functions, then a
block-wise filter over points in a dominance-compatible order — that
shares no code with the engine: it imports nothing from ``repro.core``,
``repro.plan``, ``repro.skyline`` or ``repro.parallel``.  It reads only
the query *specification* (join attributes, mapping functions, preference
dimensions) and the relations' columns.

``repro.query.reference_evaluate`` is the repo's other oracle; it streams
every join result through a Python-level BNL window and takes minutes at
the cardinalities benchmarked here.  ``perfbench/tests`` cross-checks the
two where both are affordable.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: Largest number of rows promoted to the skyline per filter step.
_BLOCK = 512
#: Candidate rows tested against one block at a time (bounds memory).
_CHUNK = 8192


def equi_join(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """All ``(left_row, right_row)`` index pairs with equal keys."""
    order = np.argsort(left_keys, kind="stable")
    ordered = left_keys[order]
    first = np.searchsorted(ordered, right_keys, side="left")
    counts = np.searchsorted(ordered, right_keys, side="right") - first
    total = int(counts.sum())
    right_idx = np.repeat(np.arange(len(right_keys)), counts)
    run_start = np.repeat(np.cumsum(counts) - counts, counts)
    left_idx = order[np.repeat(first, counts) + np.arange(total) - run_start]
    return left_idx, right_idx


def _dominated(dominators: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point: does any dominator beat it (<= everywhere, < somewhere)?"""
    flags = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), _CHUNK):
        chunk = points[None, start : start + _CHUNK]
        flags[start : start + _CHUNK] = (
            (dominators[:, None] <= chunk).all(axis=2)
            & (dominators[:, None] < chunk).any(axis=2)
        ).any(axis=0)
    return flags


def skyline_rows(points: np.ndarray) -> np.ndarray:
    """Row indices of the skyline of ``points`` (smaller is better).

    Rows are visited in ascending (coordinate sum, then lexicographic)
    order.  Floating-point addition is monotone, so a dominator never has
    a larger sum than the point it dominates, and on a tie it is the
    lexicographically smaller of the two — every dominator of a row comes
    before it.  The head block of the surviving rows therefore only needs
    filtering against itself; what survives is final and is then used to
    strike every later row it dominates.  Blocks start small so the first,
    strongest points thin the bulk cheaply.
    """
    sums = points.sum(axis=1)
    rows = np.argsort(sums, kind="stable")
    if (np.diff(sums[rows]) == 0).any():
        columns = tuple(points[:, axis] for axis in range(points.shape[1]))
        rows = np.lexsort(columns[::-1] + (sums,))
    candidates = points[rows]
    kept: "list[np.ndarray]" = []
    size = 32
    while len(rows):
        head = candidates[:size]
        final = ~_dominated(head, head)
        kept.append(rows[:size][final])
        rest = candidates[size:]
        alive = ~_dominated(head[final], rest)
        rows, candidates = rows[size:][alive], rest[alive]
        size = min(2 * size, _BLOCK)
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.intp)


def evaluate(left, right, workload) -> "dict[str, set[tuple[int, int]]]":
    """Per query name: the exact result set as ``(left_row, right_row)``."""
    joins: "dict[str, tuple[np.ndarray, np.ndarray]]" = {}
    columns: "dict[tuple[str, str], np.ndarray]" = {}
    answers: "dict[str, set[tuple[int, int]]]" = {}
    for query in workload:
        if query.left_filters or query.right_filters:
            raise ValueError(
                f"oracle does not evaluate selection filters ({query.name})"
            )
        condition = query.join_condition
        if condition.name not in joins:
            joins[condition.name] = equi_join(
                np.asarray(left.column(condition.left_attr)),
                np.asarray(right.column(condition.right_attr)),
            )
        left_idx, right_idx = joins[condition.name]
        dims = []
        for dim in query.preference.dims:
            fn = query.function_for(dim)
            key = (condition.name, fn.label or dim)
            if key not in columns:
                args = [left.column(a)[left_idx] for a in fn.left_inputs]
                args += [right.column(a)[right_idx] for a in fn.right_inputs]
                columns[key] = np.asarray(fn.fn(*args), dtype=float)
            dims.append(columns[key])
        rows = skyline_rows(np.column_stack(dims))
        answers[query.name] = set(
            zip(left_idx[rows].tolist(), right_idx[rows].tolist())
        )
    return answers


def _digest(left, right, workload) -> str:
    """Content hash of everything :func:`evaluate` reads."""
    sha = hashlib.sha256()
    for relation in (left, right):
        for name in relation.schema.names:
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(relation.column(name)).tobytes())
    for query in workload:
        condition = query.join_condition
        sha.update(
            repr(
                (
                    query.name,
                    condition.left_attr,
                    condition.right_attr,
                    [query.function_for(d).label for d in query.preference.dims],
                    query.preference.dims,
                )
            ).encode()
        )
    return sha.hexdigest()


def evaluate_cached(
    left, right, workload, cache_dir: "str | None"
) -> "dict[str, set[tuple[int, int]]]":
    """:func:`evaluate`, memoised on disk by a content hash of the inputs."""
    if cache_dir is None:
        return evaluate(left, right, workload)
    path = os.path.join(cache_dir, _digest(left, right, workload) + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        return {
            name: {(int(l), int(r)) for l, r in pairs}
            for name, pairs in stored.items()
        }
    answers = evaluate(left, right, workload)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({name: sorted(pairs) for name, pairs in answers.items()}, handle)
    os.replace(tmp, path)
    return answers
