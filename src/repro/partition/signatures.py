"""Per-cell join signatures (Section 5.1).

Each leaf cell maintains, for every join predicate in the workload, the set
of its member tuples' values over that predicate's attribute — Example 14's
``L[country] = {Brazil, China, Mexico}``.  Coarse-level join evaluation
then reduces to signature intersection: a pair of cells can produce a join
result for ``JC_i`` iff their ``JC_i`` signatures intersect.
"""

from __future__ import annotations

import numpy as np

from repro.query.predicates import JoinCondition
from repro.relation import Relation


def signature_of(relation: Relation, indices: np.ndarray, attr: str) -> frozenset:
    """Distinct values of ``attr`` among the rows ``indices``."""
    values = relation.column(attr)[np.asarray(indices, dtype=np.intp)]
    # ``tolist`` yields the Python scalars ``.item()`` would (object
    # columns hand back their objects as they are).
    return frozenset(values.tolist())


def signatures_for_side(
    relation: Relation,
    indices: np.ndarray,
    conditions: "tuple[JoinCondition, ...]",
    side: str,
) -> "dict[str, frozenset]":
    """Signatures for one table side, keyed by join-condition name.

    ``side`` is ``"left"`` or ``"right"`` — it selects which attribute of
    each condition this relation contributes.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out: dict[str, frozenset] = {}
    for condition in conditions:
        attr = condition.left_attr if side == "left" else condition.right_attr
        out[condition.name] = signature_of(relation, indices, attr)
    return out


def signatures_intersect(left_sig: frozenset, right_sig: frozenset) -> bool:
    """The coarse join test: can any tuple pair satisfy the predicate?"""
    if len(left_sig) > len(right_sig):
        left_sig, right_sig = right_sig, left_sig
    return any(value in right_sig for value in left_sig)


__all__ = [
    "signature_of",
    "signatures_for_side",
    "signatures_intersect",
]
