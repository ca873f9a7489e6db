"""The independent oracle against ``repro.query.reference_evaluate``."""

import ast
import os

import numpy as np

from perfbench import oracle, workloads
from repro.query import reference_evaluate


def test_oracle_shares_no_code_with_the_engine():
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    banned = ("repro.core", "repro.plan", "repro.skyline", "repro.parallel")
    assert not [m for m in imported if m.startswith(banned)]


def _agrees(spec, seed):
    data = workloads.generate(spec, seed)
    pair = data["pair"]
    for workload in data["workloads"].values():
        got = oracle.evaluate(pair.left, pair.right, workload)
        for query in workload:
            expected = reference_evaluate(query, pair.left, pair.right)
            assert got[query.name] == expected.skyline_pairs, query.name
            assert got[query.name], "an empty answer would prove nothing"


def test_agrees_with_reference_on_sched_bound():
    _agrees(workloads.WORKLOADS["sched_bound"], seed=3)


def test_agrees_with_reference_on_the_serving_pair():
    _agrees(workloads.WORKLOADS["serving_burst"], seed=3)


def test_ties_and_duplicates_are_kept():
    # Small integer coordinates: many equal sums, equal points, and
    # dominators that tie with their victims on the sort key's first term.
    rng = np.random.default_rng(11)
    points = rng.integers(0, 5, size=(400, 3)).astype(float)
    rows = set(oracle.skyline_rows(points).tolist())
    expected = {
        i
        for i, p in enumerate(points)
        if not any((q <= p).all() and (q < p).any() for q in points)
    }
    assert rows == expected
    assert oracle.skyline_rows(np.empty((0, 2))).size == 0


def test_equi_join_matches_the_nested_loop():
    rng = np.random.default_rng(5)
    left, right = rng.integers(0, 9, 60), rng.integers(0, 9, 45)
    left_idx, right_idx = oracle.equi_join(left, right)
    got = sorted(zip(left_idx.tolist(), right_idx.tolist()))
    assert got == sorted(
        (i, j) for i in range(60) for j in range(45) if left[i] == right[j]
    )


def test_cache_round_trip(tmp_path):
    spec = workloads.WORKLOADS["sched_bound"]
    data = workloads.generate(spec, 9)
    pair, workload = data["pair"], data["workloads"]["all"]
    first = oracle.evaluate_cached(pair.left, pair.right, workload, str(tmp_path))
    assert len(os.listdir(tmp_path)) == 1
    again = oracle.evaluate_cached(pair.left, pair.right, workload, str(tmp_path))
    assert again == first == oracle.evaluate(pair.left, pair.right, workload)
