"""MQLA inputs at engine-level sizes, shared by the coarse join / coarse
skyline reference tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.datagen import generate_pair
from repro.partition import quadtree_partition
from repro.query import (
    AttributeFilter,
    JoinCondition,
    Op,
    Workload,
    subspace_workload,
)


def _partitioned(workload, distribution, cardinality, selectivity, seed, dims=4):
    """The partitioning ``CAQE.open_run`` builds at ``target_cells=16``."""
    pair = generate_pair(
        distribution, cardinality, dims, joins=2, selectivity=selectivity, seed=seed
    )
    capacity = -(-2 * cardinality // 16)
    measures = tuple(f"m{i + 1}" for i in range(dims))
    return workload, *(
        quadtree_partition(
            table, measures, workload.join_conditions, side, capacity=capacity
        )
        for table, side in ((pair.left, "left"), (pair.right, "right"))
    )


@pytest.fixture(scope="session")
def mqla_cases(eleven_query_workload):
    """``name -> (workload, left partitioning, right partitioning)``.

    ``correlated`` is the only regime with > 1 024 regions in one
    equal-lineage group (``dominated_subspaces``' probe-block branch at engine
    level); ``filtered`` carries a non-prunable query; ``two_conditions``
    splits every cuboid node into two equal-lineage groups;
    ``five_dims`` is the 26-query workload over a 5-d output space (31
    cuboid subspaces, 10-bit comparison codes); ``six_dims`` has 57
    queries, so its query bitmaps need 64-bit table words.
    """
    base = eleven_query_workload
    filtered = Workload(
        [
            replace(q, left_filters=(AttributeFilter("m1", Op.LE, 60.0),))
            if q.name == "Q2"
            else q
            for q in base
        ]
    )
    jc2 = JoinCondition.on("jc2", name="JC2")
    two_conditions = Workload(
        [replace(q, join_condition=jc2) if k % 2 else q for k, q in enumerate(base)]
    )
    return {
        "correlated": _partitioned(base, "correlated", 1200, 0.003, 1000),
        "anticorrelated": _partitioned(base, "anticorrelated", 150, 0.003, 1001),
        "independent": _partitioned(base, "independent", 600, 0.008, 1002),
        "filtered": _partitioned(filtered, "correlated", 600, 0.003, 1003),
        "two_conditions": _partitioned(two_conditions, "correlated", 600, 0.01, 1004),
        "five_dims": _partitioned(
            subspace_workload(5, priority_scheme="uniform"),
            "correlated", 400, 0.01, 1005, dims=5,
        ),
        "six_dims": _partitioned(
            subspace_workload(6, priority_scheme="uniform"),
            "independent", 200, 0.02, 1006, dims=6,
        ),
    }

