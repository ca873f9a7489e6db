"""MQLA inputs at engine-level sizes, shared by the coarse join / coarse
skyline reference tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.datagen import generate_pair
from repro.partition import quadtree_partition
from repro.query import AttributeFilter, JoinCondition, Op, Workload

MEASURES = ("m1", "m2", "m3", "m4")


def _partitioned(workload, distribution, cardinality, selectivity, seed):
    """The partitioning ``CAQE.open_run`` builds at ``target_cells=16``."""
    pair = generate_pair(
        distribution, cardinality, 4, joins=2, selectivity=selectivity, seed=seed
    )
    capacity = -(-2 * cardinality // 16)
    return workload, *(
        quadtree_partition(
            table, MEASURES, workload.join_conditions, side, capacity=capacity
        )
        for table, side in ((pair.left, "left"), (pair.right, "right"))
    )


@pytest.fixture(scope="session")
def mqla_cases(eleven_query_workload):
    """``name -> (workload, left partitioning, right partitioning)``.

    ``correlated`` is the only regime with > 1 024 regions in one
    equal-lineage group (``dominated_flags``' probe-block branch at engine
    level); ``filtered`` carries a non-prunable query; ``two_conditions``
    splits every cuboid node into two equal-lineage groups.
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
    }

