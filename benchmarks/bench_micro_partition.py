"""Micro-benchmark: input partitioning plus the coarse join.

``partition`` times the MQLA prologue's first two stages on one table
pair — ``quadtree_partition`` of both sides and the signature-driven
``coarse_join`` over the result — across N in {150, 1200, 4800} and
d in {2, 3, 4} on correlated data (the ``lookahead_bound`` regime), at
the quad-tree capacity ``CAQEConfig(target_cells=16)`` derives.  Every
cell of both partitionings is checked against the recursive midpoint
builder of ``tests/partition/quadtree_reference.py`` — indices, bounds
bit for bit, signatures and depth — whether or not timing is on.  Like
every micro row it is a diagnostic for locating partitioning cost on
another host, not evidence: a performance claim rests on ``perfbench``
(see ``perfbench/README.md``).

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_micro_partition.py
"""

import os
import sys

import pytest

from repro.core import CAQEConfig
from repro.core.caqe import partition_attrs
from repro.core.coarse_join import coarse_join
from repro.core.stats import ExecutionStats
from repro.datagen import generate_pair
from repro.partition import quadtree_partition
from repro.query import subspace_workload

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "partition")
)
from quadtree_reference import assert_same_leaves, reference_partition  # noqa: E402

SELECTIVITY = 0.003


@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize("cardinality", [150, 1200, 4800])
def bench_micro_partition(benchmark, cardinality, dims):
    """Both sides partitioned, then coarse-joined."""
    benchmark.group = f"partition-{cardinality}x{dims}"
    pair = generate_pair("correlated", cardinality, dims, selectivity=SELECTIVITY, seed=17)
    workload = subspace_workload(dims)
    conditions = workload.join_conditions
    capacity = CAQEConfig(target_cells=16).capacity_for(cardinality)
    sides = [
        (table, side, partition_attrs(workload, side))
        for table, side in ((pair.left, "left"), (pair.right, "right"))
    ]

    def prologue():
        parts = [
            quadtree_partition(table, attrs, conditions, side, capacity=capacity)
            for table, side, attrs in sides
        ]
        return parts, coarse_join(workload, *parts, ExecutionStats())

    parts, result = benchmark(prologue)
    for part, (table, side, attrs) in zip(parts, sides):
        leaves, depth = reference_partition(table, attrs, conditions, side, capacity)
        assert_same_leaves(part, leaves, depth)
    assert len(result.regions) > 0
