"""CAQE core: virtual clock, MQLA, benefit model, optimizer loop, executor."""

from repro.core.benefit import BenefitModel, prog_count_exact
from repro.core.caqe import CAQE, CAQEConfig, RunResult, run_caqe
from repro.core.clock import CostModel, VirtualClock
from repro.core.continuous import ContinuousCAQE, EpochResult
from repro.core.topk import TopKEngine, TopKJoinQuery, TopKRunResult, reference_topk
from repro.core.coarse_join import CoarseJoinResult, coarse_join
from repro.core.coarse_skyline import CoarseSkylineResult, coarse_skyline
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.executor import (
    JoinResultStore,
    RegionExecutor,
    RegionOutcome,
    ResultIdentity,
)
from repro.core.feedback import update_weights
from repro.core.output_space import DEFAULT_DIVISIONS, OutputGrid, grid_for_cells
from repro.core.region import OutputRegion, RegionTable
from repro.core.stats import ExecutionStats

__all__ = [
    "CAQE",
    "CAQEConfig",
    "BenefitModel",
    "CoarseJoinResult",
    "CoarseSkylineResult",
    "ContinuousCAQE",
    "CostModel",
    "EpochResult",
    "DEFAULT_DIVISIONS",
    "DependencyGraph",
    "ExecutionStats",
    "JoinResultStore",
    "OutputGrid",
    "OutputRegion",
    "RegionTable",
    "RegionExecutor",
    "RegionOutcome",
    "ResultIdentity",
    "RunResult",
    "TopKEngine",
    "TopKJoinQuery",
    "TopKRunResult",
    "VirtualClock",
    "reference_topk",
    "build_dependency_graph",
    "coarse_join",
    "coarse_skyline",
    "grid_for_cells",
    "prog_count_exact",
    "run_caqe",
    "update_weights",
]
