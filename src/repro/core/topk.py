"""Contract-driven Top-K-over-join processing (extension).

Section 1.2 claims CAQE's principles "are general and can be extended to
other classes of queries"; Top-K queries [8, 13] are the other flagship
multi-criteria decision-support class the paper cites.  This module makes
the claim concrete: the same substrate — quad-tree cells, signature-driven
coarse join, output regions, a contract-driven region ordering, progressive
finality reasoning — executes workloads of *Top-K-over-join* queries.

A :class:`TopKJoinQuery` ranks join results by a non-negative weighted sum
of the workload's output dimensions (smaller is better) and asks for the
best ``k``.  Region lower corners bound every possible score from below,
which yields the two levers CAQE uses for skylines:

* **pruning** — once a query holds ``k`` results, any region whose minimum
  possible score exceeds the query's current k-th best can never
  contribute; a region useless for *every* query is discarded unjoined;
* **progressive finality** — a held result can be reported as final once
  its rank is within ``k`` among current results and no remaining region
  could produce a strictly better score.

Contracts and satisfaction metrics are reused unchanged: result tuples are
stamped with virtual time and scored by the same Table 2 classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.contracts.base import Contract
from repro.contracts.score import ResultLog
from repro.core.caqe import CAQEConfig
from repro.core.coarse_join import coarse_join
from repro.core.executor import join_cell_pair
from repro.core.region import OutputRegion
from repro.core.stats import ExecutionStats
from repro.errors import ExecutionError, QueryError
from repro.partition.quadtree import quadtree_partition
from repro.query.evaluate import apply_functions, hash_join
from repro.query.mapping import MappingFunction
from repro.query.predicates import JoinCondition
from repro.query.workload import Workload
from repro.relation import Relation


@dataclass(frozen=True)
class TopKJoinQuery:
    """Best-``k`` join results under a monotone linear score (minimised)."""

    name: str
    join_condition: JoinCondition
    functions: "tuple[MappingFunction, ...]"
    #: Weight per output dimension, aligned with ``functions`` order.
    weights: "tuple[float, ...]"
    k: int
    priority: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("top-k query needs a name")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if len(self.weights) != len(self.functions):
            raise QueryError(
                f"{len(self.weights)} weights for {len(self.functions)} functions"
            )
        if any(w < 0 for w in self.weights):
            raise QueryError("weights must be non-negative (monotone score)")
        if not any(w > 0 for w in self.weights):
            raise QueryError("at least one weight must be positive")

    @property
    def output_names(self) -> "tuple[str, ...]":
        return tuple(f.output for f in self.functions)

    def score(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=float) @ np.asarray(self.weights)


def reference_topk(
    query: TopKJoinQuery, left: Relation, right: Relation
) -> "list[tuple[int, int]]":
    """Ground truth: the k best join pairs, ties broken deterministically."""
    left_idx, right_idx = hash_join(left, right, query.join_condition)
    matrix = apply_functions(query.functions, left, right, left_idx, right_idx)
    if len(matrix) == 0:
        return []
    scores = query.score(matrix)
    order = np.lexsort((right_idx, left_idx, scores))
    chosen = order[: query.k]
    return [(int(left_idx[i]), int(right_idx[i])) for i in chosen]


@dataclass
class _HeldResult:
    score: float
    identity: "tuple[int, int]"

    def sort_key(self) -> "tuple[float, tuple[int, int]]":
        return (self.score, self.identity)


@dataclass
class TopKRunResult:
    """Logs, stats, and final answers of one top-k workload execution."""

    logs: "dict[str, ResultLog]"
    stats: ExecutionStats
    horizon: float
    results: "dict[str, list[tuple[int, int]]]"
    contracts: "dict[str, Contract]"

    def satisfaction(self, name: str) -> float:
        log = self.logs[name]
        return self.contracts[name].satisfaction(
            log.timestamps, float(len(log)), self.horizon
        )

    def average_satisfaction(self) -> float:
        values = [self.satisfaction(name) for name in self.logs]
        return float(np.mean(values)) if values else 0.0


class TopKEngine:
    """Shared, contract-driven execution of a top-k-over-join workload."""

    name = "TopK-CAQE"

    def __init__(self, config: "CAQEConfig | None" = None) -> None:
        self.config = config or CAQEConfig()

    def run(
        self,
        left: Relation,
        right: Relation,
        queries: "list[TopKJoinQuery]",
        contracts: "dict[str, Contract]",
    ) -> TopKRunResult:
        if not queries:
            raise ExecutionError("top-k workload is empty")
        missing = [q.name for q in queries if q.name not in contracts]
        if missing:
            raise ExecutionError(f"missing contracts for queries: {missing}")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ExecutionError(f"duplicate query names: {names}")

        # Reuse the skyline workload plumbing for partitioning and the
        # coarse join: a shadow workload carrying the same join conditions
        # and mapping functions (preferences are irrelevant here).
        shadow = self._shadow_workload(queries)
        stats = ExecutionStats.with_cost_model(self.config.cost_model)
        conditions = shadow.join_conditions
        from repro.core.caqe import partition_attrs

        left_attrs = partition_attrs(shadow, "left") or left.schema.measure_names
        right_attrs = partition_attrs(shadow, "right") or right.schema.measure_names
        left_part = quadtree_partition(
            left, left_attrs, conditions, "left",
            capacity=self.config.capacity_for(left.cardinality),
            split=self.config.partition_split,
        )
        right_part = quadtree_partition(
            right, right_attrs, conditions, "right",
            capacity=self.config.capacity_for(right.cardinality),
            split=self.config.partition_split,
        )
        cj = coarse_join(shadow, left_part, right_part, stats,
                         divisions=self.config.divisions)
        regions = cj.regions.materialise()
        output_dims = shadow.output_dims
        weight_matrix = {
            q.name: np.asarray(
                [dict(zip(q.output_names, q.weights)).get(d, 0.0) for d in output_dims]
            )
            for q in queries
        }
        functions = tuple(shadow.function_for(d) for d in output_dims)
        qbit = {q.name: i for i, q in enumerate(queries)}

        # Per-region minimum possible score per query.
        region_lb = {
            r.region_id: {
                q.name: float(r.lower @ weight_matrix[q.name]) for q in queries
            }
            for r in regions
        }
        remaining = {r.region_id: r for r in regions}
        held: dict[str, list[_HeldResult]] = {q.name: [] for q in queries}
        kth_best: dict[str, float] = {q.name: np.inf for q in queries}
        logs = {q.name: ResultLog(q.name) for q in queries}
        reported: dict[str, set] = {q.name: set() for q in queries}
        by_name = {q.name: q for q in queries}

        condition_by_name = {c.name: c for c in conditions}
        while remaining:
            rid = self._pick(remaining, region_lb, kth_best, queries, qbit,
                             remaining_serves=lambda r, q: r.serves(qbit[q]))
            region = remaining.pop(rid)
            served = [
                name for name in names if region.serves(qbit[name])
            ]
            useful = [
                name
                for name in served
                if len(held[name]) < by_name[name].k
                # <= not <: an exact-tie tuple can win the deterministic
                # tie-break against the current k-th result.
                or region_lb[rid][name] <= kth_best[name]
            ]
            if not useful:
                # No query can gain anything from this region: never join it.
                stats.record_region_discarded()
                self._report_finals(
                    queries, held, remaining, region_lb, reported, logs, stats
                )
                continue
            stats.record_region_processed()
            li, ri = join_cell_pair(
                left, right, left_part.cell(region.left_cell_id),
                right_part.cell(region.right_cell_id),
                condition_by_name[region.condition_name], stats,
            )
            if len(li):
                stats.record_join_results(len(li), mapping_functions=len(functions))
                matrix = apply_functions(functions, left, right, li, ri)
                for name in served:
                    query = by_name[name]
                    scores = matrix @ weight_matrix[name]
                    stats.record_coarse_comparisons(len(scores))
                    for pos in range(len(scores)):
                        score = float(scores[pos])
                        if len(held[name]) >= query.k and score > kth_best[name]:
                            continue
                        held[name].append(
                            _HeldResult(score, (int(li[pos]), int(ri[pos])))
                        )
                        held[name].sort(key=_HeldResult.sort_key)
                        del held[name][query.k:]
                        if len(held[name]) >= query.k:
                            kth_best[name] = held[name][-1].score
            self._report_finals(
                queries, held, remaining, region_lb, reported, logs, stats
            )

        # Everything left is final.
        now = stats.clock.now()
        for name in names:
            for result in held[name]:
                if result.identity not in reported[name]:
                    reported[name].add(result.identity)
                    stats.record_outputs(1)
                    logs[name].report(result.identity, now)
        results = {
            name: [r.identity for r in sorted(held[name], key=_HeldResult.sort_key)]
            for name in names
        }
        return TopKRunResult(
            logs=logs,
            stats=stats,
            horizon=stats.clock.now(),
            results=results,
            contracts=dict(contracts),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _shadow_workload(queries: "list[TopKJoinQuery]") -> Workload:
        from repro.query.operators import SkylineJoinQuery
        from repro.query.preference import Preference

        shadows = []
        for q in queries:
            shadows.append(
                SkylineJoinQuery(
                    name=q.name,
                    join_condition=q.join_condition,
                    functions=q.functions,
                    preference=Preference(tuple(q.output_names)),
                    priority=q.priority,
                )
            )
        return Workload(shadows)

    def _pick(
        self,
        remaining: "dict[int, OutputRegion]",
        region_lb: "dict[int, dict[str, float]]",
        kth_best: "dict[str, float]",
        queries: "tuple[TopKJoinQuery, ...]",
        qbit: "dict[str, int]",
        remaining_serves: "Callable[[OutputRegion, str], bool]",
    ) -> "int | None":
        """Priority-weighted greedy: prefer regions that can still improve
        the most important queries, tie-broken by best possible score."""
        best_rid, best_key = None, None
        for rid, region in remaining.items():
            usefulness = sum(
                q.priority
                for q in queries
                if region.serves(qbit[q.name])
                and region_lb[rid][q.name] < kth_best[q.name]
            )
            min_lb = min(region_lb[rid].values())
            key = (-usefulness, min_lb, rid)
            if best_key is None or key < best_key:
                best_rid, best_key = rid, key
        return best_rid

    def _report_finals(
        self,
        queries: "tuple[TopKJoinQuery, ...]",
        held: "dict[str, list[_HeldResult]]",
        remaining: "dict[int, OutputRegion]",
        region_lb: "dict[int, dict[str, float]]",
        reported: "dict[str, set[tuple[int, int]]]",
        logs: "dict[str, ResultLog]",
        stats: ExecutionStats,
    ) -> None:
        """Emit held results that no remaining region can displace."""
        now = stats.clock.now()
        for query in queries:
            name = query.name
            if not held[name]:
                continue
            barrier = min(
                (region_lb[rid][name] for rid in remaining), default=np.inf
            )
            for rank, result in enumerate(
                sorted(held[name], key=_HeldResult.sort_key)
            ):
                # Strict inequality: a future tuple scoring exactly at the
                # barrier could still win the deterministic tie-break.
                if rank >= query.k or result.score >= barrier:
                    break
                if result.identity not in reported[name]:
                    reported[name].add(result.identity)
                    stats.record_outputs(1)
                    logs[name].report(result.identity, now)


__all__ = ["TopKEngine", "TopKJoinQuery", "TopKRunResult", "reference_topk"]
