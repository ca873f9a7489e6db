"""Workloads: ordered sets of skyline-over-join queries with priorities.

A :class:`Workload` is the unit CAQE optimises over (the paper's ``S_Q``).
Besides holding the queries it derives the *shared output space*: the union
of every query's output dimensions, with one agreed mapping function per
dimension — this is the ``d``-dimensional abstraction Section 5 builds the
multi-query output space over.

:func:`subspace_workload` builds the benchmark family used throughout the
paper's evaluation: queries identical except for their skyline dimensions.
With 4 output dimensions and subset sizes 2–4 it yields exactly
``C(4,2) + C(4,3) + C(4,4) = 11`` queries, matching ``|S_Q| = 11``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.errors import QueryError
from repro.query.mapping import MappingFunction, add
from repro.query.operators import SkylineJoinQuery
from repro.query.predicates import JoinCondition
from repro.query.preference import Preference
from repro.relation import Relation

PRIORITY_SCHEMES = ("dims_asc", "dims_desc", "uniform")


class Workload:
    """An immutable, validated collection of skyline-over-join queries."""

    def __init__(self, queries: "Sequence[SkylineJoinQuery]"):
        items = tuple(queries)
        if not items:
            raise QueryError("a workload needs at least one query")
        names = [q.name for q in items]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate query names in workload: {names}")
        self._queries = items
        self._by_name = {q.name: q for q in items}
        self._function_universe = self._build_function_universe(items)
        # Queries are immutable, so the shared output space is fixed here;
        # ``subset`` and ``with_priorities`` build new workloads.
        self._output_dims = tuple(
            dict.fromkeys(name for q in items for name in q.output_names)
        )

    @staticmethod
    def _build_function_universe(
        queries: "tuple[SkylineJoinQuery, ...]",
    ) -> "dict[str, MappingFunction]":
        universe: dict[str, MappingFunction] = {}
        for query in queries:
            for fn in query.functions:
                existing = universe.get(fn.output)
                if existing is None:
                    universe[fn.output] = fn
                elif (
                    existing.left_inputs != fn.left_inputs
                    or existing.right_inputs != fn.right_inputs
                    or existing.label != fn.label
                ):
                    raise QueryError(
                        f"output dimension {fn.output!r} is produced by conflicting "
                        f"mapping functions ({existing.name} vs {fn.name}); shared "
                        "output-space processing requires one function per dimension"
                    )
        return universe

    # ------------------------------------------------------------------ #
    @property
    def queries(self) -> "tuple[SkylineJoinQuery, ...]":
        return self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self):
        return iter(self._queries)

    def __getitem__(self, name: str) -> SkylineJoinQuery:
        try:
            return self._by_name[name]
        except KeyError:
            raise QueryError(f"no query named {name!r} in workload") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(q.name for q in self._queries)

    @property
    def output_dims(self) -> tuple[str, ...]:
        """Union of all queries' output dims, in first-seen order."""
        return self._output_dims

    @property
    def skyline_dims(self) -> tuple[str, ...]:
        """Union of all queries' *skyline* dims, in output-dim order."""
        used = {d for q in self._queries for d in q.preference.dims}
        return tuple(d for d in self.output_dims if d in used)

    def function_for(self, output: str) -> MappingFunction:
        try:
            return self._function_universe[output]
        except KeyError:
            raise QueryError(f"no mapping function produces {output!r}") from None

    @property
    def join_conditions(self) -> "tuple[JoinCondition, ...]":
        seen: dict[str, JoinCondition] = {}
        for query in self._queries:
            seen.setdefault(query.join_condition.name, query.join_condition)
        return tuple(seen.values())

    def queries_with_join(self, condition_name: str) -> "tuple[SkylineJoinQuery, ...]":
        return tuple(
            q for q in self._queries if q.join_condition.name == condition_name
        )

    def by_priority(self) -> "tuple[SkylineJoinQuery, ...]":
        """Queries ordered highest priority first (competitors' run order)."""
        return tuple(sorted(self._queries, key=lambda q: -q.priority))

    def validate(self, left: Relation, right: Relation) -> None:
        for query in self._queries:
            query.validate(left, right)

    def with_priorities(self, priorities: "dict[str, float]") -> "Workload":
        return Workload(
            [q.with_priority(priorities.get(q.name, q.priority)) for q in self._queries]
        )

    def subset(self, names: Iterable[str]) -> "Workload":
        return Workload([self[n] for n in names])

    def __repr__(self) -> str:
        return f"Workload({', '.join(self.names)})"


def assign_priorities(
    queries: "Sequence[SkylineJoinQuery]",
    scheme: str,
) -> "list[SkylineJoinQuery]":
    """Deterministic priority assignment used by the experiments (§7.2).

    * ``dims_asc``  — more skyline dimensions => higher priority (C1/C2 runs);
    * ``dims_desc`` — fewer skyline dimensions => higher priority (C3/C4 runs);
    * ``uniform``   — priorities spread evenly over [0.05, 1.0] (C5 runs).
    """
    if scheme not in PRIORITY_SCHEMES:
        raise QueryError(f"unknown priority scheme {scheme!r}; expected {PRIORITY_SCHEMES}")
    n = len(queries)
    if n == 1:
        return [queries[0].with_priority(1.0)]
    if scheme == "uniform":
        return [
            q.with_priority(round(0.05 + 0.95 * i / (n - 1), 4))
            for i, q in enumerate(queries)
        ]
    ordered = sorted(
        range(n),
        key=lambda i: (len(queries[i].preference), queries[i].name),
        reverse=(scheme == "dims_desc"),
    )
    # ordered[0] gets the LOWEST priority; ranks spread over [0.05, 1.0].
    out: list[SkylineJoinQuery] = list(queries)
    for rank, qi in enumerate(ordered):
        out[qi] = queries[qi].with_priority(round(0.05 + 0.95 * rank / (n - 1), 4))
    return out


def subspace_workload(
    dims: int = 4,
    *,
    min_size: int = 2,
    max_size: "int | None" = None,
    join_attr: str = "jc1",
    priority_scheme: str = "uniform",
    measure_prefix: str = "m",
    dim_prefix: str = "d",
) -> Workload:
    """The paper's benchmark workload: one query per dimension subset.

    Every query joins on ``join_attr`` and computes output dimension ``d_i``
    as ``R.m_i + T.m_i``; queries differ only in which subset of the output
    dimensions their skyline preference ranges over (Section 7.1: "queries
    that differ in their skyline dimensions").
    """
    if dims < 1:
        raise QueryError(f"dims must be >= 1, got {dims}")
    max_size = dims if max_size is None else max_size
    if not 1 <= min_size <= max_size <= dims:
        raise QueryError(f"invalid subset sizes: min={min_size} max={max_size} dims={dims}")
    condition = JoinCondition.on(join_attr, name="JC1")
    functions = tuple(
        add(f"{measure_prefix}{i + 1}", f"{measure_prefix}{i + 1}", f"{dim_prefix}{i + 1}")
        for i in range(dims)
    )
    dim_names = tuple(f"{dim_prefix}{i + 1}" for i in range(dims))
    queries: list[SkylineJoinQuery] = []
    for size in range(min_size, max_size + 1):
        for combo in combinations(range(dims), size):
            pref = Preference(tuple(dim_names[i] for i in combo))
            queries.append(
                SkylineJoinQuery(
                    name=f"Q{len(queries) + 1}",
                    join_condition=condition,
                    functions=functions,
                    preference=pref,
                )
            )
    return Workload(assign_priorities(queries, priority_scheme))


def random_workload(
    query_count: int,
    dims: int = 4,
    *,
    join_attrs: "tuple[str, ...]" = ("jc1",),
    filter_probability: float = 0.0,
    measure_prefix: str = "m",
    dim_prefix: str = "d",
    seed=None,
) -> Workload:
    """A randomized workload for robustness/fuzz testing.

    Queries draw a random non-empty skyline subspace, a random join
    condition from ``join_attrs``, a uniform priority, and (with
    ``filter_probability``) a random range filter on one measure column of
    one side.  Deterministic under ``seed``.
    """
    from repro.query.selection import AttributeFilter, Op
    from repro.rng import ensure_rng

    if query_count < 1:
        raise QueryError(f"query_count must be >= 1, got {query_count}")
    if dims < 1:
        raise QueryError(f"dims must be >= 1, got {dims}")
    if not 0.0 <= filter_probability <= 1.0:
        raise QueryError("filter_probability must be in [0, 1]")
    rng = ensure_rng(seed)
    conditions = {
        attr: JoinCondition.on(attr, name=f"JC:{attr}") for attr in join_attrs
    }
    functions = tuple(
        add(f"{measure_prefix}{i + 1}", f"{measure_prefix}{i + 1}", f"{dim_prefix}{i + 1}")
        for i in range(dims)
    )
    dim_names = tuple(f"{dim_prefix}{i + 1}" for i in range(dims))
    queries: list[SkylineJoinQuery] = []
    for qi in range(query_count):
        size = int(rng.integers(1, dims + 1))
        chosen = sorted(rng.choice(dims, size=size, replace=False).tolist())
        pref = Preference(tuple(dim_names[i] for i in chosen))
        attr = join_attrs[int(rng.integers(0, len(join_attrs)))]
        left_filters: tuple = ()
        right_filters: tuple = ()
        if rng.random() < filter_probability:
            column = f"{measure_prefix}{int(rng.integers(1, dims + 1))}"
            threshold = float(1.0 + rng.random() * 99.0)
            op = Op.LE if rng.random() < 0.5 else Op.GE
            predicate = (AttributeFilter(column, op, threshold),)
            if rng.random() < 0.5:
                left_filters = predicate
            else:
                right_filters = predicate
        queries.append(
            SkylineJoinQuery(
                name=f"Q{qi + 1}",
                join_condition=conditions[attr],
                functions=functions,
                preference=pref,
                priority=round(float(rng.random()), 4),
                left_filters=left_filters,
                right_filters=right_filters,
            )
        )
    return Workload(queries)


__all__ = [
    "PRIORITY_SCHEMES",
    "Workload",
    "assign_priorities",
    "random_workload",
    "subspace_workload",
]
