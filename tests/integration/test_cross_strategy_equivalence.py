"""Integration: every strategy agrees with the reference on every workload.

The single most important invariant in the package: execution strategy
changes *when* results appear and *what it costs*, never *what* the results
are.  These tests sweep distributions, selectivities, priority schemes, and
workload shapes.
"""

import numpy as np
import pytest

from repro.baselines import all_strategy_names, make_strategy
from repro.contracts import c2
from repro.core import CAQEConfig
from repro.datagen import generate_pair
from repro.query import reference_evaluate, subspace_workload
from repro.relation import Relation


def _verify(pair, workload, strategies=("CAQE", "S-JFSL")):
    contracts = {q.name: c2(scale=1000.0) for q in workload}
    references = {
        q.name: reference_evaluate(q, pair.left, pair.right).skyline_pairs
        for q in workload
    }
    for name in strategies:
        result = make_strategy(name).run(pair.left, pair.right, workload, contracts)
        for query in workload:
            assert result.reported[query.name] == references[query.name], (
                name,
                query.name,
            )


@pytest.mark.parametrize("distribution", ["independent", "correlated", "anticorrelated"])
@pytest.mark.parametrize("selectivity", [0.1, 0.02])
def test_distribution_selectivity_sweep(distribution, selectivity):
    pair = generate_pair(distribution, 90, 4, selectivity=selectivity, seed=13)
    workload = subspace_workload(4, priority_scheme="uniform")
    _verify(pair, workload, strategies=all_strategy_names())


@pytest.mark.parametrize("dims", [2, 3])
def test_lower_dimensional_workloads(dims):
    pair = generate_pair("independent", 120, dims, selectivity=0.05, seed=17)
    workload = subspace_workload(dims, min_size=1)
    _verify(pair, workload)


def test_wide_workload_five_dims():
    pair = generate_pair("independent", 80, 5, selectivity=0.05, seed=19)
    workload = subspace_workload(5, min_size=3)
    _verify(pair, workload)


def test_tiny_tables():
    pair = generate_pair("independent", 8, 4, selectivity=0.5, seed=29)
    workload = subspace_workload(4)
    _verify(pair, workload, strategies=all_strategy_names())


def test_selectivity_one_cross_product():
    pair = generate_pair("independent", 40, 4, selectivity=1.0, seed=31)
    workload = subspace_workload(4)
    _verify(pair, workload)


def test_single_sided_functions_violate_dva_safely():
    """Regression: ``left_only``/``right_only`` dimensions repeat values
    across join results (one base row joins many partners), breaking the
    DVA property.  The Theorem-1 seeded insert must self-verify and stay
    exact without any configuration change."""
    from repro.datagen import domains
    from repro.query import JoinCondition, Preference, SkylineJoinQuery, Workload
    from repro.query.mapping import add, left_only, right_only

    quotes = domains.quotes(250, seed=21)
    sentiment = domains.sentiment(250, seed=22)
    fns = (
        left_only("volatility"),
        add("spread", "source_risk", "trade_risk"),
        right_only("neg_sentiment"),
    )
    jc = JoinCondition.on("ticker", name="by_ticker")
    workload = Workload(
        [
            SkylineJoinQuery("a", jc, fns, Preference.over("volatility", "trade_risk")),
            SkylineJoinQuery("b", jc, fns, Preference.over("trade_risk", "neg_sentiment")),
            SkylineJoinQuery(
                "c", jc, fns,
                Preference.over("volatility", "trade_risk", "neg_sentiment"),
            ),
        ]
    )
    contracts = {q.name: c2(scale=1000.0) for q in workload}
    for name in ("CAQE", "S-JFSL", "ProgXe+"):
        result = make_strategy(name).run(quotes, sentiment, workload, contracts)
        for query in workload:
            ref = reference_evaluate(query, quotes, sentiment)
            assert result.reported[query.name] == ref.skyline_pairs, (name, query.name)


def _quantised(rel):
    """``rel`` with every measure rounded to a multiple of 10: heavy ties,
    many of them on quad-tree midpoints."""
    return Relation(
        rel.name,
        rel.schema,
        {
            name: np.round(rel.column(name) / 10.0) * 10.0
            if name.startswith("m")
            else rel.column(name)
            for name in rel.schema.names
        },
    )


def test_duplicate_heavy_data():
    """Integer-quantised measures violate DVA; exactness must survive."""
    pair = generate_pair("independent", 100, 4, selectivity=0.05, seed=37)
    left, right = _quantised(pair.left), _quantised(pair.right)
    workload = subspace_workload(4)
    contracts = {q.name: c2(scale=1000.0) for q in workload}
    references = {
        q.name: reference_evaluate(q, left, right).skyline_pairs for q in workload
    }
    # DVA does not hold: run CAQE with the Theorem-1 shortcut disabled.
    result = make_strategy("CAQE", CAQEConfig(assume_dva=False)).run(
        left, right, workload, contracts
    )
    for query in workload:
        assert result.reported[query.name] == references[query.name]


@pytest.mark.parametrize("distribution", ["independent", "correlated", "anticorrelated"])
def test_tie_heavy_data_under_the_default_config(distribution):
    """Integer-quantised measures under the default config, Theorem-1
    seeding included (``assume_dva=True``): ties exercise the quad tree's
    ``>`` midpoint rule and the shared plan's seeding, and every one of
    the 11 queries still reports exactly the reference skyline."""
    from repro.core import CAQE

    pair = generate_pair(distribution, 120, 4, selectivity=0.05, seed=43)
    left, right = _quantised(pair.left), _quantised(pair.right)
    assert len(set(left.column("m1").tolist())) < left.cardinality // 4
    workload = subspace_workload(4)
    assert len(workload) == 11 and CAQEConfig().assume_dva
    contracts = {q.name: c2(scale=1000.0) for q in workload}
    result = CAQE().run(left, right, workload, contracts)
    for query in workload:
        ref = reference_evaluate(query, left, right)
        assert result.reported[query.name] == ref.skyline_pairs, query.name
