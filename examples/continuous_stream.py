#!/usr/bin/env python3
"""Continuous CAQE: contract-driven skylines over an append-only stream.

The paper's motivating applications are streams (stock tickers, travel
feeds).  This example drives the epoch-based extension: batches of new
Quotes and Sentiment rows arrive, each epoch runs Algorithm 1 over its
delta join on the persistent shared plan (CSM order, coarse pruning,
tuple-level discard), and consumers receive a changelog — skyline
packages confirmed progressively plus retractions of results that newer
data dominated.

Run:  python examples/continuous_stream.py
"""

import numpy as np

from repro import (
    JoinCondition,
    Preference,
    SkylineJoinQuery,
    Workload,
    c2,
    reference_evaluate,
)
from repro.core import CAQEConfig, ContinuousCAQE
from repro.datagen import domains
from repro.query.mapping import add, left_only, right_only

# The full day's feeds, delivered in four batches of 100 rows each.
quotes = domains.quotes(400, seed=21)
sentiment = domains.sentiment(400, seed=22)

by_ticker = JoinCondition.on("ticker", name="by_ticker")
functions = (
    left_only("volatility"),
    add("spread", "source_risk", "trade_risk"),
    right_only("neg_sentiment"),
)
workload = Workload(
    [
        SkylineJoinQuery(
            "steady", by_ticker, functions,
            Preference.over("volatility", "trade_risk"), priority=0.8,
        ),
        SkylineJoinQuery(
            "contrarian", by_ticker, functions,
            Preference.over("trade_risk", "neg_sentiment"), priority=0.4,
        ),
    ]
)

engine = ContinuousCAQE(
    workload,
    {q.name: c2(scale=5_000.0) for q in workload},
    CAQEConfig(target_cells=8),
)

print("Continuous CAQE over 4 epochs of 100 quotes + 100 posts each\n")
for epoch in range(4):
    lo, hi = epoch * 100, (epoch + 1) * 100
    result = engine.process_epoch(
        left_delta=quotes.take(np.arange(lo, hi), name="Quotes"),
        right_delta=sentiment.take(np.arange(lo, hi), name="Sentiment"),
    )
    for query in workload:
        live = engine.current_skyline(query.name)
        # The live view must equal a from-scratch evaluation every epoch.
        assert live == reference_evaluate(
            query, engine.left, engine.right
        ).skyline_pairs
        print(
            f"epoch {result.epoch}: {query.name:<11} "
            f"+{len(result.new_results[query.name]):>3} new  "
            f"-{len(result.retracted[query.name]):>3} retracted  "
            f"(live: {len(live):>3}, verified)"
        )
    print()

print(
    f"regions processed: {engine.stats.regions_processed}, "
    f"discarded: {engine.stats.regions_discarded}"
)

print("\nTotal virtual time:", f"{engine.stats.clock.now():,.0f}")
print("Stats:", engine.stats.summary())
