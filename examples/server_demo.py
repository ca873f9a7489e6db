#!/usr/bin/env python3
"""Concurrent serving demo: the Figure-1 workload through ``CAQEServer``.

Walks the overload-safe serving layer (docs/ARCHITECTURE.md §10.6) end
to end:

1. a normal submission — answered exactly;
2. a submission with a tight virtual-time deadline — finishes past its
   budget with degraded (MQLA-bound) answers instead of running on;
3. a cancelled submission — the cooperative token stops the run at the
   next region boundary;
4. **overload** — a burst of ten submissions against a bound of two
   live ones: whatever does not fit is shed with an explicit
   ``Rejected(reason="queue_full")``; nothing blocks, nothing deadlocks,
   and every admitted submission still terminates;
5. a circuit breaker — a workload whose every run quarantines regions
   trips its per-signature breaker, later submissions shed with
   ``Rejected(reason="circuit_open")`` until a cooldown admits a
   half-open trial.

Run:  python examples/server_demo.py
"""

from repro import CAQEConfig, c2, generate_pair
from repro.query import JoinCondition, Preference, SkylineJoinQuery, add
from repro.query.workload import Workload
from repro.robustness import FaultConfig, FaultPlan, RetryPolicy
from repro.serving import CAQEServer, CancellationToken, Rejected

SEED = 23

# The Figure-1 workload: Q1..Q4 over output dimensions d1..d4.
jc = JoinCondition.on("jc1", name="JC1")
fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in range(1, 5))
workload = Workload(
    [
        SkylineJoinQuery("Q1", jc, fns[:2], Preference.over("d1", "d2")),
        SkylineJoinQuery("Q2", jc, fns[:3], Preference.over("d1", "d2", "d3")),
        SkylineJoinQuery("Q3", jc, fns[1:3], Preference.over("d2", "d3")),
        SkylineJoinQuery("Q4", jc, fns[1:4], Preference.over("d2", "d3", "d4")),
    ]
)
pair = generate_pair("independent", 150, 4, selectivity=0.05, seed=SEED)
contracts = {q.name: c2(scale=100.0) for q in workload}


def show(label, outcome):
    line = f"  {label}: {outcome.status}"
    if outcome.result is not None:
        reported = sum(len(v) for v in outcome.result.reported.values())
        line += (
            f"  reported={reported}"
            f"  degraded_reports={outcome.result.stats.degraded_reports}"
            f"  t={outcome.result.horizon:g}"
        )
    if outcome.error:
        line += f"  ({outcome.error})"
    print(line)


print("=== deadlines and cancellation ===")
with CAQEServer(pair.left, pair.right, CAQEConfig()) as server:
    normal = server.submit(workload, contracts)
    tight = server.submit(workload, contracts, deadline=5_000.0)
    token = CancellationToken()
    doomed = server.submit(workload, contracts, cancel_token=token)
    token.cancel()
    show("normal   ", normal.result())
    show("deadline ", tight.result())
    show("cancelled", doomed.result())

print("\n=== overload: explicit shedding, no deadlock ===")
config = CAQEConfig(server_queue_limit=2)
with CAQEServer(pair.left, pair.right, config) as server:
    # The bound is on live submissions; how many of the burst fit depends
    # on how many regions the driver thread got through between submits.
    burst = [server.submit(workload, contracts) for _ in range(10)]
    shed = [r for r in burst if isinstance(r, Rejected)]
    print(f"  live bound 2; burst of {len(burst)} submissions")
    print(f"  shed with Rejected(reason='queue_full'): {len(shed)}")
    for i, ticket in enumerate(t for t in burst if t):
        show(f"admitted #{i + 1}", ticket.result())
    print(f"  metrics: {dict(server.metrics)}")

print("\n=== circuit breaker: quarantine-heavy workload ===")
toxic = CAQEConfig(
    enable_recovery=True,
    retry_policy=RetryPolicy(max_attempts=1),
    fault_plan=FaultPlan(FaultConfig(seed=SEED, persistent_failure_rate=1.0)),
    server_breaker_threshold=2,
    server_breaker_cooldown=2,
)
with CAQEServer(pair.left, pair.right, toxic) as server:
    for attempt in range(1, 3):
        outcome = server.submit(workload, contracts).result()
        show(f"failing run #{attempt}", outcome)
    tripped = server.submit(workload, contracts)
    print(f"  next submission: Rejected(reason={tripped.reason!r})")
    # Each shed submission is a cooldown event; once the cooldown is
    # spent, one half-open trial is admitted.
    trial = server.submit(workload, contracts)
    while isinstance(trial, Rejected):
        trial = server.submit(workload, contracts)
    show("half-open trial", trial.result())
    print(f"  metrics: {dict(server.metrics)}")

print("\nEvery admitted submission terminated; every shed one was explicit.")
