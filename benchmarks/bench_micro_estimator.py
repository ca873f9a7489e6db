"""Micro-benchmark: the optimizer's estimator replayed on one run.

``estimator-replay`` records every call a CAQE run makes into its
``BenefitModel`` — the departure events (``note_removed`` /
``note_deactivation``) and the per-step ``estimate_roots_arrays`` over
the schedulable roots — and replays them on a freshly attached model of
the same run, over {anticorrelated, independent} x {4, 11 queries} at
the ``sched_bound`` shape (N=150, selectivity 0.003, ``target_cells=16``).
With ``--benchmark-disable`` every replayed call is checked against
``prog_ratio x cardinality`` computed from scratch per (root, query), and
the resident state against ``check_invariants``; with timing on, the
replay alone is timed.  Like every micro row it is a diagnostic for
locating estimator cost on another host, not evidence: a performance
claim rests on ``perfbench`` (see ``perfbench/README.md``).

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_micro_estimator.py
"""

import statistics
import time

import numpy as np
import pytest

from repro.bench.figures import workload_of_size
from repro.bench.reporting import render_table
from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair

CARDINALITY = 150
SELECTIVITY = 0.003
REPLAY_ROUNDS = 7


def _recorded_run(distribution, n_queries):
    """``(model, regions, log)``: a freshly attached ``BenefitModel`` of
    the run, the regions it is attached to (by id), and the run's calls
    into its own model, in order — ``("removed", rids)``, ``("deactivated",
    rids, qis)`` and ``("estimate", rid_arr)``."""
    pair = generate_pair(
        distribution, CARDINALITY, 4, selectivity=SELECTIVITY, seed=17
    )
    workload = workload_of_size(n_queries, "C2")
    contracts = {q.name: c2(scale=50.0) for q in workload}
    config = CAQEConfig(workers=0, target_cells=16)
    live = CAQE(config).open_run(pair.left, pair.right, workload, contracts)
    benefit = live.rs.benefit
    log = []

    def recording(kind, method):
        def call(*args, **kwargs):
            log.append((kind, *args, *kwargs.values()))
            return method(*args, **kwargs)

        return call

    benefit.note_removed = recording("removed", benefit.note_removed)
    benefit.note_deactivation = recording("deactivated", benefit.note_deactivation)
    benefit.estimate_roots_arrays = recording("estimate", benefit.estimate_roots_arrays)
    try:
        while not live.done:
            live.step()
    finally:
        live.close()
    # An identical run, never stepped: its model is attached to the same
    # regions and has seen no event.
    fresh = CAQE(config).open_run(pair.left, pair.right, workload, contracts)
    fresh.close()
    return fresh.rs.benefit, dict(fresh.rs.alive), log


def _replay(model, regions, log, check):
    """Replay ``log`` on ``model`` (re-attached to ``regions`` first); the
    seconds spent inside ``estimate_roots_arrays``."""
    model.attach_regions(list(regions.values()))
    spent = 0.0
    for kind, *args in log:
        if kind == "removed":
            model.note_removed(*args)
        elif kind == "deactivated":
            model.note_deactivation(*args)
        else:
            start = time.perf_counter()
            _, prog = model.estimate_roots_arrays(rid_arr=args[0])
            spent += time.perf_counter() - start
            if check:
                _check_call(model, regions, args[0], prog)
    return spent


def _check_call(model, regions, rid_arr, prog):
    scratch = np.zeros_like(prog)
    for k, rid in enumerate(rid_arr.tolist()):
        region = regions[rid]
        row = rid - model._base
        for qi in range(prog.shape[1]):
            if (int(model._rql_all[row]) >> qi) & 1:
                scratch[k, qi] = model.prog_ratio(region, qi) * model.cardinality(
                    region, qi
                )
    assert prog.tolist() == scratch.tolist()
    model.check_invariants()


@pytest.mark.parametrize("n_queries", [4, 11])
@pytest.mark.parametrize("distribution", ["anticorrelated", "independent"])
def bench_micro_estimator_replay(run_once, benchmark, distribution, n_queries):
    """One run's estimate calls, replayed on a fresh model."""
    benchmark.group = f"estimator-replay-{distribution}-{n_queries}q"
    model, regions, log = _recorded_run(distribution, n_queries)
    calls = sum(1 for entry in log if entry[0] == "estimate")
    events = len(log) - calls

    def replay():
        if not benchmark.enabled:
            return [_replay(model, regions, log, check=True)]
        return [
            _replay(model, regions, log, check=False) for _ in range(REPLAY_ROUNDS)
        ]

    spent = run_once(benchmark, replay)
    print()
    print(
        render_table(
            ("distribution", "queries", "regions", "estimate calls", "events",
             "us/call (median round)"),
            [(distribution, n_queries, len(regions), calls, events,
              f"{statistics.median(spent) / max(calls, 1) * 1e6:.0f}")],
            title="estimator replay",
        )
    )
