"""The five workloads: inputs from a seed, and one cold execution each.

Every workload pins ``workers=0`` and builds its ``ExperimentConfig`` /
``CAQEConfig`` explicitly — never through ``experiment_for()`` — so
``REPRO_SCALE`` and ``CAQE_TEST_WORKERS`` cannot change what is measured.
The engine is driven only through its public surface: ``CAQE(config)
.open_run -> LiveRun.step/close/finalize`` with a caller-supplied
``ExecutionStats``, and ``RegionScheduler.submit/step/close``.

A *run* is a fixed number of back-to-back cold executions, each on its own
dataset drawn from ``(seed, i)`` with contracts calibrated on that dataset:
the cost split of this engine depends on the data (how many regions
survive the look-ahead, how deep the dependency graph is), and one dataset
per run would make a run's reading a property of that dataset rather than
of the code.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.bench.config import ExperimentConfig
from repro.bench.figures import workload_of_size
from repro.bench.runner import (
    calibrated_contracts,
    make_pair,
    make_workload,
    reference_time,
)
from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.core.stats import ExecutionStats
from repro.query.workload import subspace_workload
from repro.robustness import TenantBurstPlan
from repro.serving import ANSWERED, DEGRADED, POLICY_BENEFIT, RegionScheduler

#: ``ExecutionStats`` counters summed into every execution record.
COUNTERS = (
    "join_results",
    "join_probes",
    "tuples_inserted",
    "skyline_comparisons",
    "coarse_comparisons",
    "regions_processed",
    "regions_discarded",
    "results_reported",
)


@dataclass(frozen=True)
class Batch:
    """One ``open_run -> step* -> close -> finalize`` workload."""

    name: str
    distribution: str
    cardinality: int
    #: Cardinality the JFSL reference run is calibrated at (the
    #: distribution's 1x size); ``T_ref`` scales linearly from there.
    ref_cardinality: int
    selectivity: float
    #: A run takes ``seconds / dataset_s`` datasets.  Sized so that a whole
    #: run — set-up probes, generation, calibration, the executions, the
    #: oracle on a cold cache — ends within ``seconds`` on the reference
    #: host at its usual speed.
    dataset_s: float
    journal: bool = False

    def scaled(self, rows: int) -> "Batch":
        rows = min(rows, self.cardinality)
        return replace(
            self, cardinality=rows, ref_cardinality=min(rows, self.ref_cardinality)
        )


@dataclass(frozen=True)
class Serving:
    """One multi-tenant burst scenario on a ``RegionScheduler``."""

    name: str
    cardinality: int
    #: Measure dimensions of the tables; the heavy submissions carry every
    #: subspace query over them, the light ones ``light_queries`` of those.
    dims: int
    light_queries: int
    selectivity: float
    subs_per_tenant: int
    #: Submissions per scenario that carry the 11-query workload (the
    #: rest carry the 4-query one).  Fixed, at shuffled positions: a coin
    #: per submission would let the heavy count — and with it the wall —
    #: swing by tens of percent from seed to seed.
    heavy: int
    dataset_s: float

    def scaled(self, rows: int) -> "Serving":
        if rows >= self.cardinality:
            return self
        return replace(self, cardinality=rows, subs_per_tenant=2, heavy=2)


#: Tenant mix of ``serving_burst``: (name, fair-share weight, SLO tier).
TENANTS = (("gold", 4.0, 0), ("silver", 2.0, 1), ("bronze-a", 1.0, 2),
           ("bronze-b", 1.0, 2))
BASE_LOAD = 0.9
BURST_FACTOR = 2.2
BURST_DUTY = 0.25
DEADLINE_FACTOR = 6.0
#: One quad-tree split of 3-d tables gives 8 leaves of ~N/8 rows; a leaf
#: capacity of N/4 keeps every leaf well clear of a second split, so the
#: cell count (and with it the region count) does not flip between seeds.
SERVING_TARGET_CELLS = 8

#: Why each workload exists is recorded where it is registered
#: (``BENCHMARK.json``) and argued in the README.
WORKLOADS = {
    w.name: w
    for w in (
        Batch(
            name="sched_bound",
            distribution="anticorrelated",
            cardinality=150,
            ref_cardinality=150,
            selectivity=0.003,
            dataset_s=0.38,
        ),
        Batch(
            name="commit_bound",
            distribution="independent",
            cardinality=4800,
            ref_cardinality=600,
            selectivity=0.008,
            dataset_s=5.6,
        ),
        Batch(
            name="lookahead_bound",
            distribution="correlated",
            cardinality=1200,
            ref_cardinality=1200,
            selectivity=0.003,
            dataset_s=1.15,
        ),
        Batch(
            name="journaled",
            distribution="independent",
            cardinality=2400,
            ref_cardinality=600,
            selectivity=0.006,
            dataset_s=3.5,
            journal=True,
        ),
        Serving(
            name="serving_burst",
            cardinality=250,
            dims=3,
            light_queries=2,
            selectivity=0.05,
            subs_per_tenant=8,
            heavy=6,
            dataset_s=3.2,
        ),
    )
}


def data_seed(seed: int, index: int) -> int:
    """The seed of dataset ``index`` of a run: a pure function of both."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def engine_config(journal_dir: "str | None" = None) -> CAQEConfig:
    return CAQEConfig(
        target_cells=16,
        workers=0,
        enable_journal=journal_dir is not None,
        journal_dir=journal_dir,
    )


def _experiment(spec: Batch, cardinality: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        spec.distribution,
        cardinality=cardinality,
        selectivity=spec.selectivity,
        seed=seed,
        caqe=engine_config(),
    )


# ---------------------------------------------------------------------- #
# Set-up: data generation and contract calibration
# ---------------------------------------------------------------------- #
def generate(spec, seed: int, index: int = 0) -> dict:
    """Relations and query workloads of dataset ``index`` of the run
    seeded ``seed`` (no contracts yet)."""
    seed = data_seed(seed, index)
    if isinstance(spec, Batch):
        config = _experiment(spec, spec.cardinality, seed)
        return {
            "seed": seed,
            "pair": make_pair(config),
            "workloads": {"all": make_workload(config, "C2")},
        }
    config = ExperimentConfig(
        "independent",
        spec.cardinality,
        dims=spec.dims,
        selectivity=spec.selectivity,
        seed=seed,
    )
    return {
        "seed": seed,
        # The traffic pattern (who bursts and when, where the heavy
        # submissions fall, the arrival jitter) is a property of the
        # scenario's position in the run, not of the run's seed: drawn
        # per seed, it alone moved the mean answer latency of a scenario
        # by 26 % (CV) and its satisfaction by 8 %, against 5 % and 1.5 %
        # for the data.  Every run plays the same patterns on its own data.
        "pattern": index,
        "pair": make_pair(config),
        "workloads": {
            "small": workload_of_size(spec.light_queries, "C2", spec.dims),
            "large": subspace_workload(spec.dims, priority_scheme="uniform"),
        },
    }


def calibrate(spec, data: dict) -> dict:
    """The run's contract scale, measured on ``data`` (virtual clock only).

    Batch: C2 contracts from the blocking JFSL reference time at the
    distribution's 1x cardinality, scaled linearly to the workload's —
    JFSL is superlinear, so re-running it at full size would time the
    baseline, not the engine.  Serving: the two-pass calibration of
    ``benchmarks/bench_serving.py`` (an unloaded small run is fully
    satisfied; arrivals are paced by the measured virtual service times).
    """
    pair = data["pair"]
    if isinstance(spec, Batch):
        ref = _experiment(spec, spec.ref_cardinality, data["seed"])
        ref_pair = (
            pair if spec.ref_cardinality == spec.cardinality else make_pair(ref)
        )
        t_ref = reference_time(ref_pair, data["workloads"]["all"], ref)
        return {"t_ref": t_ref * spec.cardinality / spec.ref_cardinality}
    small, large = data["workloads"]["small"], data["workloads"]["large"]
    config = CAQEConfig(target_cells=SERVING_TARGET_CELLS, workers=0)

    def service(workload, scale: float) -> float:
        contracts = {q.name: c2(scale=scale) for q in workload}
        result = CAQE(config).run(pair.left, pair.right, workload, contracts)
        return result.stats.elapsed

    scale = 0.4 * service(small, 1.0)
    s_small, s_large = service(small, scale), service(large, scale)
    total = len(TENANTS) * spec.subs_per_tenant
    heavy_share = spec.heavy / total
    return {
        "scale": scale,
        "service_mean": (1.0 - heavy_share) * s_small + heavy_share * s_large,
        "deadline": DEADLINE_FACTOR * s_small,
    }


def contracts_for(spec, data: dict, calibration: dict) -> dict:
    if isinstance(spec, Batch):
        workload = data["workloads"]["all"]
        return {
            "all": calibrated_contracts("C2", workload, calibration["t_ref"])
        }
    return {
        kind: {q.name: c2(scale=calibration["scale"]) for q in workload}
        for kind, workload in data["workloads"].items()
    }


# ---------------------------------------------------------------------- #
# One cold execution
# ---------------------------------------------------------------------- #
def _root_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _tree_bytes(directory: str, prefix: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
        if name.startswith(prefix)
    )


def execute(spec, data: dict, calibration: dict, tracer, workdir: str) -> dict:
    """One cold execution on a fresh engine; times are wall seconds.

    ``tracer`` only adds the root span (layer spans come from
    ``trace.installed``).
    """
    gc.collect()
    if isinstance(spec, Batch):
        return _execute_batch(spec, data, calibration, tracer, workdir)
    return _execute_serving(spec, data, calibration, tracer)


def _execute_batch(spec, data, calibration, tracer, workdir) -> dict:
    pair = data["pair"]
    workload = data["workloads"]["all"]
    contracts = contracts_for(spec, data, calibration)["all"]
    journal_dir = (
        tempfile.mkdtemp(prefix="journal-", dir=workdir) if spec.journal else None
    )
    config = engine_config(journal_dir)
    stats = ExecutionStats.with_cost_model(config.cost_model)
    clock = time.perf_counter
    steps: "list[float]" = []
    ttfr = None
    try:
        with _root_span(tracer, "exec"):
            start = clock()
            live = CAQE(config).open_run(
                pair.left, pair.right, workload, contracts, stats
            )
            try:
                while not live.done:
                    mark = clock()
                    live.step()
                    now = clock()
                    steps.append(now - mark)
                    if ttfr is None and stats.results_reported > 0:
                        ttfr = now - start
            finally:
                live.close()
            result = live.finalize()
            end = clock()
        written = (
            {
                "journal_bytes": _tree_bytes(journal_dir, "journal"),
                "snapshot_bytes": _tree_bytes(journal_dir, "snapshot-"),
            }
            if journal_dir
            else {}
        )
    finally:
        if journal_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return {
        "wall_s": end - start,
        # No result at all would be a wall-long wait for the first one.
        "ttfr_s": ttfr if ttfr is not None else end - start,
        "steps_s": steps,
        "satisfaction": result.average_satisfaction(),
        "virtual_time": stats.elapsed,
        "counts": {name: getattr(stats, name) for name in COUNTERS},
        "answers": [("all", result.reported)],
        "lost": 0,
        "approximate": 0,
        **written,
    }


def _rebased_satisfaction(result, arrival: float) -> float:
    """Contract satisfaction with timestamps measured from the
    submission's own arrival on the shared virtual clock."""
    values = []
    for query in result.workload:
        log = result.logs[query.name]
        stamps = np.maximum(np.asarray(log.timestamps, dtype=float) - arrival, 0.0)
        values.append(
            result.contracts[query.name].satisfaction(
                stamps, float(len(log)), max(result.horizon - arrival, 0.0)
            )
        )
    return float(np.mean(values)) if values else 0.0


def _execute_serving(spec, data, calibration, tracer) -> dict:
    """Closed-loop tenants on the scheduler's own virtual clock, as
    ``benchmarks/bench_serving.py::run_arm`` (benefit policy, bursts on)."""
    pair, pattern = data["pair"], data["pattern"]
    contracts = contracts_for(spec, data, calibration)
    n_tenants = len(TENANTS)
    base_gap = n_tenants * calibration["service_mean"] / BASE_LOAD
    plan = TenantBurstPlan(
        seed=pattern,
        burst_fraction=0.75,
        burst_factor=BURST_FACTOR,
        burst_period=8.0 * base_gap,
        burst_duty=BURST_DUTY,
    )
    total = n_tenants * spec.subs_per_tenant
    kinds = ["large"] * spec.heavy + ["small"] * (total - spec.heavy)
    random.Random(pattern).shuffle(kinds)
    rngs = [random.Random((pattern << 8) ^ idx) for idx in range(n_tenants)]
    next_at = [idx * base_gap / n_tenants for idx in range(n_tenants)]
    remaining = [spec.subs_per_tenant] * n_tenants

    clock = time.perf_counter
    arrivals: "dict[int, tuple[str, float, float]]" = {}
    finished: "list[dict]" = []
    totals = dict.fromkeys(COUNTERS, 0)

    def on_finish(ticket, outcome, _breaker_failure) -> None:
        kind, arrival, submitted = arrivals[ticket.ticket_id]
        result = outcome.result
        row = {
            "status": outcome.status,
            "kind": kind,
            "satisfaction": 0.0,
            "latency_s": clock() - submitted,
        }
        if result is not None:
            row["satisfaction"] = _rebased_satisfaction(result, arrival)
            row["reported"] = result.reported
            for name in COUNTERS:
                totals[name] += getattr(result.stats, name)
        finished.append(row)

    config = CAQEConfig(
        target_cells=SERVING_TARGET_CELLS,
        workers=0,
        server_mode="interleaved",
        tenant_fairness_pressure=1.0,
        tenant_brownout_defer_live=9,
        tenant_brownout_degrade_live=9,
        tenant_brownout_shed_live=11,
    )
    steps: "list[float]" = []
    with _root_span(tracer, "exec"):
        start = clock()
        sched = RegionScheduler(
            pair.left, pair.right, config, policy=POLICY_BENEFIT,
            on_finish=on_finish,
        )
        for name, weight, tier in TENANTS:
            sched.register_tenant(name, weight=weight, tier=tier, max_live=6)
        while any(remaining) or not sched.idle:
            now = sched.clock.now()
            for idx, (name, _weight, _tier) in enumerate(TENANTS):
                while remaining[idx] and next_at[idx] <= now:
                    kind = kinds.pop()
                    submitted = clock()
                    ticket = sched.submit(
                        data["workloads"][kind],
                        contracts[kind],
                        tenant=name,
                        deadline=calibration["deadline"],
                    )
                    if ticket:
                        arrivals[ticket.ticket_id] = (kind, now, submitted)
                    remaining[idx] -= 1
                    mult = (
                        plan.rate_multiplier(idx, now)
                        if plan.is_bursty(idx)
                        else 1.0
                    )
                    jitter = 0.8 + 0.4 * rngs[idx].random()
                    next_at[idx] += base_gap * jitter / mult
            mark = clock()
            stepped = sched.step()
            if stepped:
                steps.append(clock() - mark)
            elif any(remaining):
                # Idle with future arrivals only: jump the shared clock.
                upcoming = min(
                    next_at[i] for i in range(n_tenants) if remaining[i]
                )
                sched.clock.advance(max(upcoming - sched.clock.now(), 1e-9))
        sched.close()
        end = clock()
    served = [row for row in finished if row["status"] in (ANSWERED, DEGRADED)]
    return {
        "wall_s": end - start,
        # A served run has no single first result: the tenant-visible
        # wait is submit -> answer, so report the mean over submissions
        # (a lost one waits the whole scenario).
        "ttfr_s": (
            sum(row["latency_s"] for row in served)
            + (end - start) * (total - len(served))
        )
        / total,
        "steps_s": steps,
        "satisfaction": sum(row["satisfaction"] for row in finished) / total,
        "virtual_time": sched.clock.now(),
        "counts": totals,
        "scheduler": dict(sched.metrics),
        "answers": [
            (row["kind"], row["reported"])
            for row in served
            if row["status"] == ANSWERED
        ],
        # Rejected, failed, cancelled or never finished: a failure each.
        "lost": total - len(served),
        # Answered from coarse bounds at the deadline or under brownout:
        # approximate by contract, so counted but not held to the oracle.
        "approximate": sum(row["status"] == DEGRADED for row in served),
    }
