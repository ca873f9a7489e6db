"""The region lifecycle on arrays against its one-region-at-a-time form.

``LiveRun``'s discard step, degrade and quarantine drive the region
lifecycle (``_retire`` / ``_drop_query`` / ``_release``) with id arrays.
:class:`ScalarLifecycleRun` keeps the loop they replaced — per target,
per query, one ``remove_node`` / ``note_removed`` / ``note_deactivation``
/ ``release_region_for_query`` call at a time — as the reference.  Both
must leave every observable identical: the region trace, the virtual
clock, the charged comparisons, the discard count, the degraded reports
and, per query, the tracker log in order (identity and timestamp — an
emission is stamped with the clock its release finds, so the release
order shows).

Sizes grow with ``REPRO_SCALE`` (the scaled-smoke job runs this module
at 4x), except the continuous run's.
"""

import numpy as np
import pytest

from repro.bench.config import scale_factor
from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.core import caqe as caqe_module
from repro.core import continuous as continuous_module
from repro.core.caqe import LiveRun, _degraded_report, _gather_vectors
from repro.core.continuous import ContinuousCAQE
from repro.datagen import generate_pair
from repro.query import (
    AttributeFilter,
    JoinCondition,
    Op,
    Preference,
    SkylineJoinQuery,
    Workload,
    add,
    reference_evaluate,
    subspace_workload,
)
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import REASON_QUARANTINE
from repro.skyline.dominance import dominance_mask


class ScalarLifecycleRun(LiveRun):
    """:class:`LiveRun` with the lifecycle one region and one query at a
    time, in the order the loop has always visited them."""

    def _retire_one(self, region):
        rs = self.rs
        rid = region.region_id
        del rs.alive[rid]
        rs.graph.remove_node(rid)
        rs.benefit.note_removed(rid)
        self._release_one(rid, region.rql)

    def _release_one(self, rid, rql):
        for qi, query in enumerate(self.rs.workload):
            if (rql >> qi) & 1:
                self.rs.state.release_region_for_query(rid, query.name)

    def _drop_one(self, region, qi):
        rs = self.rs
        region.deactivate_query(qi)
        rs.benefit.note_deactivation(region.region_id, qi)
        rs.state.release_region_for_query(
            region.region_id, rs.workload.queries[qi].name
        )

    def _release(self, rids, masks, with_reports=False):
        # Only the processed region's release reaches here.
        assert not with_reports
        for rid, rql in zip(rids.tolist(), masks.tolist()):
            self._release_one(rid, rql)

    def _discard_dominated(self, targets, edge_masks, outcome):
        rs = self.rs
        successors = dict(zip(targets.tolist(), edge_masks.tolist()))
        regions = [rs.alive[t] for t in successors if t in rs.alive]
        if not regions:
            return
        lowers = np.vstack([t.lower for t in regions])
        dominated = {}
        for qi, query in enumerate(rs.workload):
            keys = outcome.admitted.get(query.name, ())
            if not keys:
                continue
            positions = list(rs.benefit.query_positions[qi])
            points = _gather_vectors(outcome, keys)[:, positions]
            dominated[qi] = dominance_mask(points, lowers[:, positions]).any(axis=0)
        for t_pos, target in enumerate(regions):
            query_mask = successors[target.region_id]
            for qi in range(len(rs.workload)):
                if not ((query_mask >> qi) & 1) or not target.serves(qi):
                    continue
                flags = dominated.get(qi)
                if flags is not None and flags[t_pos]:
                    self._drop_one(target, qi)
            if target.is_discarded:
                rs.stats.record_region_discarded()
                self._retire_one(target)

    def _quarantine(self, region):
        rs = self.rs
        rs.stats.record_region_quarantined()
        now = rs.stats.clock.now()
        for qi, query in enumerate(rs.workload):
            if region.serves(qi):
                rs.degraded[query.name].append(
                    _degraded_report(query.name, region, REASON_QUARANTINE, now)
                )
                rs.stats.record_degraded_reports(1)
        self._retire_one(region)

    def degrade_all(self, reason):
        rs = self.rs
        now = rs.stats.clock.now()
        for qi, query in enumerate(rs.workload):
            if qi in rs.degraded_queries:
                continue
            rs.degraded_queries.add(qi)
            for rid in sorted(rs.alive):
                region = rs.alive[rid]
                if not region.serves(qi):
                    continue
                rs.degraded[query.name].append(
                    _degraded_report(query.name, region, reason, now)
                )
                rs.stats.record_degraded_reports(1)
                self._drop_one(region, qi)
                if region.is_discarded:
                    self._retire_one(region)


@pytest.fixture
def scalar_lifecycle(monkeypatch):
    """Within the test, every run — batch or epoch — is a
    :class:`ScalarLifecycleRun`."""

    def install():
        monkeypatch.setattr(caqe_module, "LiveRun", ScalarLifecycleRun)
        monkeypatch.setattr(continuous_module, "LiveRun", ScalarLifecycleRun)

    return install


def _rows(base):
    return max(int(base * scale_factor()), base)


def _observables(stats, logs, degraded=None):
    return (
        list(stats.region_trace),
        stats.elapsed,
        stats.skyline_comparisons,
        stats.regions_discarded,
        stats.degraded_reports,
        {
            name: [(event.key, event.timestamp) for event in log.events]
            for name, log in logs.items()
        },
        degraded,
    )


def _run(pair, workload, contracts, config, degrade_after=None):
    """One run; with ``degrade_after``, brownout-degrade it after that
    many steps."""
    live = CAQE(config).open_run(pair.left, pair.right, workload, contracts)
    try:
        steps = 0
        while not live.done:
            if steps == degrade_after:
                live.degrade_all("brownout")
                assert live.done
                break
            live.step()
            live.check_invariants()
            steps += 1
    finally:
        live.close()
    result = live.finalize()
    return _observables(result.stats, result.logs, result.degraded)


def _both(scalar_lifecycle, run):
    """``run()`` on the array lifecycle, then on the reference."""
    batch = run()
    scalar_lifecycle()
    reference = run()
    assert batch == reference
    return batch


def _contracts(workload, scale=50.0):
    return {q.name: c2(scale=scale) for q in workload}


@pytest.mark.parametrize("distribution", ["correlated", "independent", "anticorrelated"])
def test_distributions(scalar_lifecycle, distribution):
    pair = generate_pair(distribution, _rows(200), 4, selectivity=0.01, seed=7)
    workload = subspace_workload(4)
    contracts = _contracts(workload)
    # Correlated data on a finer partitioning: one processed region
    # discards hundreds of others.
    config = CAQEConfig(target_cells=32 if distribution == "correlated" else 16)
    observed = _both(
        scalar_lifecycle, lambda: _run(pair, workload, contracts, config)
    )
    if distribution == "correlated":
        assert observed[3] > 0, "the discard step never retired a region"


def test_selections(scalar_lifecycle):
    pair = generate_pair("independent", _rows(150), 4, selectivity=0.05, seed=41)
    jc = JoinCondition.on("jc1", name="JC1")
    fns = tuple(add(f"m{i}", f"m{i}", f"d{i}") for i in (1, 2, 3))
    workload = Workload(
        [
            SkylineJoinQuery("all", jc, fns, Preference.over("d1", "d2")),
            SkylineJoinQuery(
                "cheap_left", jc, fns, Preference.over("d1", "d2"),
                left_filters=(AttributeFilter("m1", Op.LE, 50.0),),
            ),
            SkylineJoinQuery(
                "balanced", jc, fns, Preference.over("d1", "d2", "d3"),
                left_filters=(AttributeFilter("m1", Op.LE, 80.0),),
                right_filters=(AttributeFilter("m2", Op.GE, 20.0),),
            ),
        ]
    )
    contracts = _contracts(workload, scale=1000.0)
    _both(scalar_lifecycle, lambda: _run(pair, workload, contracts, CAQEConfig()))


def test_three_epoch_continuous_run(scalar_lifecycle):
    # Not scaled: a stream's cost grows with its cells times its epochs
    # (ROADMAP item 2), so at 4x this one case would take minutes.
    pair = generate_pair("independent", 60, 4, selectivity=0.08, seed=61)
    workload = subspace_workload(4, priority_scheme="uniform")
    contracts = _contracts(workload, scale=1000.0)

    def run():
        engine = ContinuousCAQE(workload, contracts)
        third = pair.left.cardinality // 3
        observed = []
        for start in (0, third, 2 * third):
            engine.process_epoch(
                left_delta=pair.left.take(np.arange(start, start + third)),
                right_delta=pair.right.take(np.arange(start, start + third)),
            )
            observed.append(_observables(engine.stats, engine.logs))
        return observed

    observed = _both(scalar_lifecycle, run)
    assert observed[-1][3] > 0


def test_brownout_degrade(scalar_lifecycle):
    pair = generate_pair("anticorrelated", _rows(200), 4, selectivity=0.01, seed=5)
    workload = subspace_workload(4)
    contracts = _contracts(workload)
    observed = _both(
        scalar_lifecycle,
        lambda: _run(pair, workload, contracts, CAQEConfig(), degrade_after=4),
    )
    assert observed[4] > 0 and any(
        report.reason == "brownout"
        for reports in observed[6].values()
        for report in reports
    )


def test_budget_degrade_and_quarantine(scalar_lifecycle):
    """The budget's degrade and the quarantine of failing regions."""
    pair = generate_pair("independent", _rows(200), 4, selectivity=0.01, seed=3)
    workload = subspace_workload(4)
    contracts = _contracts(workload)
    full = CAQE().run(pair.left, pair.right, workload, contracts)
    config = CAQEConfig(
        enable_recovery=True,
        query_time_budget=full.stats.elapsed / 2,
        fault_plan=FaultPlan(FaultConfig(seed=3, persistent_failure_rate=0.3)),
    )
    observed = _both(
        scalar_lifecycle, lambda: _run(pair, workload, contracts, config)
    )
    reasons = {
        report.reason for reports in observed[6].values() for report in reports
    }
    assert {"budget", REASON_QUARANTINE} <= reasons


def test_threat_index_is_what_a_restore_rebuilds(monkeypatch):
    """An eviction that empties a region's threat bucket deletes it: after
    every step the live index equals the one ``_restore_run_state``
    rebuilds from ``pending``, and ``check_invariants`` holds."""
    emptied = []
    drop_pending = caqe_module._ReportingState._drop_pending

    def counting(self, query_name, key):
        threats = set(self.pending[query_name].get(key, ()))
        drop_pending(self, query_name, key)
        buckets = self.threats_by_region[query_name]
        emptied.extend(rid for rid in threats if rid not in buckets)

    monkeypatch.setattr(caqe_module._ReportingState, "_drop_pending", counting)
    pair = generate_pair("independent", _rows(200), 4, selectivity=0.01, seed=7)
    workload = subspace_workload(4)
    live = CAQE(CAQEConfig()).open_run(
        pair.left, pair.right, workload, _contracts(workload)
    )
    try:
        while not live.done:
            live.step()
            live.check_invariants()
            state = live.rs.state
            for name, pending in state.pending.items():
                rebuilt = {}
                for key, rids in pending.items():
                    for rid in rids:
                        rebuilt.setdefault(rid, set()).add(key)
                assert state.threats_by_region[name] == rebuilt
    finally:
        live.close()
    assert emptied, "no eviction emptied a threat bucket"


def test_check_invariants_catches_an_empty_threat_bucket():
    pair = generate_pair("independent", 120, 4, selectivity=0.02, seed=3)
    workload = subspace_workload(4)
    live = CAQE(CAQEConfig()).open_run(
        pair.left, pair.right, workload, _contracts(workload)
    )
    try:
        live.check_invariants()
        qi, name = 0, workload.names[0]
        rid = int(live.rs.benefit.active_serving(qi)[0][0])
        live.rs.state.threats_by_region[name][rid] = set()
        with pytest.raises(AssertionError, match="empty threat bucket"):
            live.check_invariants()
    finally:
        live.close()


def test_a_workload_wider_than_32_queries(scalar_lifecycle, monkeypatch):
    """57 queries: the query bitmaps of the coarse skyline, the dependency
    graph and the discard step come from 64-bit table words.  The run
    answers every query as the reference evaluator does, and its discard
    step drops queries above bit 32 as the one-region-at-a-time
    lifecycle does."""
    pair = generate_pair("correlated", _rows(150), 6, selectivity=0.02, seed=67)
    workload = subspace_workload(6)
    assert len(workload) == 57
    contracts = _contracts(workload, scale=1000.0)
    config = CAQEConfig(target_cells=32)
    result = CAQE(config).run(pair.left, pair.right, workload, contracts)
    for query in workload:
        reference = reference_evaluate(query, pair.left, pair.right)
        assert result.reported[query.name] == reference.skyline_pairs, query.name

    dropped = []
    drop_query = LiveRun._drop_query

    def recording(self, rids, masks, *args, **kwargs):
        dropped.extend(masks.tolist())
        return drop_query(self, rids, masks, *args, **kwargs)

    monkeypatch.setattr(LiveRun, "_drop_query", recording)
    _both(scalar_lifecycle, lambda: _run(pair, workload, contracts, config))
    assert any(mask >> 32 for mask in dropped), "no query above bit 32 dropped"
