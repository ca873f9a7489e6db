"""RegionScheduler: cross-tenant interleaving, fairness, brownout ladder.

Everything here is single-threaded and driven on the scheduler's own
virtual clock (``submit`` + ``step``/``drain``), so ordering assertions
are exact, not races.  ``CAQEServer`` — the same scheduler plus a
driver thread — gets a thin end-to-end slice at the bottom and its own
file (``test_server.py``); the scheduler owns the semantics.
"""

import pytest

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.query.workload import subspace_workload
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy
from repro.serving import (
    ANSWERED,
    CANCELLED,
    CAQEServer,
    DEGRADED,
    FAILED,
    OUTCOME_BREAKER,
    OUTCOME_BROWNOUT,
    OUTCOME_DEADLINE,
    POLICY_FIFO,
    REASON_BROWNOUT_SHED,
    REASON_BULKHEAD,
    REASON_QUEUE_FULL,
    REASON_SERVER_CLOSED,
    RegionScheduler,
    Rejected,
    TenantSpec,
)

WAIT = 120.0


class CountdownToken:
    """Duck-typed token that cancels after ``n`` region-boundary polls."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def cancel(self) -> None:
        self.remaining = 0

    def is_cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0


@pytest.fixture(scope="module")
def pair():
    return generate_pair("independent", 60, 4, selectivity=0.05, seed=17)


@pytest.fixture(scope="module")
def contracts(figure1_workload):
    return {q.name: c2(scale=100.0) for q in figure1_workload}


def _toxic_config(**knobs) -> CAQEConfig:
    """Every run quarantines all regions; one failure opens the breaker
    and one shed submission spends its cooldown."""
    return CAQEConfig(
        enable_recovery=True,
        retry_policy=RetryPolicy(max_attempts=1),
        fault_plan=FaultPlan(FaultConfig(seed=5, persistent_failure_rate=1.0)),
        server_breaker_threshold=1,
        server_breaker_cooldown=1,
        **knobs,
    )


def _finish_order(sched):
    """Attach a completion recorder; returns the mutable order list."""
    order = []
    sched._on_finish = lambda ticket, outcome, bf: order.append(
        (ticket.ticket_id, outcome.status, outcome.reasons)
    )
    return order


class TestSingleTenantEquivalence:
    def test_bit_identical_to_direct_run(
        self, pair, figure1_workload, contracts
    ):
        direct = CAQE(CAQEConfig()).run(
            pair.left, pair.right, figure1_workload, contracts
        )
        with RegionScheduler(pair.left, pair.right) as sched:
            ticket = sched.submit(figure1_workload, contracts)
            sched.drain()
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == ANSWERED
        served = outcome.result
        assert served.reported == direct.reported
        assert served.stats.region_trace == direct.stats.region_trace
        assert (
            served.stats.skyline_comparisons
            == direct.stats.skyline_comparisons
        )
        assert served.stats.elapsed == direct.stats.elapsed

    def test_fifo_policy_is_also_bit_identical(
        self, pair, figure1_workload, contracts
    ):
        direct = CAQE(CAQEConfig()).run(
            pair.left, pair.right, figure1_workload, contracts
        )
        with RegionScheduler(
            pair.left, pair.right, policy=POLICY_FIFO
        ) as sched:
            ticket = sched.submit(figure1_workload, contracts)
            sched.drain()
            outcome = ticket.result(timeout=WAIT)
        served = outcome.result
        assert served.reported == direct.reported
        assert served.stats.region_trace == direct.stats.region_trace
        assert (
            served.stats.skyline_comparisons
            == direct.stats.skyline_comparisons
        )
        assert served.stats.elapsed == direct.stats.elapsed


class TestAdmissionControl:
    def test_bulkhead_rejects_beyond_tenant_cap(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            sched.register_tenant("t", max_live=1)
            first = sched.submit(figure1_workload, contracts, tenant="t")
            second = sched.submit(figure1_workload, contracts, tenant="t")
            assert first and not isinstance(first, Rejected)
            assert isinstance(second, Rejected)
            assert second.reason == REASON_BULKHEAD
            assert sched.metrics["rejected_bulkhead"] == 1

    def test_global_queue_limit_rejects(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(server_queue_limit=1)
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.register_tenant("a")
            sched.register_tenant("b")
            assert sched.submit(figure1_workload, contracts, tenant="a")
            second = sched.submit(figure1_workload, contracts, tenant="b")
            assert isinstance(second, Rejected)
            assert second.reason == REASON_QUEUE_FULL

    @pytest.mark.parametrize("policy", ["benefit", "fifo"])
    def test_four_x_overload_sheds_exactly_the_excess(
        self, pair, figure1_workload, contracts, policy
    ):
        """No thread, so live occupancy is exact: the bound admits two
        and every one of the eight beyond it is shed, none blocks."""
        config = CAQEConfig(server_queue_limit=2)
        with RegionScheduler(
            pair.left, pair.right, config, policy=policy
        ) as sched:
            admitted = [
                sched.submit(figure1_workload, contracts) for _ in range(2)
            ]
            assert all(t and not isinstance(t, Rejected) for t in admitted)
            shed = [
                sched.submit(figure1_workload, contracts) for _ in range(8)
            ]
            assert all(isinstance(r, Rejected) for r in shed)
            assert {r.reason for r in shed} == {REASON_QUEUE_FULL}
            sched.drain()
            assert [t.result(timeout=WAIT).status for t in admitted] == [
                ANSWERED,
                ANSWERED,
            ]
            # The bound is on *live* submissions: drained, it admits again.
            assert sched.submit(figure1_workload, contracts)
        assert sched.metrics["submitted"] == 11
        assert sched.metrics["admitted"] == 3
        assert sched.metrics["rejected_queue_full"] == 8
        assert sched.metrics["answered"] == 3

    @pytest.mark.parametrize("policy", ["benefit", "fifo"])
    def test_half_open_trial_shed_by_the_queue_bound_reopens_its_breaker(
        self, pair, figure1_workload, contracts, policy
    ):
        config = _toxic_config(server_queue_limit=1)
        other = subspace_workload(2)
        with RegionScheduler(
            pair.left, pair.right, config, policy=policy
        ) as sched:
            sched.submit(figure1_workload, contracts)
            sched.drain()  # quarantines every region: breaker opens
            blocker = sched.submit(
                other, {q.name: c2(scale=100.0) for q in other}
            )
            assert blocker and not isinstance(blocker, Rejected)
            # Cooldown spent: the breaker lets this trial through, the
            # queue bound then sheds it — which must not strand the
            # breaker half-open.
            shed = sched.submit(figure1_workload, contracts)
            assert isinstance(shed, Rejected)
            assert shed.reason == REASON_QUEUE_FULL
            sched.drain()
            trial = sched.submit(figure1_workload, contracts)
            assert trial and not isinstance(trial, Rejected)

    def test_cancelled_half_open_trial_reopens_its_breaker(
        self, pair, figure1_workload, contracts
    ):
        config = _toxic_config()
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.submit(figure1_workload, contracts)
            sched.drain()  # breaker opens
            trial = sched.submit(figure1_workload, contracts)
            trial.cancel()
            sched.drain()
            assert trial.result(timeout=WAIT).status == CANCELLED
            # A cancelled trial proved nothing; it must not leave the
            # breaker half-open (where nothing is ever admitted again).
            retrial = sched.submit(figure1_workload, contracts)
            assert retrial and not isinstance(retrial, Rejected)

    def test_closed_scheduler_sheds_with_reason(
        self, pair, figure1_workload, contracts
    ):
        sched = RegionScheduler(pair.left, pair.right)
        sched.close()
        outcome = sched.submit(figure1_workload, contracts)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == REASON_SERVER_CLOSED

    def test_nonpositive_deadline_is_a_value_error(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            with pytest.raises(ValueError, match="deadline"):
                sched.submit(figure1_workload, contracts, deadline=0.0)

    def test_reregister_while_live_is_a_value_error(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            sched.register_tenant("t", weight=2.0)
            sched.submit(figure1_workload, contracts, tenant="t")
            with pytest.raises(ValueError, match="live"):
                sched.register_tenant("t", weight=3.0)
            sched.drain()
            # Idle again: re-registration is allowed.
            spec = sched.register_tenant("t", weight=3.0)
            assert spec.weight == 3.0


class TestBrownoutLadder:
    def test_rung1_defers_low_tiers_until_top_tier_finishes(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(
            tenant_brownout_defer_live=2,
            tenant_brownout_degrade_live=99,
            tenant_brownout_shed_live=99,
        )
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.register_tenant("gold", tier=0)
            sched.register_tenant("bronze", tier=2)
            order = _finish_order(sched)
            bronze = sched.submit(figure1_workload, contracts, tenant="bronze")
            gold = sched.submit(figure1_workload, contracts, tenant="gold")
            sched.drain()
        # Gold arrived second but finishes first: rung 1 makes the
        # lower tier ineligible while the live count sits at the
        # defer threshold.
        assert [sid for sid, _, _ in order] == [
            gold.ticket_id,
            bronze.ticket_id,
        ]
        assert all(status == ANSWERED for _, status, _ in order)

    def test_rung2_degrades_youngest_lowest_tier_to_bounds(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(
            tenant_brownout_defer_live=2,
            tenant_brownout_degrade_live=2,
            tenant_brownout_shed_live=99,
        )
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.register_tenant("bronze", tier=2, max_live=4)
            first = sched.submit(figure1_workload, contracts, tenant="bronze")
            second = sched.submit(figure1_workload, contracts, tenant="bronze")
            runs = [sub.live for sub in sched._live.values()]
            sched.step()
            for live in runs:
                live.check_invariants()
            # The youngest submission was browned out on the first step.
            assert runs[1].done
            brown = second.result(timeout=WAIT)
            assert brown.status == DEGRADED
            assert OUTCOME_BROWNOUT in brown.reasons
            assert brown.result is not None
            assert all(
                report.reason == "brownout"
                for reports in brown.result.degraded.values()
                for report in reports
            )
            while sched.step():
                runs[0].check_invariants()
            assert first.result(timeout=WAIT).status == ANSWERED
            assert sched.metrics["brownout_degraded"] == 1

    def test_rung2_never_touches_tier0(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(
            tenant_brownout_defer_live=2,
            tenant_brownout_degrade_live=2,
            tenant_brownout_shed_live=99,
        )
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.register_tenant("gold", tier=0, max_live=4)
            first = sched.submit(figure1_workload, contracts, tenant="gold")
            second = sched.submit(figure1_workload, contracts, tenant="gold")
            sched.drain()
        assert first.result(timeout=WAIT).status == ANSWERED
        assert second.result(timeout=WAIT).status == ANSWERED
        assert sched.metrics["brownout_degraded"] == 0

    def test_rung3_sheds_new_non_tier0_submissions(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(
            tenant_brownout_defer_live=2,
            tenant_brownout_degrade_live=2,
            tenant_brownout_shed_live=2,
        )
        with RegionScheduler(pair.left, pair.right, config) as sched:
            sched.register_tenant("gold", tier=0, max_live=8)
            sched.register_tenant("bronze", tier=2, max_live=8)
            assert sched.submit(figure1_workload, contracts, tenant="bronze")
            assert sched.submit(figure1_workload, contracts, tenant="bronze")
            shed = sched.submit(figure1_workload, contracts, tenant="bronze")
            assert isinstance(shed, Rejected)
            assert shed.reason == REASON_BROWNOUT_SHED
            # Tier 0 is exempt from shedding at the same live count.
            admitted = sched.submit(figure1_workload, contracts, tenant="gold")
            assert admitted and not isinstance(admitted, Rejected)
            sched.drain()
            assert sched.metrics["rejected_brownout"] == 1

    def test_fifo_policy_disables_the_ladder(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(
            tenant_brownout_defer_live=2,
            tenant_brownout_degrade_live=2,
            tenant_brownout_shed_live=2,
        )
        with RegionScheduler(
            pair.left, pair.right, config, policy=POLICY_FIFO
        ) as sched:
            sched.register_tenant("bronze", tier=2, max_live=8)
            tickets = [
                sched.submit(figure1_workload, contracts, tenant="bronze")
                for _ in range(3)
            ]
            assert all(t and not isinstance(t, Rejected) for t in tickets)
            sched.drain()
        assert all(
            t.result(timeout=WAIT).status == ANSWERED for t in tickets
        )
        assert sched.metrics["brownout_degraded"] == 0


class TestDeadlinesAndCancellation:
    def test_expired_deadline_degrades_with_deadline_reason(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            ticket = sched.submit(figure1_workload, contracts, deadline=1.0)
            sched.drain()
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == DEGRADED
        assert OUTCOME_DEADLINE in outcome.reasons
        assert outcome.result is not None
        assert all(
            report.reason == "deadline"
            for reports in outcome.result.degraded.values()
            for report in reports
        )

    def test_cancel_preempts_at_the_next_region_boundary(
        self, pair, figure1_workload, contracts
    ):
        token = CountdownToken(2)
        with RegionScheduler(pair.left, pair.right) as sched:
            ticket = sched.submit(
                figure1_workload, contracts, cancel_token=token
            )
            sched.drain()
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == CANCELLED
        assert sched.metrics["cancelled"] == 1

    def test_cancelled_before_start(self, pair, figure1_workload, contracts):
        with RegionScheduler(pair.left, pair.right) as sched:
            ticket = sched.submit(figure1_workload, contracts)
            ticket.cancel()
            sched.drain()
            assert ticket.result(timeout=WAIT).status == CANCELLED


class TestFailedOutcomes:
    def test_every_failed_path_carries_the_breaker_reason(
        self, pair, figure1_workload, contracts
    ):
        """A raised prologue and a raised step both count against the
        breaker, so both outcomes say so in ``reasons``."""
        raising = CAQEConfig(
            fault_plan=FaultPlan(
                FaultConfig(seed=5, persistent_failure_rate=1.0)
            ),
            server_breaker_threshold=8,
        )
        with RegionScheduler(pair.left, pair.right, raising) as sched:
            order = _finish_order(sched)
            prologue = sched.submit(figure1_workload, {})
            mid_loop = sched.submit(figure1_workload, contracts)
            sched.drain()
        assert [(tid, status) for tid, status, _ in order] == [
            (prologue.ticket_id, FAILED),
            (mid_loop.ticket_id, FAILED),
        ]
        for ticket in (prologue, mid_loop):
            assert ticket.result(timeout=WAIT).reasons == (OUTCOME_BREAKER,)


class TestFairness:
    def test_deficit_accounting_identity(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            sched.register_tenant("a", weight=3.0)
            sched.register_tenant("b", weight=1.0)
            sched.submit(figure1_workload, contracts, tenant="a")
            sched.submit(figure1_workload, contracts, tenant="b")
            sched.drain()
            report = sched.tenant_report()
        # Every step charges dt to the served tenant and credits dt
        # across active tenants, so the books must balance.
        total_service = sum(row["service"] for row in report.values())
        total_entitled = sum(row["entitled"] for row in report.values())
        assert total_service > 0.0
        assert total_entitled == pytest.approx(total_service, rel=1e-9)
        assert all(row["live"] == 0.0 for row in report.values())
        for row in report.values():
            assert row["deficit"] == pytest.approx(
                row["entitled"] - row["service"], rel=1e-9
            )

    def test_both_tenants_receive_service(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(pair.left, pair.right) as sched:
            sched.register_tenant("a", weight=1.0)
            sched.register_tenant("b", weight=1.0)
            sched.submit(figure1_workload, contracts, tenant="a")
            sched.submit(figure1_workload, contracts, tenant="b")
            sched.drain()
            report = sched.tenant_report()
        assert report["a"]["service"] > 0.0
        assert report["b"]["service"] > 0.0


class TestDeterminism:
    @staticmethod
    def _fingerprint(pair, workload, contracts, policy):
        sched = RegionScheduler(pair.left, pair.right, policy=policy)
        with sched:
            sched.register_tenant("a", weight=2.0, tier=0)
            sched.register_tenant("b", weight=1.0, tier=1)
            tickets = [
                sched.submit(workload, contracts, tenant=tenant)
                for tenant in ("a", "b", "a", "b")
            ]
            order = _finish_order(sched)
            sched.drain()
            outcomes = [t.result(timeout=WAIT) for t in tickets]
        return (
            tuple(order),
            tuple(o.status for o in outcomes),
            tuple(
                o.result.stats.region_trace
                for o in outcomes
                if o.result is not None
            ),
            sched.clock.now(),
        )

    @pytest.mark.parametrize("policy", ["benefit", "fifo"])
    def test_replay_is_bit_identical(
        self, pair, figure1_workload, contracts, policy
    ):
        first = self._fingerprint(pair, figure1_workload, contracts, policy)
        second = self._fingerprint(pair, figure1_workload, contracts, policy)
        assert first == second

    def test_fifo_serves_in_arrival_order(
        self, pair, figure1_workload, contracts
    ):
        with RegionScheduler(
            pair.left, pair.right, policy=POLICY_FIFO
        ) as sched:
            sched.register_tenant("a")
            sched.register_tenant("b")
            order = _finish_order(sched)
            tickets = [
                sched.submit(figure1_workload, contracts, tenant=tenant)
                for tenant in ("a", "b", "a")
            ]
            sched.drain()
        assert [sid for sid, _, _ in order] == [
            t.ticket_id for t in tickets
        ]


class TestSpecAndConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "weight": 0.0},
            {"name": "t", "weight": float("inf")},
            {"name": "t", "tier": -1},
            {"name": "t", "max_live": 0},
            # Non-integer counts are misconfiguration, not truncation.
            {"name": "t", "max_live": 2.5},
            {"name": "t", "max_live": True},
            {"name": "t", "tier": 0.5},
            {"name": "t", "tier": True},
        ],
    )
    def test_tenant_spec_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_unknown_policy_is_a_value_error(self, pair):
        with pytest.raises(ValueError, match="policy"):
            RegionScheduler(pair.left, pair.right, policy="lifo")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"server_mode": "parallel"},
            {"server_queue_limit": 0},
            {"server_breaker_threshold": 0},
            {"server_breaker_cooldown": 0},
            {"tenant_fairness_pressure": -0.5},
            {"tenant_brownout_defer_live": 0},
            {"tenant_brownout_degrade_live": 0},
            {"tenant_brownout_shed_live": 0},
            # Ladder ordering: defer <= degrade <= shed.
            {
                "tenant_brownout_defer_live": 10,
                "tenant_brownout_degrade_live": 5,
            },
            {
                "tenant_brownout_degrade_live": 10,
                "tenant_brownout_shed_live": 5,
            },
            # Non-integer counts are misconfiguration, not truncation.
            {"server_queue_limit": True},
        ],
    )
    def test_config_rejects_bad_server_and_tenant_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CAQEConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"server_mode": "interleaved"},
            {"tenant_fairness_pressure": 0.0},
            {
                "tenant_brownout_defer_live": 3,
                "tenant_brownout_degrade_live": 3,
                "tenant_brownout_shed_live": 3,
            },
        ],
    )
    def test_config_accepts_valid_knobs(self, kwargs):
        CAQEConfig(**kwargs)


class TestInterleavedServer:
    def test_serves_multiple_tenants_end_to_end(
        self, pair, figure1_workload, contracts
    ):
        direct = CAQE(CAQEConfig()).run(
            pair.left, pair.right, figure1_workload, contracts
        )
        config = CAQEConfig(server_mode="interleaved")
        with CAQEServer(pair.left, pair.right, config) as server:
            tickets = [
                server.submit(figure1_workload, contracts, tenant=tenant)
                for tenant in ("a", "b", "a", "b")
            ]
            assert all(t and not isinstance(t, Rejected) for t in tickets)
            outcomes = [t.result(timeout=WAIT) for t in tickets]
        assert all(o.status == ANSWERED for o in outcomes)
        # Shared-plan serving still answers every submission exactly.
        for outcome in outcomes:
            assert outcome.result.reported == direct.reported
        assert server.metrics["answered"] == 4

    def test_shutdown_finishes_admitted_work(
        self, pair, figure1_workload, contracts
    ):
        config = CAQEConfig(server_mode="interleaved")
        server = CAQEServer(pair.left, pair.right, config)
        tickets = [
            server.submit(figure1_workload, contracts, tenant="a")
            for _ in range(2)
        ]
        server.shutdown()
        for ticket in tickets:
            assert ticket.result(timeout=WAIT).status in (
                ANSWERED,
                DEGRADED,
            )
        rejected = server.submit(figure1_workload, contracts)
        assert isinstance(rejected, Rejected)
        assert rejected.reason == REASON_SERVER_CLOSED
