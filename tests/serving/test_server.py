"""CAQEServer: admission, deadlines, cancellation, shedding, breakers.

The server is a driver thread over one ``RegionScheduler``, so every
class that serves runs twice — once per ``server_mode`` — through a
subclass that only flips ``MODE`` (the base classes keep their names and
the ``"fifo"`` default).  Exact overload arithmetic is pinned on the
thread-less scheduler in ``test_scheduler.py``; here the assertions are
the ones that hold under any thread timing: every admitted ticket
terminates and ``submitted == admitted + Σ rejected_*``.
"""

import os

import pytest

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.query import JoinCondition, Preference, SkylineJoinQuery, add
from repro.query.workload import Workload
from repro.durability.journal import JOURNAL_FILENAME
from repro.robustness.faults import FaultConfig, FaultPlan
from repro.robustness.recovery import RetryPolicy
from repro.serving import (
    ANSWERED,
    CANCELLED,
    CAQEServer,
    CancellationToken,
    CircuitBreaker,
    DEGRADED,
    FAILED,
    OPEN,
    REASON_CIRCUIT_OPEN,
    REASON_QUEUE_FULL,
    REASON_SERVER_CLOSED,
    Rejected,
    workload_signature,
)

WAIT = 120.0  # generous terminal-state timeout; nothing here should hang


def assert_accounted(metrics) -> None:
    """Every submission was shed or admitted; every admission terminated."""
    rejected = sum(v for k, v in metrics.items() if k.startswith("rejected_"))
    assert metrics["submitted"] == metrics["admitted"] + rejected
    assert metrics["admitted"] == sum(
        metrics[status] for status in (ANSWERED, DEGRADED, CANCELLED, FAILED)
    )


class CountdownToken:
    """Duck-typed token that cancels after ``n`` region-boundary polls."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def cancel(self) -> None:  # Ticket.cancel() delegates here
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


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=5)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state != OPEN
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state != OPEN

    def test_cooldown_events_admit_a_half_open_trial(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.admit()  # cooldown 2 -> 1
        assert breaker.admit()  # cooldown hits 0: half-open trial
        assert not breaker.admit()  # everything else shed during the trial

    def test_trial_success_closes_trial_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.admit()
        assert breaker.admit()  # cooldown exhausted: half-open trial
        breaker.record_success()
        assert breaker.admit()  # closed again

        breaker.record_failure()
        assert not breaker.admit()
        assert breaker.admit()
        breaker.record_failure()  # the trial itself failed
        assert breaker.state == OPEN
        assert not breaker.admit()  # fresh cooldown started


class _ServedInMode:
    """Base for classes that run once per ``server_mode``."""

    MODE = "fifo"

    def server(self, pair, **knobs) -> CAQEServer:
        return CAQEServer(
            pair.left, pair.right, CAQEConfig(server_mode=self.MODE, **knobs)
        )


class TestServedRuns(_ServedInMode):
    def test_answer_matches_a_direct_engine_run(
        self, pair, figure1_workload, contracts
    ):
        direct = CAQE(CAQEConfig()).run(
            pair.left, pair.right, figure1_workload, contracts
        )
        with self.server(pair) as server:
            ticket = server.submit(figure1_workload, contracts)
            assert ticket and not isinstance(ticket, Rejected)
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == ANSWERED and outcome.ok
        assert outcome.result is not None
        assert outcome.result.reported == direct.reported
        assert (
            outcome.result.stats.region_trace == direct.stats.region_trace
        )
        assert (
            outcome.result.stats.skyline_comparisons
            == direct.stats.skyline_comparisons
        )
        assert outcome.result.stats.elapsed == direct.stats.elapsed
        assert outcome.result.horizon == direct.horizon
        assert_accounted(server.metrics)

    def test_deadline_degrades_instead_of_running_forever(
        self, pair, figure1_workload, contracts
    ):
        with self.server(pair) as server:
            ticket = server.submit(
                figure1_workload, contracts, deadline=2_000.0
            )
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == DEGRADED and outcome.ok
        assert outcome.result is not None
        assert any(outcome.result.degraded.values())
        assert server.metrics["degraded"] == 1
        assert_accounted(server.metrics)

    def test_cancel_before_start(self, pair, figure1_workload, contracts):
        token = CancellationToken()
        token.cancel()
        with self.server(pair) as server:
            ticket = server.submit(
                figure1_workload, contracts, cancel_token=token
            )
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == CANCELLED
        assert not outcome.ok
        assert outcome.result is None
        assert_accounted(server.metrics)

    def test_cancel_mid_run_at_a_region_boundary(
        self, pair, figure1_workload, contracts
    ):
        with self.server(pair) as server:
            ticket = server.submit(
                figure1_workload, contracts, cancel_token=CountdownToken(5)
            )
            outcome = ticket.result(timeout=WAIT)
        assert outcome.status == CANCELLED
        assert "region boundary" in outcome.error
        assert server.metrics["cancelled"] == 1
        assert_accounted(server.metrics)

    def test_rejected_is_falsy_and_ticket_is_truthy(
        self, pair, figure1_workload, contracts
    ):
        with self.server(pair) as server:
            ticket = server.submit(figure1_workload, contracts)
            assert bool(ticket)
            ticket.result(timeout=WAIT)
        assert not Rejected(REASON_QUEUE_FULL)

    def test_closed_server_sheds_with_explicit_reason(
        self, pair, figure1_workload, contracts
    ):
        server = self.server(pair)
        server.shutdown()
        rejection = server.submit(figure1_workload, contracts)
        assert isinstance(rejection, Rejected)
        assert rejection.reason == REASON_SERVER_CLOSED
        assert_accounted(server.metrics)


class TestServedRunsInterleaved(TestServedRuns):
    MODE = "interleaved"


class TestOverloadShedding(_ServedInMode):
    def test_four_x_overload_sheds_explicitly_and_terminates(
        self, pair, figure1_workload, contracts
    ):
        """What the thread adds under a burst: nothing blocks or errors,
        every admitted ticket terminates, the books balance and
        ``shutdown()`` drains.  How many of the eleven are shed depends
        on how far the driver got between submits — the exact count is
        pinned on the scheduler (``test_scheduler.py``)."""
        server = self.server(pair, server_queue_limit=2)
        outcomes = [
            server.submit(figure1_workload, contracts) for _ in range(11)
        ]
        server.shutdown()
        tickets = [o for o in outcomes if not isinstance(o, Rejected)]
        rejections = [o for o in outcomes if isinstance(o, Rejected)]
        assert len(tickets) >= 2
        assert all(t.done() for t in tickets)  # drained, not abandoned
        assert {t.result(timeout=WAIT).status for t in tickets} == {ANSWERED}
        assert {r.reason for r in rejections} <= {REASON_QUEUE_FULL}
        assert server.metrics["submitted"] == 11
        assert server.metrics["admitted"] == len(tickets)
        assert server.metrics["rejected_queue_full"] == len(rejections)
        assert server.scheduler.idle
        assert_accounted(server.metrics)


class TestOverloadSheddingInterleaved(TestOverloadShedding):
    MODE = "interleaved"


class TestCircuitBreakerServing(_ServedInMode):
    def _toxic_server(self, pair, **knobs) -> CAQEServer:
        """Every run quarantines all regions -> breaker failures."""
        knobs.setdefault("server_breaker_threshold", 2)
        return self.server(
            pair,
            enable_recovery=True,
            retry_policy=RetryPolicy(max_attempts=1),
            fault_plan=FaultPlan(
                FaultConfig(seed=5, persistent_failure_rate=1.0)
            ),
            server_breaker_cooldown=2,
            **knobs,
        )

    def test_quarantine_heavy_workload_trips_its_breaker(
        self, pair, figure1_workload, contracts
    ):
        with self._toxic_server(pair) as server:
            for _ in range(2):  # threshold
                ticket = server.submit(figure1_workload, contracts)
                outcome = ticket.result(timeout=WAIT)
                assert outcome.status == DEGRADED
            rejection = server.submit(figure1_workload, contracts)
            assert isinstance(rejection, Rejected)
            assert rejection.reason == REASON_CIRCUIT_OPEN
            assert server.metrics["rejected_circuit_open"] == 1
        assert_accounted(server.metrics)

    def test_cooldown_admits_a_half_open_trial_that_reopens(
        self, pair, figure1_workload, contracts
    ):
        with self._toxic_server(pair) as server:
            for _ in range(2):
                server.submit(figure1_workload, contracts).result(timeout=WAIT)
            # cooldown=2: one shed submission, then a half-open trial.
            assert isinstance(
                server.submit(figure1_workload, contracts), Rejected
            )
            trial = server.submit(figure1_workload, contracts)
            assert trial
            assert trial.result(timeout=WAIT).status == DEGRADED
            # The trial quarantined again -> breaker re-opened.
            rejection = server.submit(figure1_workload, contracts)
            assert isinstance(rejection, Rejected)
            assert rejection.reason == REASON_CIRCUIT_OPEN
        assert_accounted(server.metrics)

    def test_half_open_trial_whose_prologue_raises_reopens_the_breaker(
        self, pair, figure1_workload, contracts
    ):
        """ISSUE 17's defect: the trial's ``open_run`` error must come
        back as a ``failed`` ticket (not out of ``submit``), re-open the
        breaker, and leave it able to admit a later trial."""
        with self._toxic_server(pair, server_breaker_threshold=1) as server:
            server.submit(figure1_workload, contracts).result(timeout=WAIT)
            assert not server.submit(figure1_workload, contracts)
            trial = server.submit(figure1_workload, {})  # half-open trial
            assert trial and not isinstance(trial, Rejected)
            outcome = trial.result(timeout=WAIT)
            assert outcome.status == FAILED and not outcome.ok
            assert "missing contracts" in outcome.error
            # Re-opened with a fresh cooldown: one shed, then a new trial.
            rejection = server.submit(figure1_workload, contracts)
            assert isinstance(rejection, Rejected)
            assert rejection.reason == REASON_CIRCUIT_OPEN
            retrial = server.submit(figure1_workload, contracts)
            assert retrial and not isinstance(retrial, Rejected)
            assert retrial.result(timeout=WAIT).status == DEGRADED
        assert server.metrics["failed"] == 1
        assert_accounted(server.metrics)

    def test_run_that_raises_mid_loop_fails_and_counts_against_the_breaker(
        self, pair, figure1_workload, contracts
    ):
        """Recovery off under a persistent-failure plan: the first region
        raises ``RegionFailure`` out of ``LiveRun.step``."""
        with self.server(
            pair,
            fault_plan=FaultPlan(
                FaultConfig(seed=5, persistent_failure_rate=1.0)
            ),
            server_breaker_threshold=2,
        ) as server:
            server.scheduler.register_tenant("default", max_live=1)
            for _ in range(2):
                # Under the benefit policy the bulkhead cap of 1 makes the
                # second admission proof that the failed run gave its slot
                # back; the FIFO policy has no bulkhead to hold.
                ticket = server.submit(figure1_workload, contracts)
                assert ticket and not isinstance(ticket, Rejected)
                outcome = ticket.result(timeout=WAIT)
                assert outcome.status == FAILED
                assert outcome.error.startswith("RegionFailure")
            rejection = server.submit(figure1_workload, contracts)
            assert isinstance(rejection, Rejected)
            assert rejection.reason == REASON_CIRCUIT_OPEN
            assert server.scheduler.tenant_report()["default"]["live"] == 0.0
        assert server.metrics["failed"] == 2
        assert_accounted(server.metrics)

    def test_breakers_are_per_workload_signature(
        self, pair, figure1_workload, contracts
    ):
        jc = JoinCondition.on("jc1", name="JC1")
        fns = (add("m1", "m1", "d1"), add("m2", "m2", "d2"))
        other = Workload(
            [SkylineJoinQuery("QX", jc, fns, Preference.over("d1", "d2"))]
        )
        assert workload_signature(other) != workload_signature(
            figure1_workload
        )
        with self._toxic_server(pair) as server:
            for _ in range(2):
                server.submit(figure1_workload, contracts).result(timeout=WAIT)
            assert isinstance(
                server.submit(figure1_workload, contracts), Rejected
            )
            # A different workload is judged by its own breaker.
            ticket = server.submit(
                other, {"QX": c2(scale=100.0)}
            )
            assert ticket
            ticket.result(timeout=WAIT)
        assert_accounted(server.metrics)

    def test_cancellation_does_not_count_against_the_breaker(
        self, pair, figure1_workload, contracts
    ):
        with self.server(pair, server_breaker_threshold=1) as server:
            ticket = server.submit(
                figure1_workload, contracts, cancel_token=CountdownToken(2)
            )
            assert ticket.result(timeout=WAIT).status == CANCELLED
            follow_up = server.submit(figure1_workload, contracts)
            assert follow_up
            assert follow_up.result(timeout=WAIT).status == ANSWERED
        assert_accounted(server.metrics)


class TestCircuitBreakerServingInterleaved(TestCircuitBreakerServing):
    MODE = "interleaved"


class TestJournaledServing(_ServedInMode):
    def test_each_submission_journals_into_its_own_directory(
        self, pair, figure1_workload, contracts, tmp_path
    ):
        with self.server(
            pair, enable_journal=True, journal_dir=str(tmp_path)
        ) as server:
            tickets = [
                server.submit(figure1_workload, contracts) for _ in range(2)
            ]
            results = [t.result(timeout=WAIT).result for t in tickets]
        assert sorted(os.listdir(tmp_path)) == ["sub-000001", "sub-000002"]
        for ticket, result in zip(tickets, results):
            path = tmp_path / f"sub-{ticket.ticket_id:06d}" / JOURNAL_FILENAME
            with open(path, "rb") as handle:
                records = len(handle.readlines()) - 1  # minus the header
            assert records > 0
            assert records == (
                result.stats.regions_processed
                + result.stats.regions_quarantined
            )


class TestJournaledServingInterleaved(TestJournaledServing):
    MODE = "interleaved"


@pytest.mark.parametrize("mode", ["fifo", "interleaved"])
def test_quickstart_entry_point_prints_the_three_statuses(mode, capsys):
    """``python -m repro.serving`` is the first thing README tells a
    user to run."""
    from repro.serving.__main__ import main

    assert main(["--mode", mode]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("normal   : answered")
    assert lines[1].startswith("deadline : degraded")
    assert lines[2].startswith("cancelled: cancelled")
    assert lines[3].startswith("metrics:")
