"""Property tests: breaker state machine + region-boundary preemption.

* :class:`CircuitBreaker` is exercised with random event sequences
  against an independent model of its CLOSED/OPEN/HALF_OPEN contract.
* Cancellation is exercised with a counting token: a run preempted
  after ``n`` region-boundary polls must have processed a bit-identical
  *prefix* of the uncancelled run's region trace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.datagen import generate_pair
from repro.errors import QueryCancelled
from repro.serving import CLOSED, CancellationToken, CircuitBreaker, HALF_OPEN, OPEN


class BreakerModel:
    """Independent restatement of the breaker's documented contract."""

    def __init__(self, threshold: int, cooldown: int) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.streak = 0
        self.cooldown_left = 0

    def admit(self) -> bool:
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return False  # one trial in flight, shed the rest
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.state = HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        self.state = CLOSED
        self.streak = 0

    def record_failure(self) -> None:
        self.streak += 1
        if self.state == HALF_OPEN or self.streak >= self.threshold:
            self.state = OPEN
            self.cooldown_left = self.cooldown


class TestCircuitBreakerProperties:
    @given(
        threshold=st.integers(1, 5),
        cooldown=st.integers(1, 6),
        events=st.lists(
            st.sampled_from(["admit", "success", "failure"]), max_size=60
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_model(self, threshold, cooldown, events):
        breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown)
        model = BreakerModel(threshold, cooldown)
        for event in events:
            if event == "admit":
                assert breaker.admit() == model.admit()
            elif event == "success":
                breaker.record_success()
                model.record_success()
            else:
                breaker.record_failure()
                model.record_failure()
            assert breaker.state == model.state

    @given(
        threshold=st.integers(1, 5),
        prefix=st.lists(
            st.sampled_from(["admit", "success", "failure"]), max_size=40
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_breaker_always_admits(self, threshold, prefix):
        breaker = CircuitBreaker(threshold=threshold, cooldown=3)
        for event in prefix:
            if event == "admit":
                breaker.admit()
            elif event == "success":
                breaker.record_success()
            else:
                breaker.record_failure()
        breaker.record_success()  # any success closes the breaker
        assert breaker.state == CLOSED
        assert breaker.admit()

    @given(cooldown=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_open_breaker_admits_exactly_one_trial_after_cooldown(
        self, cooldown
    ):
        breaker = CircuitBreaker(threshold=1, cooldown=cooldown)
        breaker.record_failure()
        assert breaker.state == OPEN
        decisions = [breaker.admit() for _ in range(cooldown + 3)]
        assert decisions.count(True) == 1
        assert decisions.index(True) == cooldown - 1
        assert breaker.state == HALF_OPEN


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
def serving_fixture(pair, figure1_workload):
    contracts = {q.name: c2(scale=100.0) for q in figure1_workload}
    full = CAQE(CAQEConfig()).run(
        pair.left, pair.right, figure1_workload, contracts
    )
    return pair, figure1_workload, contracts, full


class TestCancellationPreemption:
    def test_token_is_sticky_and_thread_safe_api(self):
        token = CancellationToken()
        assert not token.is_cancelled()
        token.cancel()
        assert token.is_cancelled()
        assert token.is_cancelled()  # stays cancelled

    @given(n=st.integers(0, 12))
    @settings(max_examples=10, deadline=None)
    def test_preempts_on_a_bit_identical_region_prefix(
        self, serving_fixture, n
    ):
        pair, workload, contracts, full = serving_fixture
        full_trace = full.stats.region_trace
        engine = CAQE(CAQEConfig())
        token = CountdownToken(n)
        if n >= len(full_trace):
            result = engine.run(
                pair.left,
                pair.right,
                workload,
                contracts,
                cancel_token=token,
            )
            assert result.stats.region_trace == full_trace
            assert result.reported == full.reported
            return
        from repro.core.stats import ExecutionStats

        stats = ExecutionStats.with_cost_model(engine.config.cost_model)
        with pytest.raises(QueryCancelled):
            engine.run(
                pair.left,
                pair.right,
                workload,
                contracts,
                stats,
                cancel_token=token,
            )
        trace = stats.region_trace
        # Preemption lands exactly at a region boundary: what ran is a
        # bit-identical prefix of the uncancelled run, never a partial
        # region, and never more regions than the token allowed.
        assert len(trace) <= n
        assert tuple(trace) == tuple(full_trace[: len(trace)])
