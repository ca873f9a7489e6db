"""Tickets, outcomes, the circuit breaker — and the thread that serves
(docs/ARCHITECTURE.md §10.6).

Everything a submission's caller holds lives here: the :class:`Ticket`
(or falsy :class:`Rejected`) ``submit`` hands back, the
:class:`ServedResult` a ticket resolves to, the duck-typed
:class:`CancellationToken`, and the count-based :class:`CircuitBreaker`
the scheduler keeps per workload signature.  Wall clocks are banned in
``src/repro`` (caqe-check rule CQ007), so the breaker cooldown counts
*events* (shed submissions), not seconds — the same load that trips a
breaker is what eventually re-tests it.

:class:`CAQEServer` adds exactly one thing to
:class:`~repro.serving.scheduler.RegionScheduler`: a driver thread that
steps it, so callers can ``submit`` and block on tickets instead of
stepping the scheduler themselves.  Admission control, the breaker
table and every counter belong to the scheduler;
the server holds no lock and no state of its own beyond the thread and
its wake-up event.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.caqe import CAQEConfig, RunResult
from repro.robustness.recovery import REASON_BROWNOUT, REASON_DEADLINE

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.contracts.base import Contract
    from repro.query.workload import Workload
    from repro.relation import Relation

#: Ticket states / final statuses.
ANSWERED = "answered"
DEGRADED = "degraded"
CANCELLED = "cancelled"
FAILED = "failed"

#: Rejection reasons.
REASON_QUEUE_FULL = "queue_full"
REASON_CIRCUIT_OPEN = "circuit_open"
REASON_SERVER_CLOSED = "server_closed"

#: Structured outcome-reason taxonomy surfaced on :class:`ServedResult`
#: (callers never dig through ``RunResult`` internals to classify a
#: degradation).
OUTCOME_DEADLINE = "deadline"
OUTCOME_BROWNOUT = "brownout"
OUTCOME_BREAKER = "breaker"

#: Bounded-wait tick of the driver loop: every blocking primitive in the
#: serving layer carries a timeout (caqe-check rule CQ013) so a lost
#: wakeup can never hang a thread forever.
_WAIT_TICK = 0.1


class CancellationToken:
    """Thread-safe cooperative-cancellation flag.

    The engine polls :meth:`is_cancelled` at every region boundary; the
    duck-typed protocol (any object with ``is_cancelled()``) keeps the
    core free of serving imports.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def is_cancelled(self) -> bool:
        return self._event.is_set()


@dataclass(frozen=True)
class Rejected:
    """A shed submission and the explicit reason it was shed."""

    reason: str
    detail: str = ""

    def __bool__(self) -> bool:  # a rejection is falsy; tickets are truthy
        return False


@dataclass
class ServedResult:
    """Terminal outcome of one admitted submission.

    ``reasons`` classifies non-clean outcomes with the structured
    taxonomy (``"deadline"``, ``"brownout"``, ``"breaker"`` — in that
    fixed order) so callers branch on it instead of digging
    through :class:`~repro.core.caqe.RunResult` internals.
    """

    status: str
    result: "RunResult | None" = None
    error: str = ""
    reasons: "tuple[str, ...]" = ()

    @property
    def ok(self) -> bool:
        return self.status in (ANSWERED, DEGRADED)


def outcome_reasons(
    result: "RunResult | None", breaker_failure: bool = False
) -> "tuple[str, ...]":
    """Derive the structured reason taxonomy for one terminal outcome.

    * ``"deadline"`` — a virtual deadline expired and part of the answer
      was degraded to MQLA bounds;
    * ``"brownout"`` — the multi-tenant scheduler browned the submission
      out under overload;
    * ``"breaker"`` — the run counts as a circuit-breaker failure for its
      workload signature (quarantined regions / raised).
    """
    reasons: "list[str]" = []
    if result is not None:
        reports = [
            report
            for per_query in result.degraded.values()
            for report in per_query
        ]
        if any(r.reason == REASON_DEADLINE for r in reports):
            reasons.append(OUTCOME_DEADLINE)
        if any(r.reason == REASON_BROWNOUT for r in reports):
            reasons.append(OUTCOME_BROWNOUT)
    if breaker_failure:
        reasons.append(OUTCOME_BREAKER)
    return tuple(reasons)


class Ticket:
    """Handle for one admitted submission (truthy, unlike Rejected)."""

    def __init__(
        self,
        ticket_id: int,
        token: CancellationToken,
        signature: str,
    ) -> None:
        self.ticket_id = ticket_id
        self.token = token
        self.signature = signature
        self._done = threading.Event()
        self._outcome: "ServedResult | None" = None

    def cancel(self) -> None:
        """Request cooperative cancellation (effective at the next region
        boundary, or immediately if the run has not started)."""
        self.token.cancel()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: "float | None" = None) -> ServedResult:
        """Block until the submission reaches a terminal state."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"ticket #{self.ticket_id} not finished within {timeout}s"
            )
        assert self._outcome is not None
        return self._outcome

    def _finish(self, outcome: ServedResult) -> None:
        self._outcome = outcome
        self._done.set()


#: CircuitBreaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Count-based per-workload breaker (no wall clock — CQ007).

    ``threshold`` consecutive failing runs (raised errors or completed
    runs that quarantined regions) open the breaker; while open, each
    shed submission decrements an event cooldown, and when it reaches
    zero the next submission is admitted as a half-open trial.  A
    successful trial closes the breaker; a failing one re-opens it with
    a fresh cooldown.
    """

    threshold: int = 3
    cooldown: int = 8
    state: str = CLOSED
    consecutive_failures: int = 0
    _cooldown_left: int = 0

    def admit(self) -> bool:
        """Decide one submission; mutates cooldown/half-open state."""
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            # One trial in flight: shed everything else meanwhile.
            return False
        self._cooldown_left -= 1
        if self._cooldown_left <= 0:
            self.state = HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or self.consecutive_failures >= self.threshold:
            self.state = OPEN
            self._cooldown_left = self.cooldown


#: Signature memo keyed by workload object (workloads are immutable once
#: built); weak keys so retired workloads do not pin their strings.
_signature_cache: "weakref.WeakKeyDictionary[Any, str]" = (
    weakref.WeakKeyDictionary()
)


def workload_signature(workload: "Workload") -> str:
    """Stable identity of a workload for breaker bookkeeping.

    Memoised per workload object: admission looks it up on every
    submission, and repr-ing each query is by far the most expensive
    part of admission control under load.
    """
    try:
        cached = _signature_cache.get(workload)
    except TypeError:  # unhashable or non-weakrefable stand-in: no memo
        return "|".join(f"{q.name}={q!r}" for q in workload)
    if cached is None:
        cached = "|".join(f"{q.name}={q!r}" for q in workload)
        _signature_cache[workload] = cached
    return cached


class CAQEServer:
    """A :class:`~repro.serving.scheduler.RegionScheduler` plus the thread
    that steps it.

    ``config.server_mode`` names the scheduler policy: ``"fifo"`` serves
    whole runs in arrival order (``POLICY_FIFO``), ``"interleaved"``
    multiplexes live submissions region by region under the cross-tenant
    benefit ranking (``POLICY_BENEFIT``).  Either way ``submit`` pays the
    MQLA prologue on the caller's thread and regions run on the one
    driver thread (``shutdown`` lends its caller's thread to the drain).
    """

    def __init__(
        self,
        left: "Relation",
        right: "Relation",
        config: "CAQEConfig | None" = None,
    ) -> None:
        # Deferred import: scheduler.py imports this module's ticket and
        # result types at module scope.
        from repro.serving.scheduler import (
            POLICY_BENEFIT,
            POLICY_FIFO,
            RegionScheduler,
        )

        self.config = config or CAQEConfig()
        self.scheduler = RegionScheduler(
            left,
            right,
            self.config,
            policy=POLICY_BENEFIT
            if self.config.server_mode == "interleaved"
            else POLICY_FIFO,
        )
        self._wake = threading.Event()
        self._stopped = False
        self._driver = threading.Thread(
            target=self._drive, name="caqe-server-driver", daemon=True
        )
        self._driver.start()

    def submit(
        self,
        workload: "Workload",
        contracts: "dict[str, Contract]",
        deadline: "float | None" = None,
        cancel_token: "CancellationToken | None" = None,
        *,
        tenant: str = "default",
    ) -> "Ticket | Rejected":
        """:meth:`RegionScheduler.submit`, then wake the driver.

        Returns a :class:`Ticket` (truthy) or a :class:`Rejected`
        (falsy) — callers can branch on truthiness.
        """
        outcome = self.scheduler.submit(
            workload,
            contracts,
            tenant=tenant,
            deadline=deadline,
            cancel_token=cancel_token,
        )
        self._wake.set()
        return outcome

    def _drive(self) -> None:
        while not self._stopped:
            if not self.scheduler.step():
                # Bounded wait (CQ013) for the next submission.
                self._wake.wait(timeout=_WAIT_TICK)
                self._wake.clear()

    @property
    def metrics(self) -> "dict[str, int]":
        """The scheduler's counters (the server keeps none of its own)."""
        return self.scheduler.metrics

    def shutdown(self) -> None:
        """Stop admitting, finish every admitted submission and join the
        driver thread (idempotent)."""
        self.scheduler.close()
        self._stopped = True
        self._wake.set()
        self._driver.join()

    def __enter__(self) -> "CAQEServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


__all__ = [
    "ANSWERED",
    "CANCELLED",
    "CAQEServer",
    "CLOSED",
    "CancellationToken",
    "CircuitBreaker",
    "DEGRADED",
    "FAILED",
    "HALF_OPEN",
    "OPEN",
    "OUTCOME_BREAKER",
    "OUTCOME_BROWNOUT",
    "OUTCOME_DEADLINE",
    "REASON_CIRCUIT_OPEN",
    "REASON_QUEUE_FULL",
    "REASON_SERVER_CLOSED",
    "Rejected",
    "ServedResult",
    "Ticket",
    "outcome_reasons",
    "workload_signature",
]
