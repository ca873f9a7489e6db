"""Overload-safe serving of CAQE workloads.

``python -m repro.serving`` runs a self-contained quickstart demo.
:mod:`repro.serving.scheduler` is the one serving mechanism — admission
control, breakers, the cross-tenant region scheduler and its FIFO
policy; :mod:`repro.serving.server` holds the ticket machinery it hands
out and :class:`CAQEServer`, the driver thread that steps it.  See docs/ARCHITECTURE.md §10.6 (admission and ticket
lifecycle) and §13 (multi-tenant scheduling, brownout ladder, fairness).
"""

from repro.serving.scheduler import (
    POLICY_BENEFIT,
    POLICY_FIFO,
    REASON_BROWNOUT_SHED,
    REASON_BULKHEAD,
    RegionScheduler,
    TenantSpec,
)
from repro.serving.server import (
    ANSWERED,
    CANCELLED,
    CAQEServer,
    CLOSED,
    CancellationToken,
    CircuitBreaker,
    DEGRADED,
    FAILED,
    HALF_OPEN,
    OPEN,
    OUTCOME_BREAKER,
    OUTCOME_BROWNOUT,
    OUTCOME_DEADLINE,
    REASON_CIRCUIT_OPEN,
    REASON_QUEUE_FULL,
    REASON_SERVER_CLOSED,
    Rejected,
    ServedResult,
    Ticket,
    outcome_reasons,
    workload_signature,
)

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
    "POLICY_BENEFIT",
    "POLICY_FIFO",
    "REASON_BROWNOUT_SHED",
    "REASON_BULKHEAD",
    "REASON_CIRCUIT_OPEN",
    "REASON_QUEUE_FULL",
    "REASON_SERVER_CLOSED",
    "RegionScheduler",
    "Rejected",
    "ServedResult",
    "TenantSpec",
    "Ticket",
    "outcome_reasons",
    "workload_signature",
]
