"""Fault tolerance for the CAQE engine (docs/ARCHITECTURE.md §9).

Three cooperating pieces, all default-off and bit-identical when disabled:

* :mod:`repro.robustness.faults` — deterministic, seeded fault injection
  (corrupted inputs, region-executor exceptions, virtual-clock
  stragglers) for chaos testing;
* :mod:`repro.robustness.sanitize` — input validation that quarantines
  NaN/inf/out-of-domain tuples before they poison dominance tests;
* :mod:`repro.robustness.recovery` — region retry with capped exponential
  backoff, quarantine of repeatedly-failing regions, and contract-aware
  graceful degradation from coarse MQLA bounds.

``tests/robustness/test_chaos_engine.py`` holds the fault-matrix
invariants, journaled and plain; ``python -m tools.replay_audit`` checks
the faulted, journaled run across SIGKILL/resume.
"""

from repro.robustness.faults import (
    CORRUPTION_KINDS,
    FaultConfig,
    FaultPlan,
    InjectedFault,
    TenantBurstPlan,
)
from repro.robustness.recovery import (
    DegradedReport,
    RegionSupervisor,
    RetryPolicy,
)
from repro.robustness.sanitize import (
    DEFAULT_DOMAIN_LIMIT,
    QuarantinedTuple,
    QuarantineReport,
    sanitize_relation,
)

__all__ = [
    "CORRUPTION_KINDS",
    "DEFAULT_DOMAIN_LIMIT",
    "DegradedReport",
    "FaultConfig",
    "FaultPlan",
    "InjectedFault",
    "QuarantineReport",
    "QuarantinedTuple",
    "RegionSupervisor",
    "RetryPolicy",
    "TenantBurstPlan",
    "sanitize_relation",
]
