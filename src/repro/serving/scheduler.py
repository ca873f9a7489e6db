"""Cross-tenant region scheduling (docs/ARCHITECTURE.md §13).

:class:`RegionScheduler` multiplexes many live submissions over one
engine host at *region* granularity: every admitted submission is opened
as a resumable :class:`~repro.core.caqe.LiveRun`, and each scheduling
step picks exactly one run — across all tenants — to advance by one
region.  The pick extends the paper's Eq. 8/10 benefit model cross-tenant
(:func:`repro.core.benefit.cross_tenant_scores`): each run bids its best
root CSM, scaled by its tenant's fair-share weight, plus a deficit-round-
robin correction that converts owed virtual time into benefit currency so
no tenant starves.

Admission control is one sequence under the one scheduler lock —
closed → circuit breaker (per workload signature) → brownout shed →
queue bound → bulkhead — and every admitted submission terminates
``answered``, ``degraded``, ``cancelled`` or ``failed`` (a run whose
MQLA prologue raises is an admitted ticket finished ``failed``), so
``submitted == admitted + Σ rejected_*`` always holds and a half-open
breaker trial always closes or re-opens its breaker.

Isolation and overload controls:

* **fair-share weights + deficit accounting** — service is measured in
  virtual time; each step charges the served tenant and credits every
  active tenant its weighted share, so ``deficit = entitled - service``
  is the classic DRR debt;
* **SLO tiers** — tier 0 is never deferred, degraded, or shed; higher
  tiers brown out first;
* **bulkheads** — a per-tenant cap on in-flight submissions bounds the
  blast radius of any one tenant's burst;
* **three-rung brownout ladder** (by total live submissions):
  rung 1 *defers* regions of all but the best live tier, rung 2
  *degrades* the youngest lowest-tier submission to coarse MQLA bounds
  (reason ``"brownout"`` on its :class:`DegradedReport`s), rung 3
  *sheds* new non-tier-0 submissions with an explicit
  :class:`~repro.serving.server.Rejected`;
* **preemption** — cancellation tokens are polled by the engine at
  region boundaries, so a cancel takes effect at the next step of that
  run, never mid-region.

Everything is driven by one shared :class:`~repro.core.clock.VirtualClock`
— deadlines are absolute virtual timestamps, burst plans and replay are
deterministic, and a single-tenant scheduler run is *bit-identical* to
``CAQE.run`` (the equivalence suite pins this).

``policy="fifo"`` drives the identical machinery as a whole-run FIFO
server (always step the oldest submission; no ladder, no bulkheads) —
the load generator's baseline arm and ``server_mode="fifo"``.  Library
users drive it with ``step``/``drain``, :class:`~repro.serving.server.
CAQEServer` steps it from one driver thread.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.benefit import TenantOffer, rank_offers
from repro.core.caqe import CAQE, CAQEConfig, LiveRun
from repro.core.clock import VirtualClock
from repro.core.stats import ExecutionStats
from repro.errors import QueryCancelled, ReproError
from repro.robustness.recovery import REASON_BROWNOUT, REASON_DEADLINE
from repro.serving.server import (
    ANSWERED,
    CANCELLED,
    DEGRADED,
    FAILED,
    HALF_OPEN,
    REASON_CIRCUIT_OPEN,
    REASON_QUEUE_FULL,
    REASON_SERVER_CLOSED,
    CancellationToken,
    CircuitBreaker,
    Rejected,
    ServedResult,
    Ticket,
    outcome_reasons,
    workload_signature,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.contracts.base import Contract
    from repro.query.workload import Workload
    from repro.relation import Relation

#: Additional rejection reasons introduced by the multi-tenant scheduler.
REASON_BULKHEAD = "bulkhead"
REASON_BROWNOUT_SHED = "brownout"

#: Scheduling policies.
POLICY_BENEFIT = "benefit"
POLICY_FIFO = "fifo"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract: fair-share weight, SLO tier,
    bulkhead cap.  Validated eagerly with plain :class:`ValueError`\\ s
    (misconfiguration, not an engine failure)."""

    name: str
    weight: float = 1.0
    tier: int = 1
    max_live: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not (0.0 < float(self.weight) < float("inf")):
            raise ValueError(
                f"tenant weight must be positive and finite, got {self.weight}"
            )
        for knob, floor in (("tier", 0), ("max_live", 1)):
            value = getattr(self, knob)
            # Counts must be real integers: 2.5 or True is
            # misconfiguration, not something to truncate.
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < floor
            ):
                raise ValueError(
                    f"tenant {knob} must be an integer >= {floor}, "
                    f"got {value!r}"
                )


@dataclass
class _TenantState:
    """Mutable per-tenant accounting."""

    spec: TenantSpec
    live: int = 0
    service: float = 0.0
    entitled: float = 0.0

    @property
    def deficit(self) -> float:
        """Virtual time this tenant is owed under its fair share."""
        return self.entitled - self.service


@dataclass
class _LiveSub:
    """One admitted, in-flight submission."""

    sid: int
    tenant: str
    tier: int
    weight: float
    ticket: Ticket
    live: LiveRun


def _failed(exc: ReproError) -> ServedResult:
    """A raised run: every ``FAILED`` outcome is a breaker failure."""
    return ServedResult(
        FAILED,
        error=f"{type(exc).__name__}: {exc}",
        reasons=outcome_reasons(None, breaker_failure=True),
    )


class RegionScheduler:
    """Interleaves many live CAQE submissions at region granularity.

    One scheduler owns one immutable pair of base tables, one shared
    virtual clock and one breaker per workload signature.
    ``submit`` may be called from any thread; ``step`` is serialized by
    the scheduler lock and advances exactly one run by one region.
    ``on_finish(ticket, outcome, breaker_failure)`` runs under that lock
    just before the ticket resolves — inside ``submit`` itself when the
    prologue fails.
    """

    def __init__(
        self,
        left: "Relation",
        right: "Relation",
        config: "CAQEConfig | None" = None,
        *,
        policy: str = POLICY_BENEFIT,
        on_finish: "Callable[[Ticket, ServedResult, bool], None] | None" = None,
    ) -> None:
        if policy not in (POLICY_BENEFIT, POLICY_FIFO):
            raise ValueError(
                f"unknown policy {policy!r}; expected 'benefit' or 'fifo'"
            )
        self.left = left
        self.right = right
        self.config = config or CAQEConfig()
        self.policy = policy
        self.clock = VirtualClock(cost_model=self.config.cost_model)
        self._lock = threading.RLock()
        self._tenants: "dict[str, _TenantState]" = {}
        self._live: "dict[int, _LiveSub]" = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._on_finish = on_finish
        self._breakers: "dict[str, CircuitBreaker]" = {}
        # Hash-join build tables per workload signature: same relations +
        # same config partition identically, so same-signature submissions
        # reuse each other's build side instead of rebuilding it per run.
        self._build_caches: "dict[str, dict]" = {}
        self.metrics: "dict[str, int]" = {
            "submitted": 0,
            "admitted": 0,
            "rejected_circuit_open": 0,
            "rejected_queue_full": 0,
            "rejected_bulkhead": 0,
            "rejected_brownout": 0,
            "rejected_server_closed": 0,
            "answered": 0,
            "degraded": 0,
            "cancelled": 0,
            "failed": 0,
            "steps": 0,
            "brownout_degraded": 0,
        }

    # -- tenants --------------------------------------------------------- #
    def register_tenant(
        self,
        name: str,
        *,
        weight: "float | None" = None,
        tier: "int | None" = None,
        max_live: "int | None" = None,
    ) -> TenantSpec:
        """Declare (or re-declare, while idle) a tenant's serving contract.

        An argument left ``None`` takes :class:`TenantSpec`'s default;
        unregistered tenants are auto-registered at first submit with all
        three defaults.
        """
        given = {"weight": weight, "tier": tier, "max_live": max_live}
        spec = TenantSpec(
            name=name, **{k: v for k, v in given.items() if v is not None}
        )
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                self._tenants[name] = _TenantState(spec=spec)
            elif state.live:
                raise ValueError(
                    f"tenant {name!r} has {state.live} live submission(s); "
                    "re-register only while idle"
                )
            else:
                state.spec = spec
        return spec

    def _tenant_state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            self.register_tenant(name)
            state = self._tenants[name]
        return state

    # -- admission ------------------------------------------------------- #
    def submit(
        self,
        workload: "Workload",
        contracts: "dict[str, Contract]",
        *,
        tenant: str = "default",
        deadline: "float | None" = None,
        cancel_token: "CancellationToken | None" = None,
    ) -> "Ticket | Rejected":
        """Admit or shed one submission for ``tenant``.

        ``deadline`` is a *relative* virtual-time allowance from the
        moment of admission (mapped onto an absolute budget on the shared
        clock, so time spent live behind other runs consumes it); ``None``
        means no deadline.  The MQLA prologue runs here, on the caller's
        thread; if it raises, the admitted ticket finishes ``failed`` and
        counts against its breaker.
        """
        cfg = self.config
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        signature = workload_signature(workload)
        with self._lock:
            self.metrics["submitted"] += 1
            shed = self._shed(signature, tenant)
            if shed is not None:
                self.metrics[f"rejected_{shed.reason}"] += 1
                return shed
            state = self._tenants[tenant]
            sid = next(self._ids)
            overrides: "dict[str, Any]" = {}
            if deadline is not None:
                # Deadline -> absolute virtual budget; recovery on so the
                # run degrades to MQLA bounds at the deadline instead of
                # failing loudly.
                overrides["query_time_budget"] = self.clock.now() + float(
                    deadline
                )
                overrides["enable_recovery"] = True
            if cfg.enable_journal and cfg.journal_dir:
                # One journal directory per submission: live runs must not
                # share an append-only journal file.
                overrides["journal_dir"] = os.path.join(
                    cfg.journal_dir, f"sub-{sid:06d}"
                )
            run_cfg = replace(cfg, **overrides) if overrides else cfg
            token = cancel_token or CancellationToken()
            ticket = Ticket(sid, token, signature)
            self.metrics["admitted"] += 1
            try:
                live = CAQE(run_cfg).open_run(
                    self.left,
                    self.right,
                    workload,
                    contracts,
                    ExecutionStats(clock=self.clock),
                    cancel_token=token,
                    build_cache=self._build_caches.setdefault(signature, {}),
                    # Deadline-driven budgets stamp "deadline" on degraded
                    # reports so the reason taxonomy needs no re-derivation.
                    budget_reason=REASON_DEADLINE,
                )
            except ReproError as exc:
                self._finish(ticket, _failed(exc), breaker_failure=True)
                return ticket
            self._live[sid] = _LiveSub(
                sid=sid,
                tenant=tenant,
                tier=state.spec.tier,
                weight=state.spec.weight,
                ticket=ticket,
                live=live,
            )
            state.live += 1
            return ticket

    def _shed(self, signature: str, tenant: str) -> "Rejected | None":
        """The one admission sequence: closed, circuit breaker, brownout
        shed (rung 3, spares tier 0), global queue bound, per-tenant
        bulkhead.  ``None`` admits."""
        cfg = self.config
        if self._closed:
            return Rejected(REASON_SERVER_CLOSED)
        breaker = self._breakers.setdefault(
            signature,
            CircuitBreaker(
                threshold=cfg.server_breaker_threshold,
                cooldown=cfg.server_breaker_cooldown,
            ),
        )
        if not breaker.admit():
            return Rejected(
                REASON_CIRCUIT_OPEN,
                f"workload has failed {breaker.consecutive_failures} "
                "consecutive run(s)",
            )
        state = self._tenant_state(tenant)
        spec = state.spec
        ladder = self.policy == POLICY_BENEFIT
        live = len(self._live)
        shed = None
        if ladder and spec.tier > 0 and live >= cfg.tenant_brownout_shed_live:
            shed = Rejected(
                REASON_BROWNOUT_SHED,
                f"brownout rung 3: {live} live submission(s) "
                f">= shed threshold {cfg.tenant_brownout_shed_live}",
            )
        elif live >= cfg.server_queue_limit:
            shed = Rejected(
                REASON_QUEUE_FULL,
                f"admission queue at capacity ({cfg.server_queue_limit})",
            )
        elif ladder and state.live >= spec.max_live:
            shed = Rejected(
                REASON_BULKHEAD,
                f"tenant {tenant!r} at its bulkhead cap "
                f"({spec.max_live} in-flight submission(s))",
            )
        if shed is not None and breaker.state == HALF_OPEN:
            # A half-open trial that cannot even be admitted re-opens its
            # breaker with a fresh cooldown.
            breaker.record_failure()
        return shed

    # -- scheduling ------------------------------------------------------ #
    @property
    def idle(self) -> bool:
        """True iff no submission is in flight."""
        with self._lock:
            return not self._live

    def step(self) -> bool:
        """Advance the serving state by one region (or one brownout
        action).  Returns False iff there was nothing to do."""
        with self._lock:
            if not self._live:
                return False
            self.metrics["steps"] += 1
            if self.policy == POLICY_BENEFIT:
                self._apply_brownout_degrade()
                if not self._live:
                    return True
            sub = self._live[self._pick_sid()]
            before = self.clock.now()
            outcome: "ServedResult | None" = None
            breaker_failure = False
            try:
                sub.live.step()
            except QueryCancelled as exc:
                outcome = ServedResult(CANCELLED, error=str(exc))
            except ReproError as exc:
                outcome = _failed(exc)
                breaker_failure = True
            self._account_service(sub, self.clock.now() - before)
            if outcome is not None:
                self._complete(sub, outcome, breaker_failure)
            elif sub.live.done:
                self._complete(sub)
            return True

    def drain(self) -> int:
        """Step until idle; returns the number of steps taken."""
        steps = 0
        while self.step():
            steps += 1
        return steps

    def _pick_sid(self) -> int:
        """The next submission to advance by one region.

        FIFO policy: the oldest live submission (whole-run serving order,
        since steps repeat until done).  Benefit policy: under brownout
        rung 1 only the best live tier is eligible (work-conserving
        defer); the eligible runs then bid their best root CSM into
        :func:`~repro.core.benefit.rank_offers`.
        """
        subs = list(self._live.values())
        if self.policy == POLICY_FIFO:
            return subs[0].sid
        if len(subs) >= self.config.tenant_brownout_defer_live:
            top = min(s.tier for s in subs)
            eligible = [s for s in subs if s.tier == top]
        else:
            eligible = subs
        if len(eligible) == 1:
            return eligible[0].sid
        offers = [
            TenantOffer(
                tenant=s.tenant,
                csm=s.live.peek_best_csm(),
                weight=s.weight,
                deficit=self._tenants[s.tenant].deficit,
                tier=s.tier,
            )
            for s in eligible
        ]
        best = rank_offers(offers, self.config.tenant_fairness_pressure)[0]
        return eligible[best].sid

    def _account_service(self, sub: _LiveSub, dt: float) -> None:
        """Deficit round robin: charge the served tenant ``dt`` of virtual
        time and credit every tenant with live work its weighted share."""
        if dt <= 0.0:
            return
        self._tenants[sub.tenant].service += dt
        active = [
            self._tenants[name]
            for name in sorted({s.tenant for s in self._live.values()})
        ]
        total = sum(t.spec.weight for t in active)
        if total <= 0.0:
            return
        for state in active:
            state.entitled += dt * (state.spec.weight / total)

    def _apply_brownout_degrade(self) -> None:
        """Brownout rung 2: while the live count sits at or above the
        degrade threshold, answer the youngest lowest-tier submission
        from coarse MQLA bounds (tier 0 is never a victim)."""
        cfg = self.config
        while len(self._live) >= cfg.tenant_brownout_degrade_live:
            victims = [s for s in self._live.values() if s.tier > 0]
            if not victims:
                return
            victim = max(victims, key=lambda s: (s.tier, s.sid))
            victim.live.degrade_all(REASON_BROWNOUT)
            self.metrics["brownout_degraded"] += 1
            self._complete(victim)

    def _complete(
        self,
        sub: _LiveSub,
        outcome: "ServedResult | None" = None,
        breaker_failure: bool = False,
    ) -> None:
        """Retire one finished submission: close resources, classify the
        outcome (with the uniform reason taxonomy), notify, finish."""
        sub.live.close()
        if outcome is None:
            result = sub.live.finalize()
            degraded = any(result.degraded.values())
            breaker_failure = result.stats.regions_quarantined > 0
            outcome = ServedResult(
                DEGRADED if degraded else ANSWERED,
                result=result,
                reasons=outcome_reasons(
                    result, breaker_failure=breaker_failure
                ),
            )
        del self._live[sub.sid]
        self._tenants[sub.tenant].live -= 1
        self._finish(sub.ticket, outcome, breaker_failure)

    def _finish(
        self, ticket: Ticket, outcome: ServedResult, breaker_failure: bool
    ) -> None:
        """Terminal bookkeeping of one admitted ticket: status counter,
        the breaker verdict, the completion hook."""
        self.metrics[outcome.status] += 1
        breaker = self._breakers[ticket.signature]
        if outcome.status == CANCELLED:
            # Cancellation says nothing about workload health — but a
            # cancelled half-open trial must not strand its breaker:
            # re-open it so a later cooldown admits another trial.
            if breaker.state == HALF_OPEN:
                breaker.record_failure()
        elif breaker_failure:
            breaker.record_failure()
        else:
            breaker.record_success()
        if self._on_finish is not None:
            self._on_finish(ticket, outcome, breaker_failure)
        ticket._finish(outcome)

    # -- observability --------------------------------------------------- #
    def tenant_report(self) -> "dict[str, dict[str, float]]":
        """Per-tenant fairness snapshot (service, entitlement, deficit)."""
        with self._lock:
            return {
                name: {
                    "weight": float(state.spec.weight),
                    "tier": float(state.spec.tier),
                    "live": float(state.live),
                    "service": float(state.service),
                    "entitled": float(state.entitled),
                    "deficit": float(state.deficit),
                }
                for name, state in sorted(self._tenants.items())
            }

    # -- lifecycle ------------------------------------------------------- #
    def close(self) -> None:
        """Stop admitting, finish every admitted submission (every
        admission terminates) (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.drain()

    def __enter__(self) -> "RegionScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "POLICY_BENEFIT",
    "POLICY_FIFO",
    "REASON_BULKHEAD",
    "REASON_BROWNOUT_SHED",
    "RegionScheduler",
    "TenantSpec",
]
