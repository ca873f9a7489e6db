"""Deterministic fault injection for chaos testing the CAQE engine.

A :class:`FaultPlan` is a pure function from *(seed, injection site)* to a
fault decision: two runs configured with the same seed replay the exact
same fault schedule, so chaos tests can assert bit-identical traces under
failure.  Three injection points are modelled:

* **corrupted input vectors** — a seeded subset of base-table rows gets a
  measure overwritten with ``NaN``, ``±inf``, or an out-of-domain value
  (what an upstream feed glitch looks like to the engine);
* **region-executor exceptions** — tuple-level evaluation of a chosen
  region raises :class:`~repro.errors.RegionFailure` at entry (before any
  shared-plan mutation, so a retry is a clean re-execution);
* **simulated stragglers** — a region's tuple-level work is charged a
  virtual-clock multiplier, modelling a slow partition without touching
  the algorithm (Beame et al.'s skew-dominated tail latency).

Decisions are *order independent*: each is derived by hashing the seed
with the injection site's stable identifiers (region id, attempt number,
relation side) through a SplitMix64 finaliser and feeding the result to
:func:`repro.rng.ensure_rng`.  Retrying regions in a different order
therefore never shifts any other region's fate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.relation import Relation
from repro.rng import ensure_rng

_MASK64 = (1 << 64) - 1
#: Stable small codes for each injection site (mixed into the hash).
_SITE_CORRUPT = 1
_SITE_REGION_FAIL = 2
_SITE_PERSISTENT = 3
_SITE_STRAGGLER = 4
_SITE_TENANT_BURST = 6

#: Corruption kinds cycled through by :meth:`FaultPlan.corrupt_relation`.
CORRUPTION_KINDS: "tuple[str, ...]" = ("nan", "posinf", "neginf", "domain")


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: avalanche one 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _derive_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed for one injection site."""
    acc = _mix64(seed ^ 0x9E3779B97F4A7C15)
    for part in parts:
        acc = _mix64(acc ^ _mix64(part))
    return acc


@dataclass(frozen=True)
class InjectedFault:
    """One corruption applied to a base table (for audit trails)."""

    relation: str
    row: int
    attribute: str
    kind: str


@dataclass(frozen=True)
class FaultConfig:
    """Rates and shapes of the deterministic fault schedule."""

    #: Master seed; identical seeds replay identical fault schedules.
    seed: int = 0
    #: Fraction of each table's rows that get one corrupted measure.
    corrupt_fraction: float = 0.0
    #: Per-(region, attempt) probability of a transient executor failure.
    region_failure_rate: float = 0.0
    #: Per-region probability of failing *every* attempt (forces the
    #: recovery layer down the quarantine path).
    persistent_failure_rate: float = 0.0
    #: Per-region probability of being a straggler.
    straggler_rate: float = 0.0
    #: Virtual-clock multiplier applied to a straggler region's work.
    straggler_factor: float = 4.0
    #: Magnitude written by the "domain" corruption kind (must exceed the
    #: sanitizer's domain limit to be caught).
    domain_violation_value: float = 1e12

    def validate(self) -> None:
        for name in (
            "corrupt_fraction",
            "region_failure_rate",
            "persistent_failure_rate",
            "straggler_rate",
        ):
            rate = float(getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise ExecutionError(
                    f"fault rate {name!r} must lie in [0, 1], got {rate}"
                )
        if self.straggler_factor < 1.0:
            raise ExecutionError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, order-independent fault schedule (see module docstring)."""

    config: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        self.config.validate()

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True iff any injection point can ever fire."""
        cfg = self.config
        return (
            cfg.corrupt_fraction > 0.0
            or cfg.region_failure_rate > 0.0
            or cfg.persistent_failure_rate > 0.0
            or cfg.straggler_rate > 0.0
        )

    def _uniform(self, site: int, *parts: int) -> float:
        rng = ensure_rng(_derive_seed(self.config.seed, site, *parts))
        return float(rng.random())

    # -- corrupted inputs ---------------------------------------------- #
    def corrupt_relation(
        self, relation: Relation, side_code: int
    ) -> "tuple[Relation, list[InjectedFault]]":
        """Corrupt a seeded subset of ``relation``'s measure values.

        Returns the (possibly new) relation plus an audit list; with a
        zero ``corrupt_fraction`` the input object is returned unchanged
        so disabled runs stay bit-identical.
        """
        cfg = self.config
        n = relation.cardinality
        measures = relation.schema.measure_names
        count = int(round(cfg.corrupt_fraction * n))
        if count == 0 or not measures:
            return relation, []
        rng = ensure_rng(_derive_seed(cfg.seed, _SITE_CORRUPT, side_code))
        rows = np.sort(rng.choice(n, size=min(count, n), replace=False))
        attr_picks = rng.integers(0, len(measures), size=len(rows))
        kind_picks = rng.integers(0, len(CORRUPTION_KINDS), size=len(rows))
        columns = {
            name: np.array(relation.column(name), copy=True)
            for name in relation.schema.names
        }
        injected: "list[InjectedFault]" = []
        for row, a_pick, k_pick in zip(
            rows.tolist(), attr_picks.tolist(), kind_picks.tolist()
        ):
            attribute = measures[a_pick]
            kind = CORRUPTION_KINDS[k_pick]
            column = columns[attribute]
            if not np.issubdtype(column.dtype, np.floating):
                column = column.astype(float)
                columns[attribute] = column
            if kind == "nan":
                column[row] = np.nan
            elif kind == "posinf":
                column[row] = np.inf
            elif kind == "neginf":
                column[row] = -np.inf
            else:
                column[row] = cfg.domain_violation_value
            injected.append(
                InjectedFault(relation.name, row, attribute, kind)
            )
        return Relation(relation.name, relation.schema, columns), injected

    def corrupt_pair(
        self, left: Relation, right: Relation
    ) -> "tuple[Relation, Relation, list[InjectedFault]]":
        """Corrupt both base tables (side codes 0 and 1)."""
        new_left, faults_left = self.corrupt_relation(left, 0)
        new_right, faults_right = self.corrupt_relation(right, 1)
        return new_left, new_right, faults_left + faults_right

    # -- region failures ----------------------------------------------- #
    def region_fails(self, region_id: int, attempt: int) -> bool:
        """Should tuple-level processing of this attempt raise?"""
        cfg = self.config
        if cfg.persistent_failure_rate > 0.0 and (
            self._uniform(_SITE_PERSISTENT, region_id)
            < cfg.persistent_failure_rate
        ):
            return True
        if cfg.region_failure_rate <= 0.0:
            return False
        return (
            self._uniform(_SITE_REGION_FAIL, region_id, attempt)
            < cfg.region_failure_rate
        )

    # -- stragglers ----------------------------------------------------- #
    def straggler_factor_for(self, region_id: int) -> float:
        """Virtual-clock multiplier for one region (1.0 = on time)."""
        cfg = self.config
        if cfg.straggler_rate <= 0.0:
            return 1.0
        if self._uniform(_SITE_STRAGGLER, region_id) < cfg.straggler_rate:
            return float(cfg.straggler_factor)
        return 1.0


@dataclass(frozen=True)
class TenantBurstPlan:
    """Serving-layer chaos: deterministic per-tenant arrival bursts (§13.4).

    The multi-tenant load generator consults this plan to modulate each
    synthetic tenant's arrival rate over *virtual* time: a seeded subset
    of tenants flips between quiet and bursting on a duty-cycled square
    wave, with a per-tenant phase offset so bursts collide rather than
    synchronise.  Every decision is a pure function of ``(seed,
    tenant_id)`` plus the queried virtual timestamp — same SplitMix64 /
    :func:`~repro.rng.ensure_rng` discipline as the other injection
    sites — so two runs at one seed replay the identical burst schedule
    regardless of completion interleaving.
    """

    #: Master seed; identical seeds replay identical burst schedules.
    seed: int = 0
    #: Fraction of tenants that burst at all.
    burst_fraction: float = 0.5
    #: Arrival-rate multiplier while a tenant is bursting (its closed-loop
    #: think time is divided by this).
    burst_factor: float = 4.0
    #: Virtual-time length of one quiet/burst cycle.
    burst_period: float = 2000.0
    #: Fraction of each cycle spent bursting.
    burst_duty: float = 0.3

    def __post_init__(self) -> None:
        for name in ("burst_fraction", "burst_duty"):
            rate = float(getattr(self, name))
            if not 0.0 <= rate <= 1.0:
                raise ExecutionError(
                    f"{name} must lie in [0, 1], got {rate}"
                )
        if self.burst_factor < 1.0:
            raise ExecutionError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_period <= 0.0:
            raise ExecutionError(
                f"burst_period must be positive, got {self.burst_period}"
            )

    @property
    def active(self) -> bool:
        """True iff any tenant can ever burst."""
        return (
            self.burst_fraction > 0.0
            and self.burst_duty > 0.0
            and self.burst_factor > 1.0
        )

    def is_bursty(self, tenant_id: int) -> bool:
        """Does this tenant ever burst?  (Seeded per-tenant coin.)"""
        if self.burst_fraction <= 0.0:
            return False
        rng = ensure_rng(
            _derive_seed(self.seed, _SITE_TENANT_BURST, tenant_id, 0)
        )
        return float(rng.random()) < self.burst_fraction

    def rate_multiplier(self, tenant_id: int, virtual_time: float) -> float:
        """Arrival-rate multiplier for ``tenant_id`` at ``virtual_time``.

        1.0 while quiet; ``burst_factor`` during the burst phase of the
        tenant's (phase-shifted) duty cycle.
        """
        if not self.active or not self.is_bursty(tenant_id):
            return 1.0
        rng = ensure_rng(
            _derive_seed(self.seed, _SITE_TENANT_BURST, tenant_id, 1)
        )
        phase_offset = float(rng.random())
        phase = (virtual_time / self.burst_period + phase_offset) % 1.0
        return float(self.burst_factor) if phase < self.burst_duty else 1.0


__all__ = [
    "CORRUPTION_KINDS",
    "FaultConfig",
    "FaultPlan",
    "InjectedFault",
    "TenantBurstPlan",
]
