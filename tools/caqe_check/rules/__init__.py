"""Rule registry for ``caqe-check``.

``FILE_RULES`` run per file; ``PROJECT_RULES`` run once over the whole
collection.  Order is the report order for equal (path, line) hits.

``CQ000`` (syntax-error diagnostic) is emitted by the engine itself —
an unparseable file cannot carry pragmas or be scanned by any rule, so
it is surfaced before the registry runs.
"""

from tools.caqe_check.rules import (
    cq001_rng,
    cq002_dominance,
    cq003_iteration,
    cq004_config,
    cq005_float_eq,
    cq006_exceptions,
    cq007_wallclock,
    cq008_parallel,
    cq009_rowloop,
    cq011_layers,
    cq012_taint,
    cq013_bounded_waits,
)

FILE_RULES = (
    cq001_rng,
    cq002_dominance,
    cq003_iteration,
    cq005_float_eq,
    cq006_exceptions,
    cq007_wallclock,
    cq008_parallel,
    cq009_rowloop,
    cq013_bounded_waits,
)
PROJECT_RULES = (cq004_config, cq011_layers, cq012_taint)

#: Engine-level diagnostic code (not a rule module).
SYNTAX_ERROR_CODE = "CQ000"

ALL_CODES = (SYNTAX_ERROR_CODE,) + tuple(
    rule.CODE for rule in FILE_RULES + PROJECT_RULES
)

__all__ = ["ALL_CODES", "FILE_RULES", "PROJECT_RULES", "SYNTAX_ERROR_CODE"]
