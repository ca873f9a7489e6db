"""CQ012 — determinism taint: unordered values must not order anything.

``set``/``frozenset`` iteration order follows ``PYTHONHASHSEED`` and
insertion history; ``id()`` follows the allocator.  A value derived from
either is harmless as *data* but poison as an *ordering decision*: used
as a sort key, written into a journal record, pushed onto a scheduling
heap, or driving skyline insertion order, it silently breaks the
bit-identical-replay contract that the durability layer is built on.

The taint pass in :mod:`tools.caqe_check.effects` tracks these values
interprocedurally: functions that *return* tainted values propagate the
taint to their callers (so a helper one call hop away still trips the
sink), and parameters that flow to the return value conduct taint
through wrappers.  Sinks are ``sorted(..., key=...)`` / ``.sort(key=...)``
keys, ``heapq.heappush`` payloads, and the ordering-sensitive calls
registered in ``effects.SINK_CALLS`` (journal append, skyline insert).

Sorting a tainted *iterable* is deliberately not a sink — ``sorted`` is
exactly how unordered collections are made deterministic; only the key
(the ordering decision itself) is checked.
"""

from __future__ import annotations

from tools.caqe_check.effects import analyze_program
from tools.caqe_check.engine import CheckedFile
from tools.caqe_check.report import Violation

CODE = "CQ012"


def check_project(
    files: "list[CheckedFile]", docs_text: "str | None"
) -> "list[Violation]":
    result = analyze_program(files)
    by_path = {file.posix: file for file in files}
    violations: "list[Violation]" = []
    for path, line, message in result.taint:
        file = by_path.get(path)
        if file is not None and file.suppressions.is_suppressed(CODE, line):
            continue
        violations.append(
            Violation(
                path,
                line,
                0,
                CODE,
                f"{message}; ordering-sensitive sinks must consume "
                "deterministic values (sort the source or key on stable "
                "identity)",
            )
        )
    return violations
