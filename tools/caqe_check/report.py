"""Violation records and text/JSON/SARIF rendering for ``caqe-check``."""

from __future__ import annotations

import json
from dataclasses import dataclass

#: One-line descriptions per rule code, embedded in SARIF output.
RULE_DESCRIPTIONS = {
    "CQ000": "File does not parse; every rule is blind to it",
    "CQ001": "RNG discipline: randomness only via repro.rng.ensure_rng",
    "CQ002": "Dominance checks only via repro.skyline.dominance helpers",
    "CQ003": "Iteration-order hygiene in the scheduler/executor layer",
    "CQ004": "CAQEConfig fields must be read and documented",
    "CQ005": "No float-literal equality comparisons",
    "CQ006": "No bare/broad except without re-raise in src/repro",
    "CQ007": "No wall-clock reads in src/repro (virtual clock only)",
    "CQ008": "No process parallelism in src/repro (serial commit only)",
    "CQ009": "No per-row loops over relation columns in the hot path",
    "CQ011": "Layer contracts: no upward imports, no import cycles",
    "CQ012": "Determinism taint: unordered values must not order anything",
}


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def render_report(violations: "list[Violation]") -> str:
    """Deterministic (path, line, code)-sorted report, one hit per line."""
    lines = [v.render() for v in sorted(violations)]
    lines.append(
        f"caqe-check: {len(violations)} violation(s)"
        if violations
        else "caqe-check: clean"
    )
    return "\n".join(lines)


def render_json(violations: "list[Violation]") -> str:
    """Machine-readable report: sorted violations + count."""
    payload = {
        "tool": "caqe-check",
        "count": len(violations),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "code": v.code,
                "message": v.message,
            }
            for v in sorted(violations)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def render_sarif(violations: "list[Violation]") -> str:
    """SARIF 2.1.0 — one run, one result per violation."""
    codes = sorted({v.code for v in violations} | set(RULE_DESCRIPTIONS))
    rules = [
        {
            "id": code,
            "shortDescription": {
                "text": RULE_DESCRIPTIONS.get(code, code),
            },
        }
        for code in codes
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": v.path},
                        "region": {
                            "startLine": v.line,
                            "startColumn": max(v.col, 0) + 1,
                        },
                    }
                }
            ],
        }
        for v in sorted(violations)
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "caqe-check",
                        "informationUri": "docs/ARCHITECTURE.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


__all__ = [
    "RULE_DESCRIPTIONS",
    "Violation",
    "render_json",
    "render_report",
    "render_sarif",
]
