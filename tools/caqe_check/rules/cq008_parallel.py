"""CQ008 — no process parallelism in the engine.

Algorithm 1 commits regions one at a time in benefit order, and every
observable (region trace, comparison counts, virtual time, reported
identity sets) is a deterministic function of that serial commit.
Process fan-out would reintroduce scheduling nondeterminism, and the
work it could move off the driver (cell join + projection) is ≈ 5 % of a
run (EXPERIMENTS.md § "Worker pool verdict"), so this rule forbids,
everywhere under ``repro/``:

* ``import multiprocessing`` / ``from multiprocessing import ...``
  (including submodules such as ``multiprocessing.pool``);
* ``import concurrent.futures`` / ``from concurrent.futures import
  ...`` — both process and thread pools construct futures-based fan-out;
* calls to ``os.fork`` / ``os.forkpty``.

Thread primitives (``threading``) stay allowed: the serving layer's
driver thread steps one scheduler under its lock, so threads never skip
the serial commit.  Deliberate exceptions can carry
``# caqe-check: disable=CQ008``.
"""

from __future__ import annotations

import ast

from tools.caqe_check.engine import CheckedFile, dotted_name
from tools.caqe_check.report import Violation

CODE = "CQ008"

_BANNED_MODULES = ("multiprocessing", "concurrent")
_BANNED_OS_CALLS = {"fork", "forkpty"}


def _in_scope(posix: str) -> bool:
    return "repro/" in posix


def check(file: CheckedFile) -> "list[Violation]":
    if not _in_scope(file.posix):
        return []
    violations: "list[Violation]" = []

    def emit(node: ast.AST, message: str) -> None:
        violation = file.violation(node, CODE, message)
        if violation is not None:
            violations.append(violation)

    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_MODULES:
                    emit(
                        node,
                        f"import of {alias.name!r}: process parallelism "
                        "is banned in the engine (regions commit serially "
                        "in benefit order)",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            if module in _BANNED_MODULES:
                emit(
                    node,
                    f"import from {node.module!r}: process parallelism "
                    "is banned in the engine (regions commit serially "
                    "in benefit order)",
                )
        elif isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None or len(chain) < 2:
                continue
            if chain[0] == "os" and chain[-1] in _BANNED_OS_CALLS:
                emit(
                    node,
                    f"call to os.{chain[-1]}: process parallelism is "
                    "banned in the engine (regions commit serially in "
                    "benefit order)",
                )
    return violations
