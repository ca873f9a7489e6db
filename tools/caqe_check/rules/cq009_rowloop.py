"""CQ009 — per-row Python loops over relation columns in the hot path.

The columnar data plane (docs/ARCHITECTURE.md §11) keeps the region hot
path — tuple-level join, projection, and result commit — as array
programs: one numpy call over a whole region, never a Python-level loop
over the rows of a relation column.  A ``for`` loop that walks
``.tolist()`` output or a ``Relation.column(...)`` array re-boxes every
cell into a Python object and silently reverts the region cost model to
interpreter speed.

Scope: the hot-path modules ``core/executor.py``,
``query/joinkernel.py`` and ``skyline/window.py`` (whose SoA columns
— docs/ARCHITECTURE.md §14 — make per-row Python loops just as costly as
relation-column walks).  Flagged: ``for`` loops and comprehensions
whose iterable is

* an ``<array>.tolist()`` call (the canonical per-row unboxing);
* a ``.column(...)`` / ``.columns(...)`` relation accessor call;
* ``zip(...)`` / ``enumerate(...)`` / ``reversed(...)`` where any
  argument is (recursively) one of the above;
* a local name bound to one of the above in the same scope.

Deliberate scalar paths — the ablation corners that prove bit-identity
against the vectorised plane — carry ``# caqe-check: disable=CQ009``
with a justification comment.
"""

from __future__ import annotations

import ast

from tools.caqe_check.engine import CheckedFile
from tools.caqe_check.report import Violation

CODE = "CQ009"

_SCOPE_SUFFIXES = (
    "core/executor.py",
    "query/joinkernel.py",
    "skyline/window.py",
)

_WRAPPERS = ("zip", "enumerate", "reversed")
_COLUMN_ATTRS = ("tolist", "column", "columns")


def _in_scope(posix: str) -> bool:
    return posix.endswith(_SCOPE_SUFFIXES)


def _is_rowwise_expr(node: ast.AST) -> "str | None":
    """Describe ``node`` if it yields per-row views of column data."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _COLUMN_ATTRS:
        if func.attr == "tolist":
            return ".tolist() result"
        return f".{func.attr}(...) relation column"
    if isinstance(func, ast.Name) and func.id in _WRAPPERS:
        for arg in node.args:
            inner = _is_rowwise_expr(arg)
            if inner is not None:
                return f"{func.id}(...) over {inner}"
    return None


class _ScopeVisitor:
    """Track column-bound names per scope and flag row-wise iterations."""

    def __init__(self, file: CheckedFile) -> None:
        self.file = file
        self.violations: "list[Violation]" = []

    def _iterable_kind(
        self, node: ast.AST, column_names: "dict[str, str]"
    ) -> "str | None":
        direct = _is_rowwise_expr(node)
        if direct is not None:
            return direct
        if isinstance(node, ast.Name):
            return column_names.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _WRAPPERS:
                for arg in node.args:
                    inner = self._iterable_kind(arg, column_names)
                    if inner is not None:
                        return f"{func.id}(...) over {inner}"
        return None

    def scan(self, body: "list[ast.stmt]") -> None:
        column_names: "dict[str, str]" = {}
        nodes: "list[ast.AST]" = []
        stack: "list[ast.AST]" = [
            stmt
            for stmt in body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.append(child)
        for node in nodes:
            if isinstance(node, ast.Assign):
                kind = _is_rowwise_expr(node.value)
                if kind is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            column_names[target.id] = kind
        iterables: "list[tuple[ast.AST, ast.AST]]" = []
        for node in nodes:
            if isinstance(node, ast.For):
                iterables.append((node, node.iter))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    iterables.append((node, generator.iter))
        for anchor, iterable in iterables:
            kind = self._iterable_kind(iterable, column_names)
            if kind is None:
                continue
            violation = self.file.violation(
                anchor,
                CODE,
                f"per-row loop over {kind}: hot-path modules must process "
                "regions as array programs (docs/ARCHITECTURE.md §11); "
                "vectorise, or pragma a deliberate scalar ablation path",
            )
            if violation is not None:
                self.violations.append(violation)


def check(file: CheckedFile) -> "list[Violation]":
    if not _in_scope(file.posix):
        return []
    visitor = _ScopeVisitor(file)
    scopes: "list[list[ast.stmt]]" = [file.tree.body]
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)
    for body in scopes:
        visitor.scan(body)
    return visitor.violations
