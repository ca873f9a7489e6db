"""CQ002 — dominance discipline (Definition 8 / Theorem 1 semantics).

The skyline literature is littered with subtly divergent dominance
variants; CAQE's correctness proofs assume exactly one (min-max cuboid
semantics, ties allowed, strict somewhere).  All dominance tests must
therefore call into :mod:`repro.skyline.dominance` — the one audited,
comparison-charging implementation — rather than re-deriving
``all(a <= b) and any(a < b)`` inline.

Scope: ``core/``, ``baselines/`` and ``plan/`` modules.  The rule flags a
boolean combination (``and`` / ``&``) whose operands pair an
``all``/``np.all`` over a ``<=``/``>=`` comparison with an
``any``/``np.any`` over a ``<``/``>`` comparison — either written inline
in one expression or staged through local variables::

    le = np.all(a <= b, axis=1)       # staged form
    lt = np.any(a < b, axis=1)
    mask = le & lt                    # <-- CQ002

    if np.all(u <= l) and np.any(u < l):   # <-- CQ002 (inline form)

In ``core/``, ``plan/`` and ``skyline/window.py`` it also flags the
pairwise-broadcast idiom the per-attribute kernel replaced — an ``all`` /
``any`` reduction whose operand compares two ``[:, None, :]``-style
broadcast operands, which materialises an ``(n, m, d)`` cube and reduces
it over the tiny attribute axis::

    le = (a[:, None, :] <= b[None, :, :]).all(axis=2)   # <-- CQ002
"""

from __future__ import annotations

import ast

from tools.caqe_check.engine import CheckedFile, contains_compare, dotted_name
from tools.caqe_check.report import Violation

CODE = "CQ002"

_SCOPE_FRAGMENTS = ("/core/", "/baselines/", "/plan/")
_BROADCAST_SCOPE_FRAGMENTS = ("/core/", "/plan/", "/skyline/window.py")

#: Classification labels for sub-expressions.
_ALL_LE = "all_le"
_ANY_LT = "any_lt"


def _is_broadcast_operand(node: ast.AST) -> bool:
    """``x[:, None, :]``-style: a subscript that inserts a new axis."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    for elt in index.elts if isinstance(index, ast.Tuple) else [index]:
        if isinstance(elt, ast.Constant) and elt.value is None:
            return True
        if (dotted_name(elt) or ("",))[-1] == "newaxis":
            return True
    return False


def _is_broadcast_reduction(node: ast.AST) -> bool:
    """``(a[:, None] <= b[None, :]).all(...)`` / ``np.any(<same>, ...)``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("all", "any")
    ):
        return False
    chain = dotted_name(node.func)
    if chain is not None and chain[0] in ("np", "numpy"):
        operand = node.args[0] if node.args else None
    else:
        operand = node.func.value
    return (
        isinstance(operand, ast.Compare)
        and len(operand.ops) == 1
        and isinstance(operand.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        and _is_broadcast_operand(operand.left)
        and _is_broadcast_operand(operand.comparators[0])
    )


def _call_kind(node: ast.AST) -> "str | None":
    """Classify ``all(x <= y)`` / ``np.any(x < y)``-shaped calls."""
    if not isinstance(node, ast.Call) or not node.args:
        return None
    chain = dotted_name(node.func)
    if chain is None or chain[-1] not in ("all", "any"):
        return None
    arg = node.args[0]
    if chain[-1] == "all" and contains_compare(arg, (ast.LtE, ast.GtE)):
        return _ALL_LE
    if chain[-1] == "any" and contains_compare(arg, (ast.Lt, ast.Gt)):
        return _ANY_LT
    return None


class _FunctionScanner:
    """Classify names bound in one function body, then flag combiners."""

    def __init__(self) -> None:
        self.name_kinds: "dict[str, str]" = {}

    def classify(self, node: ast.AST) -> "str | None":
        direct = _call_kind(node)
        if direct is not None:
            return direct
        if isinstance(node, ast.Name):
            return self.name_kinds.get(node.id)
        return None

    def _walk_scope(self, body: "list[ast.stmt]") -> "list[ast.AST]":
        """Walk one scope without descending into nested function defs
        (each nested def is scanned as its own scope)."""
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
        return nodes

    def scan(self, body: "list[ast.stmt]") -> "list[ast.AST]":
        """Return the combiner nodes that pair ``all(<=)`` with ``any(<)``."""
        hits: "list[ast.AST]" = []
        nodes = self._walk_scope(body)
        # Two passes: bind every staged name first, then flag combiners, so
        # source order between assignment and use never matters.
        for node in nodes:
            if isinstance(node, ast.Assign):
                kind = _call_kind(node.value)
                if kind is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.name_kinds[target.id] = kind
        for node in nodes:
            operands: "list[ast.AST]" = []
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                operands = list(node.values)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
                operands = [node.left, node.right]
            if not operands:
                continue
            kinds = {self.classify(op) for op in operands}
            if _ALL_LE in kinds and _ANY_LT in kinds:
                hits.append(node)
        return hits


def check(file: CheckedFile) -> "list[Violation]":
    violations: "list[Violation]" = []
    if any(fragment in file.posix for fragment in _BROADCAST_SCOPE_FRAGMENTS):
        for node in ast.walk(file.tree):
            if _is_broadcast_reduction(node):
                violation = file.violation(
                    node,
                    CODE,
                    "pairwise broadcast comparison reduced over the attribute "
                    "axis; call repro.skyline.dominance (dominance_broadcast / "
                    "all_lt_broadcast / dominance_codes) instead",
                )
                if violation is not None:
                    violations.append(violation)
    if not any(fragment in file.posix for fragment in _SCOPE_FRAGMENTS):
        return violations
    scopes: "list[list[ast.stmt]]" = [file.tree.body]
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node.body)
    for body in scopes:
        scanner = _FunctionScanner()
        for hit in scanner.scan(body):
            violation = file.violation(
                hit,
                CODE,
                "inline tuple-dominance test (all(<=) combined with "
                "any(<)); call repro.skyline.dominance instead",
            )
            if violation is not None:
                violations.append(violation)
    return violations
