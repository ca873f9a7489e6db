"""CQ013 — bounded waits in the serving layer (docs/ARCHITECTURE.md §13.5).

Every blocking wait in ``src/repro/serving`` must carry a bound.  The
serving layer is the only part of the tree where threads park on
synchronisation primitives; an unbounded ``Queue.get()`` / ``Event.wait()``
/ ``Lock.acquire()`` turns any lost wakeup (or a peer that died without
signalling) into a permanent hang — the exact failure mode the
overload-safety work exists to rule out.  Loops that need to block
forever in spirit must wake on a timeout tick and re-check their exit
condition instead.

Flagged calls (by attribute name — the linter is type-free, so the rule
is deliberately name-based and the serving layer avoids colliding
method names):

* ``.get()`` with no positional timeout and no ``timeout=`` keyword, or
  with an explicit ``timeout=None`` (``block=False``/``block=0`` is
  non-blocking and therefore fine);
* ``.wait()`` with no arguments or an explicit ``timeout=None``;
* ``.acquire()`` with no arguments or ``timeout=-1`` spelled as a bare
  call (``acquire(timeout=...)`` with a real bound is fine).

``with lock:`` blocks are *not* flagged: lock hold times in the serving
layer are bounded by a single region step, and rewriting every context
manager into try/acquire/finally would hurt far more than it helps.

Scope: files whose path contains ``repro/serving/``.  Suppress a
deliberate unbounded wait with ``# caqe-check: disable=CQ013``.
"""

from __future__ import annotations

import ast

from tools.caqe_check.engine import CheckedFile
from tools.caqe_check.report import Violation

CODE = "CQ013"

#: Blocking-capable method names and the primitive family they belong to.
_BLOCKING_METHODS = {
    "get": "queue.Queue.get",
    "wait": "threading.Event/Condition.wait",
    "acquire": "threading.Lock.acquire",
}


def _is_none(node: "ast.expr | None") -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_falsy_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and not node.value


def _unbounded(call: ast.Call, method: str) -> bool:
    """Could this call block forever?

    Conservative in the right direction: a positional argument in the
    timeout slot is treated as a bound (we cannot evaluate it), while an
    explicit ``timeout=None`` — the spelling that *documents* an
    unbounded wait — is always flagged.
    """
    timeout_kw = next(
        (kw for kw in call.keywords if kw.arg == "timeout"), None
    )
    if timeout_kw is not None:
        return _is_none(timeout_kw.value)
    if method == "get":
        # get(block=False) / get_nowait-style spellings never block.
        block_kw = next(
            (kw for kw in call.keywords if kw.arg == "block"), None
        )
        if block_kw is not None and _is_falsy_const(block_kw.value):
            return False
        # Only the spellings that *are* Queue.get-blocking-forever are
        # flagged: ``get()``, ``get(block=True)``, ``get(True)``.  A
        # dict-style ``get(key[, default])`` carries positionals the
        # rule must not confuse with ``block``.
        if not call.args:
            return True
        return (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is True
        )
    if method == "wait":
        # wait(timeout) — any positional is the bound.
        return len(call.args) < 1
    if method == "acquire":
        # acquire(blocking=False) never blocks; acquire(blocking, timeout)
        # carries its bound positionally.
        blocking_kw = next(
            (kw for kw in call.keywords if kw.arg == "blocking"), None
        )
        if blocking_kw is not None and _is_falsy_const(blocking_kw.value):
            return False
        if call.args and _is_falsy_const(call.args[0]):
            return False
        return len(call.args) < 2
    return False


def check(file: CheckedFile) -> "list[Violation]":
    if "repro/serving/" not in file.posix:
        return []
    violations: "list[Violation]" = []
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        method = func.attr
        family = _BLOCKING_METHODS.get(method)
        if family is None:
            continue
        if _unbounded(node, method):
            violation = file.violation(
                node,
                CODE,
                f"unbounded blocking wait: .{method}() without a timeout "
                f"({family}) can hang the serving layer forever — pass "
                "timeout=<bound> and re-check the exit condition",
            )
            if violation is not None:
                violations.append(violation)
    return violations
