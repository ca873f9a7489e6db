"""``# caqe-check: disable=RULE`` suppression pragmas.

Three placements are honoured:

* **same line** — suppresses the named rules on that line only;
* **standalone line** — a comment-only line suppresses the named rules on
  the next non-blank line (handy above multi-line statements);
* **file header** — a standalone pragma before the first statement or
  docstring suppresses the named rules for the whole file.

``disable=all`` suppresses every rule.  Rule names are comma-separated and
case-insensitive (``CQ001`` canonical).

Decorated definitions get one extra accommodation: project rules (CQ011+)
anchor violations at the ``def``/``class`` line, but a pragma written
above the definition lands on the *decorator* line first.  Any pragma
that binds to a decorator line is therefore extended to the decorated
definition's own line as well, so ``# caqe-check: disable=CQ012`` above
``@dataclass`` suppresses as the author intended.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize

_PRAGMA_RE = re.compile(
    r"#\s*caqe-check:\s*disable\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+)"
)

#: Sentinel rule name that matches every rule code.
ALL = "ALL"


def _parse_rules(comment: str) -> "frozenset[str] | None":
    match = _PRAGMA_RE.search(comment)
    if match is None:
        return None
    rules = frozenset(
        part.strip().upper()
        for part in match.group("rules").split(",")
        if part.strip()
    )
    return rules or None


class Suppressions:
    """Per-file pragma index answering ``is_suppressed(code, line)``."""

    def __init__(
        self,
        line_rules: "dict[int, frozenset[str]]",
        file_rules: "frozenset[str]",
    ) -> None:
        self._line_rules = line_rules
        self._file_rules = file_rules

    def is_suppressed(self, code: str, line: int) -> bool:
        code = code.upper()
        if ALL in self._file_rules or code in self._file_rules:
            return True
        rules = self._line_rules.get(line)
        if rules is None:
            return False
        return ALL in rules or code in rules


def parse_pragmas(source: str) -> Suppressions:
    """Scan ``source`` once with :mod:`tokenize` and index its pragmas."""
    line_rules: "dict[int, set[str]]" = {}
    file_rules: "set[str]" = set()
    pending: "list[tuple[int, frozenset[str]]]" = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    code_lines: "set[int]" = set()
    for tok in tokens:
        if tok.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            continue
        code_lines.add(tok.start[0])
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        rules = _parse_rules(tok.string)
        if rules is None:
            continue
        line = tok.start[0]
        if line in code_lines:
            line_rules.setdefault(line, set()).update(rules)
        elif not any(code_line <= line for code_line in code_lines):
            # Standalone pragma above every statement: file-wide.
            file_rules.update(rules)
        else:
            pending.append((line, rules))
    # A standalone pragma applies to the next line that holds code.
    for line, rules in pending:
        targets = [code_line for code_line in code_lines if code_line > line]
        if targets:
            line_rules.setdefault(min(targets), set()).update(rules)
    # Pragmas bound to a decorator line also cover the decorated
    # definition's own line (where def-anchored rules report).
    decorator_map = _decorator_lines(source)
    for line in sorted(set(line_rules) & set(decorator_map)):
        line_rules.setdefault(decorator_map[line], set()).update(
            line_rules[line]
        )
    return Suppressions(
        {line: frozenset(rules) for line, rules in line_rules.items()},
        frozenset(file_rules),
    )


def _decorator_lines(source: str) -> "dict[int, int]":
    """Map every decorator line to its definition's ``def``/``class`` line."""
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return {}
    mapping: "dict[int, int]" = {}
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        for line in range(node.decorator_list[0].lineno, node.lineno):
            mapping[line] = node.lineno
    return mapping
