"""Command-line front end: ``python -m tools.caqe_check [paths...]``.

Default run lints the given paths (``src/repro`` when omitted) with
CQ001–CQ009 and CQ011–CQ013 and exits 1 on any violation.  The typing
gate rides on the same entry point:

* ``--mypy`` — run ``mypy --strict`` over the typed packages (config in
  ``pyproject.toml``); skipped with a notice when mypy is not installed,
  so offline environments stay green;
* ``--all`` — lint + the typing gate, the CI configuration.

Whole-program options:

* ``--format {text,json,sarif}`` — machine-readable reports (SARIF is
  what CI uploads as a workflow artifact);
* ``--cache-dir DIR`` / ``--no-cache`` — content-hash summary cache for
  the CQ011/CQ012 analysis (default: ``.caqe-check-cache/`` under the
  repo root; the key hashes every scanned source *and* the analysis
  code, so stale hits are impossible);
* ``--dump-summaries PATH`` — write the whole-program summaries (each
  function's determinism taint, each module's import edges, the taint
  sink hits) as deterministic JSON (``-`` for stdout); two runs are
  byte-identical;
* ``--max-seconds N`` — fail if the lint pass exceeds the budget (CI
  uses 60 s to keep the whole-program pass honest);
* ``--allow-syntax-errors`` — demote CQ000 (unparseable file) to a
  notice instead of a violation.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from tools.caqe_check.engine import collect_files, run_checks
from tools.caqe_check.report import render_json, render_report, render_sarif

#: Repo root = parent of the ``tools`` package.
REPO_ROOT = Path(__file__).resolve().parent.parent.parent

DEFAULT_PATHS = ("src/repro",)
DOCS_PATH = "docs/ARCHITECTURE.md"
DEFAULT_CACHE_DIR = ".caqe-check-cache"

_RENDERERS = {
    "text": render_report,
    "json": render_json,
    "sarif": render_sarif,
}


def run_lint(
    paths: "list[str]",
    select: "set[str] | None",
    *,
    fmt: str = "text",
    allow_syntax_errors: bool = False,
    output: "Path | None" = None,
) -> int:
    roots = [Path(p) for p in paths]
    docs = REPO_ROOT / DOCS_PATH
    violations = run_checks(
        roots,
        docs_path=docs,
        select=select,
        allow_syntax_errors=allow_syntax_errors,
    )
    rendered = _RENDERERS[fmt](violations)
    if output is not None:
        output.write_text(rendered + "\n", encoding="utf-8")
        print(
            f"caqe-check: wrote {fmt} report ({len(violations)} violation(s)) "
            f"to {output}"
        )
    else:
        print(rendered)
    return 1 if violations else 0


def dump_summaries(paths: "list[str]", destination: str) -> int:
    """Write the whole-program analysis summaries as deterministic JSON."""
    from tools.caqe_check.effects import analyze_program

    files, _errors = collect_files([Path(p) for p in paths])
    rendered = analyze_program(files).to_json()
    if destination == "-":
        print(rendered)
    else:
        Path(destination).write_text(rendered + "\n", encoding="utf-8")
        print(f"caqe-check: wrote analysis summaries to {destination}")
    return 0


def run_mypy_gate() -> int:
    """``mypy --strict`` over the typed packages; soft-skip when absent."""
    try:
        import mypy  # noqa: F401
    except ImportError:
        print("caqe-check: mypy not installed; typing gate skipped")
        return 0
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
    )
    return result.returncode


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="caqe-check",
        description="CAQE invariant linter + typing gate",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only the named rule(s), e.g. --select CQ001",
    )
    parser.add_argument(
        "--format",
        choices=sorted(_RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--allow-syntax-errors",
        action="store_true",
        help="do not fail on CQ000 (unparseable files)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=REPO_ROOT / DEFAULT_CACHE_DIR,
        help="analysis-summary cache directory "
        f"(default: <repo>/{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the analysis-summary disk cache",
    )
    parser.add_argument(
        "--dump-summaries",
        metavar="PATH",
        default=None,
        help="write the whole-program taint and import summaries as JSON "
        "('-' = stdout)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="N",
        help="fail if the lint pass takes longer than N seconds",
    )
    parser.add_argument(
        "--mypy", action="store_true", help="also run the mypy --strict gate"
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="lint + mypy gate (CI configuration)",
    )
    args = parser.parse_args(argv)

    from tools.caqe_check.effects import configure_cache

    configure_cache(None if args.no_cache else args.cache_dir)

    select = (
        {rule.upper() for rule in args.select} if args.select else None
    )
    if args.dump_summaries is not None:
        return dump_summaries(args.paths, args.dump_summaries)

    started = time.monotonic()
    status = run_lint(
        args.paths,
        select,
        fmt=args.format,
        allow_syntax_errors=args.allow_syntax_errors,
        output=args.output,
    )
    elapsed = time.monotonic() - started
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"caqe-check: FAIL lint pass took {elapsed:.1f}s "
            f"(budget {args.max_seconds:.0f}s) — the whole-program analysis "
            "must stay fast; check the summary cache"
        )
        status = max(status, 1)
    if args.mypy or args.all:
        status = max(status, run_mypy_gate())
    return status


if __name__ == "__main__":
    raise SystemExit(main())
