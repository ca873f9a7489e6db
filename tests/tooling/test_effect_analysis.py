"""Tests for the whole-program analysis layer of ``tools.caqe_check``.

Covers the interprocedural engine (CQ011 layer contracts, CQ012
determinism taint) on the committed fixture trees under
``tests/tooling/fixtures/``, the CQ000 syntax-error diagnostic, pragma
edge cases around decorated definitions, the byte-identical determinism
of the taint fixpoint, the content-hash summary cache, and the
machine-readable report formats.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.caqe_check import effects  # noqa: E402
from tools.caqe_check.cli import main as caqe_check_main  # noqa: E402
from tools.caqe_check.engine import collect_files, run_checks  # noqa: E402
from tools.caqe_check.graph import module_name_for  # noqa: E402
from tools.caqe_check.report import render_json, render_sarif  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fresh_analysis():
    """Clear the in-memory memo so each call rebuilds from the AST."""
    effects._MEMO.clear()


def lint_tree(root, *, select=None, allow_syntax_errors=False):
    fresh_analysis()
    effects.configure_cache(None)
    return run_checks(
        [root],
        select={select} if select else None,
        allow_syntax_errors=allow_syntax_errors,
    )


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def codes(violations):
    return [v.code for v in violations]


# ------------------------------------------------------------------ #
# CQ011 — layer contracts
# ------------------------------------------------------------------ #
class TestCQ011:
    def test_fixture_upward_import_fires(self):
        found = lint_tree(FIXTURES / "cq011_tree", select="CQ011")
        assert codes(found) == ["CQ011"]
        assert "upward import" in found[0].message
        assert "repro.relation.table" in found[0].message
        assert "repro.core.driver" in found[0].message

    def test_deferred_import_is_exempt(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/driver.py": "def commit_order(n):\n    return n\n",
                "repro/relation/table.py": """\
                def rows(count):
                    from repro.core.driver import commit_order

                    return commit_order(count)
                """,
            },
        )
        assert lint_tree(tmp_path, select="CQ011") == []

    def test_module_scope_cycle_fires_once(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/alpha.py": "from repro.core.beta import b\n\n\ndef a():\n    return b\n",
                "repro/core/beta.py": "from repro.core.alpha import a\n\n\ndef b():\n    return a\n",
            },
        )
        found = lint_tree(tmp_path, select="CQ011")
        assert codes(found) == ["CQ011"]
        assert "import cycle" in found[0].message
        assert "repro.core.alpha -> repro.core.beta -> repro.core.alpha" in (
            found[0].message
        )

    def test_submodule_import_through_package_is_precise(self, tmp_path):
        # ``from repro.skyline import dva`` depends on the submodule, not
        # the package __init__ — must not be reported as a cycle.
        write_tree(
            tmp_path,
            {
                "repro/skyline/__init__.py": "from repro.skyline.csc import c\n",
                "repro/skyline/dva.py": "def d():\n    return 1\n",
                "repro/skyline/csc.py": """\
                from repro.skyline import dva


                def c():
                    return dva.d()
                """,
            },
        )
        assert lint_tree(tmp_path, select="CQ011") == []


# ------------------------------------------------------------------ #
# CQ012 — determinism taint
# ------------------------------------------------------------------ #
class TestCQ012:
    def test_fixture_set_iteration_to_sort_key_fires(self):
        found = lint_tree(FIXTURES / "cq012_tree", select="CQ012")
        assert codes(found) == ["CQ012"]
        assert "sort key" in found[0].message

    def test_sorting_the_set_itself_is_clean(self, tmp_path):
        # ``sorted`` over an unordered collection is the *fix*, not a bug.
        write_tree(
            tmp_path,
            {
                "repro/core/scheduler.py": """\
                def schedule(names):
                    bucket = set(names)
                    return sorted(bucket)
                """
            },
        )
        assert lint_tree(tmp_path, select="CQ012") == []

    def test_sanitised_value_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/scheduler.py": """\
                def schedule(regions, names):
                    count = len(set(names))
                    return sorted(regions, key=lambda r: (count, r))
                """
            },
        )
        assert lint_tree(tmp_path, select="CQ012") == []

    def test_id_into_journal_record_fires(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/durability/mod.py": """\
                class RegionJournal:
                    def append(self, record):
                        return record


                class Cursor:
                    def __init__(self, journal: RegionJournal):
                        self.journal = journal

                    def persist(self, region):
                        self.journal.append({"seq": id(region)})
                """
            },
        )
        found = lint_tree(tmp_path, select="CQ012")
        assert codes(found) == ["CQ012"]
        assert "journal" in found[0].message


# ------------------------------------------------------------------ #
# CQ000 — unparseable files
# ------------------------------------------------------------------ #
class TestCQ000:
    def test_syntax_error_is_reported(self, tmp_path):
        write_tree(
            tmp_path,
            {"repro/core/broken.py": "def broken(:\n    pass\n"},
        )
        found = lint_tree(tmp_path)
        assert "CQ000" in codes(found)
        assert any("does not parse" in v.message for v in found)

    def test_allow_syntax_errors_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            {"repro/core/broken.py": "def broken(:\n    pass\n"},
        )
        assert lint_tree(tmp_path, allow_syntax_errors=True) == []

    def test_select_other_rule_hides_cq000(self, tmp_path):
        write_tree(
            tmp_path,
            {"repro/core/broken.py": "def broken(:\n    pass\n"},
        )
        assert lint_tree(tmp_path, select="CQ001") == []

    def test_parseable_files_still_checked_alongside(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/broken.py": "def broken(:\n    pass\n",
                "repro/core/mod.py": "import random\n",
            },
        )
        found = lint_tree(tmp_path)
        assert "CQ000" in codes(found)
        assert "CQ001" in codes(found)


# ------------------------------------------------------------------ #
# Pragma edge cases
# ------------------------------------------------------------------ #
class TestPragmaEdgeCases:
    def test_standalone_pragma_above_decorator_covers_the_def(self, tmp_path):
        # The violation sits on the def line; the pragma sits above the
        # decorator, two lines earlier.
        source = """\
            import functools
            import time  # caqe-check: disable=CQ007


            {pragma}
            @functools.lru_cache(maxsize=None)
            def stamp(now=time.time()):
                return now
            """
        write_tree(tmp_path, {"repro/core/mod.py": source.format(pragma="")})
        assert codes(lint_tree(tmp_path, select="CQ007")) == ["CQ007"]
        write_tree(
            tmp_path,
            {
                "repro/core/mod.py": source.format(
                    pragma="# caqe-check: disable=CQ007"
                )
            },
        )
        assert lint_tree(tmp_path, select="CQ007") == []

    def test_project_rule_pragma_on_def_line_in_other_file(self, tmp_path):
        # The CQ011 violation anchors in table.py while the graph spans
        # both files — suppression must consult the anchoring file.
        write_tree(
            tmp_path,
            {
                "repro/core/driver.py": "def commit_order(n):\n    return n\n",
                "repro/relation/table.py": """\
                from repro.core.driver import commit_order  # caqe-check: disable=CQ011


                def rows(count):
                    return commit_order(count)
                """,
            },
        )
        assert lint_tree(tmp_path, select="CQ011") == []

    def test_multi_code_pragma(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/mod.py": (
                    "import random  # caqe-check: disable=CQ001, CQ005\n"
                    "import time  # caqe-check: disable=CQ007,CQ008\n"
                )
            },
        )
        assert lint_tree(tmp_path) == []

    def test_pragma_on_last_line_without_trailing_newline(self, tmp_path):
        target = tmp_path / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import random  # caqe-check: disable=CQ001", encoding="utf-8"
        )
        assert lint_tree(tmp_path, select="CQ001") == []


# ------------------------------------------------------------------ #
# Determinism + summary cache
# ------------------------------------------------------------------ #
class TestDeterminismAndCache:
    def _files(self):
        files, errors = collect_files([REPO_ROOT / "src" / "repro"])
        assert errors == []
        return files

    def test_fixpoint_json_is_byte_identical_across_rebuilds(self):
        effects.configure_cache(None)
        files = self._files()
        fresh_analysis()
        first = effects.analyze_program(files).to_json()
        fresh_analysis()
        second = effects.analyze_program(files).to_json()
        assert first == second

    def test_disk_cache_round_trip(self, tmp_path):
        files = self._files()
        effects.configure_cache(tmp_path)
        fresh_analysis()
        built = effects.analyze_program(files).to_json()
        assert (tmp_path / "effects.json").exists()
        fresh_analysis()
        cached = effects.analyze_program(files).to_json()
        assert cached == built
        effects.configure_cache(None)

    def test_cache_key_tracks_source_content(self, tmp_path):
        write_tree(
            tmp_path / "tree",
            {"repro/core/mod.py": "def run():\n    return 1\n"},
        )
        files, _ = collect_files([tmp_path / "tree"])
        cache = tmp_path / "cache"
        effects.configure_cache(cache)
        fresh_analysis()
        effects.analyze_program(files)
        stale_key = json.loads(
            (cache / "effects.json").read_text(encoding="utf-8")
        )["key"]
        (tmp_path / "tree" / "repro" / "core" / "mod.py").write_text(
            "def run():\n    return 2\n", encoding="utf-8"
        )
        files, _ = collect_files([tmp_path / "tree"])
        fresh_analysis()
        effects.analyze_program(files)
        fresh_key = json.loads(
            (cache / "effects.json").read_text(encoding="utf-8")
        )["key"]
        assert fresh_key != stale_key
        effects.configure_cache(None)


# ------------------------------------------------------------------ #
# Graph plumbing
# ------------------------------------------------------------------ #
class TestGraph:
    def test_module_name_anchors_on_last_repro_segment(self):
        assert module_name_for("src/repro/core/caqe.py") == "repro.core.caqe"
        assert (
            module_name_for("tmp/repro/x/repro/core/mod.py")
            == "repro.core.mod"
        )
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("docs/notes.txt") is None


# ------------------------------------------------------------------ #
# Report formats + CLI surface
# ------------------------------------------------------------------ #
class TestFormatsAndCli:
    def test_json_and_sarif_render_fixture_violation(self):
        found = lint_tree(FIXTURES / "cq012_tree", select="CQ012")
        payload = json.loads(render_json(found))
        assert payload["count"] == 1
        assert payload["violations"][0]["code"] == "CQ012"
        sarif = json.loads(render_sarif(found))
        results = sarif["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["CQ012"]
        rule_ids = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"CQ000", "CQ011", "CQ012"} <= rule_ids
        assert "CQ010" not in rule_ids

    def test_cli_sarif_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        status = caqe_check_main(
            [
                "--no-cache",
                "--format",
                "sarif",
                "--output",
                str(out),
                "--select",
                "CQ011",
                str(FIXTURES / "cq011_tree"),
            ]
        )
        capsys.readouterr()
        assert status == 1
        sarif = json.loads(out.read_text(encoding="utf-8"))
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "CQ011"

    def test_cli_max_seconds_budget_failure(self, tmp_path, capsys):
        write_tree(
            tmp_path, {"repro/core/mod.py": "def run():\n    return 1\n"}
        )
        status = caqe_check_main(
            ["--no-cache", "--max-seconds", "0", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "budget" in out

    def test_cli_dump_summaries_stdout(self, capsys):
        status = caqe_check_main(
            [
                "--no-cache",
                "--dump-summaries",
                "-",
                str(FIXTURES / "cq011_tree"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        payload = json.loads(out)
        assert "repro.relation.table:rows" in payload["functions"]
