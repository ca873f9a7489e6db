"""Fixture tests for the ``tools.caqe_check`` static-analysis suite.

Each rule CQ001–CQ009 is exercised three ways:

* a **violating** fixture written under a tmpdir whose layout mimics the
  real tree (``repro/core/...``) so the path-fragment scoping triggers;
* a **clean** fixture using the blessed spelling;
* a **suppressed** fixture carrying ``# caqe-check: disable=RULE``.

A final test runs the linter over the live ``src/repro`` tree and asserts
it is violation-free — the same gate CI enforces.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.caqe_check.cli import main as caqe_check_main  # noqa: E402
from tools.caqe_check.engine import run_checks  # noqa: E402
from tools.caqe_check.report import render_report  # noqa: E402


def lint(tmp_path, relpath, source, *, select=None, docs_text=None):
    """Write ``source`` at ``tmp_path/relpath`` and lint just that tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    docs_path = None
    if docs_text is not None:
        docs_path = tmp_path / "ARCHITECTURE.md"
        docs_path.write_text(docs_text, encoding="utf-8")
    return run_checks(
        [tmp_path],
        docs_path=docs_path,
        select={select} if select else None,
    )


def codes(violations):
    return [v.code for v in violations]


# ------------------------------------------------------------------ #
# CQ001 — RNG discipline
# ------------------------------------------------------------------ #
class TestCQ001:
    def test_fires_on_stdlib_and_numpy_random(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            import random
            from random import shuffle

            import numpy as np


            def draw():
                return np.random.default_rng(0).random()
            """,
            select="CQ001",
        )
        assert codes(found) == ["CQ001", "CQ001", "CQ001"]

    def test_clean_when_using_ensure_rng(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            from repro.rng import ensure_rng


            def draw(seed):
                return ensure_rng(seed).random()
            """,
            select="CQ001",
        )
        assert found == []

    def test_rng_module_itself_is_exempt(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/rng.py",
            "import numpy as np\n\nrng = np.random.default_rng(0)\n",
            select="CQ001",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            "import random  # caqe-check: disable=CQ001\n",
            select="CQ001",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ002 — dominance discipline
# ------------------------------------------------------------------ #
class TestCQ002:
    def test_fires_on_inline_tuple_dominance(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            import numpy as np


            def dominated(a, b):
                return np.all(a <= b) and np.any(a < b)
            """,
            select="CQ002",
        )
        assert codes(found) == ["CQ002"]

    def test_fires_on_staged_local_variables(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/plan/mod.py",
            """\
            import numpy as np


            def dominated(a, b):
                le = np.all(a <= b, axis=1)
                lt = np.any(a < b, axis=1)
                return le & lt
            """,
            select="CQ002",
        )
        assert codes(found) == ["CQ002"]

    def test_clean_when_calling_shared_helper(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            from repro.skyline.dominance import dominates


            def dominated(a, b, counter):
                return dominates(a, b, counter=counter)
            """,
            select="CQ002",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            import numpy as np


            def dominated(a, b):
                # caqe-check: disable=CQ002
                return np.all(a <= b) and np.any(a < b)
            """,
            select="CQ002",
        )
        assert found == []


    @pytest.mark.parametrize(
        "relpath", ["repro/core/mod.py", "repro/plan/mod.py", "repro/skyline/window.py"]
    )
    def test_fires_on_pairwise_broadcast_reduction(self, tmp_path, relpath):
        source = """\
            import numpy as np


            def masks(a, b):
                le = (a[:, None, :] <= b[None, :, :]).all(axis=2)
                ge = np.all(a[:, np.newaxis, :] >= b[None, :, :], axis=2)
                lt = (a[:, None, None, :] < b[None, :, :, :]).any(axis=3)
                return le, ge, lt
            """
        found = lint(tmp_path, relpath, source, select="CQ002")
        assert codes(found) == ["CQ002", "CQ002", "CQ002"]

    def test_broadcast_reduction_clean_spellings(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/skyline/window.py",
            """\
            import numpy as np

            from repro.skyline.dominance import all_lt_broadcast, dominance_mask


            def masks(a, b, vec):
                lt = all_lt_broadcast(a[:, None, :], b[None, :, :], axis=2)
                hit = dominance_mask(a, b).any(axis=0)
                row = np.all(a <= vec, axis=1)
                bits = (a[:, None] < b[None, :]).sum(axis=1)
                return lt, hit, row, bits
            """,
            select="CQ002",
        )
        assert found == []

    def test_broadcast_reduction_out_of_scope_and_suppressed(self, tmp_path):
        lint(
            tmp_path,
            "repro/skyline/sfs.py",
            """\
            def mask(a, b):
                return (a[:, None, :] <= b[None, :, :]).all(axis=2)
            """,
        )
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def mask(a, b):
                # caqe-check: disable=CQ002
                return (a[:, None, :] <= b[None, :, :]).all(axis=2)


            def other(a, b):
                return (a[:, None, :] < b[None, :, :]).all(axis=2)
            """,
            select="CQ002",
        )
        assert [(v.code, v.line) for v in found] == [("CQ002", 7)]


# ------------------------------------------------------------------ #
# CQ003 — iteration-order hygiene
# ------------------------------------------------------------------ #
class TestCQ003:
    def test_fires_on_set_and_keys_iteration(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def schedule(pending, table):
                out = []
                for rid in pending | {0}:
                    out.append(rid)
                for key in table.keys():
                    out.append(key)
                return out
            """,
            select="CQ003",
        )
        assert codes(found) == ["CQ003", "CQ003"]

    def test_fires_via_set_bound_local(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def schedule(items):
                live = {i for i in items}
                return [x for x in live]
            """,
            select="CQ003",
        )
        assert codes(found) == ["CQ003"]

    def test_sorted_wrapper_is_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def schedule(pending):
                return [rid for rid in sorted(pending)]
            """,
            select="CQ003",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def schedule(pending):
                out = []
                for rid in pending & {1, 2}:  # caqe-check: disable=CQ003
                    out.append(rid)
                return out
            """,
            select="CQ003",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ004 — config-flag registry
# ------------------------------------------------------------------ #
_CONFIG_SRC = """\
from dataclasses import dataclass


@dataclass
class CAQEConfig:
    divisions: int = 4
    enable_widget: bool = True


def use(config):
    return config.divisions
"""


class TestCQ004:
    def test_fires_on_unread_and_undocumented_field(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/config.py",
            _CONFIG_SRC,
            select="CQ004",
            docs_text="Only `divisions` is documented here.",
        )
        messages = [v.message for v in found]
        assert codes(found) == ["CQ004", "CQ004"]
        assert any("never read" in m for m in messages)
        assert any("not mentioned" in m for m in messages)

    def test_clean_when_read_and_documented(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/config.py",
            _CONFIG_SRC.replace(
                "return config.divisions",
                "return config.divisions and config.enable_widget",
            ),
            select="CQ004",
            docs_text="`divisions` and `enable_widget` are documented.",
        )
        assert found == []

    def test_pragma_on_definition_line_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/config.py",
            _CONFIG_SRC.replace(
                "enable_widget: bool = True",
                "enable_widget: bool = True  # caqe-check: disable=CQ004",
            ),
            select="CQ004",
            docs_text="Only `divisions` is documented here.",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ005 — float-equality lint
# ------------------------------------------------------------------ #
class TestCQ005:
    def test_fires_on_float_literal_equality(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/contracts/mod.py",
            """\
            def stale(weight, offset):
                return weight == 0.0 or offset != -1.5
            """,
            select="CQ005",
        )
        assert codes(found) == ["CQ005", "CQ005"]

    def test_threshold_comparison_is_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/contracts/mod.py",
            """\
            def stale(weight):
                return weight <= 0.0
            """,
            select="CQ005",
        )
        assert found == []

    def test_integer_equality_is_out_of_scope(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/contracts/mod.py",
            "def is_root(mask):\n    return mask == 0\n",
            select="CQ005",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/contracts/mod.py",
            """\
            def stale(weight):
                return weight == 0.0  # caqe-check: disable=CQ005
            """,
            select="CQ005",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ006 — exception discipline
# ------------------------------------------------------------------ #
class TestCQ006:
    def test_fires_on_bare_and_broad_except(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/robustness/mod.py",
            """\
            def recover(fn):
                try:
                    return fn()
                except Exception:
                    return None


            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
            """,
            select="CQ006",
        )
        assert codes(found) == ["CQ006", "CQ006"]

    def test_fires_on_broad_class_inside_tuple(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def recover(fn):
                try:
                    return fn()
                except (ValueError, Exception):
                    return None
            """,
            select="CQ006",
        )
        assert codes(found) == ["CQ006"]

    def test_clean_when_catching_repro_error_subclass(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/robustness/mod.py",
            """\
            from repro.errors import RegionFailure


            def recover(fn):
                try:
                    return fn()
                except RegionFailure:
                    return None
            """,
            select="CQ006",
        )
        assert found == []

    def test_clean_when_handler_reraises(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def cleanup_then_propagate(fn, release):
                try:
                    return fn()
                except Exception:
                    release()
                    raise
            """,
            select="CQ006",
        )
        assert found == []

    def test_out_of_tree_files_are_not_flagged(self, tmp_path):
        found = lint(
            tmp_path,
            "scripts/mod.py",
            """\
            def recover(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
            select="CQ006",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def recover(fn):
                try:
                    return fn()
                except Exception:  # caqe-check: disable=CQ006
                    return None
            """,
            select="CQ006",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ007 — wall-clock ban
# ------------------------------------------------------------------ #
class TestCQ007:
    def test_fires_on_time_imports_and_calls(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            import time
            from time import sleep


            def stamp():
                return time.monotonic()
            """,
            select="CQ007",
        )
        assert codes(found) == ["CQ007", "CQ007", "CQ007"]

    def test_fires_on_datetime_now(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            import datetime


            def stamp():
                return datetime.datetime.now()
            """,
            select="CQ007",
        )
        assert codes(found) == ["CQ007", "CQ007"]

    def test_virtual_clock_usage_is_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            from repro.core.clock import VirtualClock


            def charge(stats, cost):
                stats.clock.advance(cost)
                return stats.clock.now()
            """,
            select="CQ007",
        )
        assert found == []

    def test_clock_module_itself_is_exempt(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/clock.py",
            "import time\n\n\ndef wall():\n    return time.time()\n",
            select="CQ007",
        )
        assert found == []

    def test_journal_module_is_exempt(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/durability/journal.py",
            "import time\n",
            select="CQ007",
        )
        assert found == []

    def test_out_of_tree_files_are_not_flagged(self, tmp_path):
        found = lint(
            tmp_path,
            "bench/mod.py",
            "import time\n\n\ndef wall():\n    return time.time()\n",
            select="CQ007",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            "import time  # caqe-check: disable=CQ007\n",
            select="CQ007",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ008 — no process parallelism anywhere in the engine
# ------------------------------------------------------------------ #
class TestCQ008:
    def test_fires_on_pool_imports_and_fork(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            import os


            def fan_out():
                return os.fork()
            """,
            select="CQ008",
        )
        assert codes(found) == ["CQ008", "CQ008", "CQ008"]

    def test_fires_on_multiprocessing_submodule(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            "from multiprocessing import shared_memory\n",
            select="CQ008",
        )
        assert codes(found) == ["CQ008"]

    def test_no_package_is_exempt(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/query/joinkernel.py",
            """\
            import multiprocessing
            from multiprocessing import shared_memory
            """,
            select="CQ008",
        )
        assert codes(found) == ["CQ008", "CQ008"]

    def test_threading_and_pool_usage_are_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            import queue
            import threading


            def serve(jobs, workers):
                inbox = queue.Queue()
                pool = [
                    threading.Thread(target=inbox.get, daemon=True)
                    for _ in range(workers)
                ]
                for thread in pool:
                    thread.start()
                for job in jobs:
                    inbox.put(job)
                return pool
            """,
            select="CQ008",
        )
        assert found == []

    def test_out_of_tree_files_are_not_flagged(self, tmp_path):
        found = lint(
            tmp_path,
            "bench/mod.py",
            "import multiprocessing\n",
            select="CQ008",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            "import multiprocessing  # caqe-check: disable=CQ008\n",
            select="CQ008",
        )
        assert found == []


# ------------------------------------------------------------------ #
# CQ009 — per-row loops over relation columns in the hot path
# ------------------------------------------------------------------ #
class TestCQ009:
    def test_fires_on_tolist_and_column_iteration(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/executor.py",
            """\
            def commit(left_idx, relation):
                out = []
                for row in left_idx.tolist():
                    out.append(row)
                for value in relation.column("price"):
                    out.append(value)
                return out
            """,
            select="CQ009",
        )
        assert codes(found) == ["CQ009", "CQ009"]

    def test_fires_on_zip_wrapped_tolist_in_comprehension(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/query/joinkernel.py",
            """\
            def pairs(left, right):
                return [
                    (l, r)
                    for l, r in zip(left.tolist(), right.tolist())
                ]
            """,
            select="CQ009",
        )
        assert codes(found) == ["CQ009"]

    def test_fires_via_column_bound_local(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/executor.py",
            """\
            def walk(relation):
                prices = relation.column("price").tolist()
                return [p for p in prices]
            """,
            select="CQ009",
        )
        assert codes(found) == ["CQ009"]

    def test_array_program_is_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/executor.py",
            """\
            import numpy as np


            def commit(matrix, masks):
                keep = np.flatnonzero(masks)
                for block in np.array_split(keep, 4):
                    matrix[block] += 1.0
                return matrix
            """,
            select="CQ009",
        )
        assert found == []

    def test_out_of_scope_modules_are_not_flagged(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/benefit.py",
            """\
            def walk(left_idx):
                return [row for row in left_idx.tolist()]
            """,
            select="CQ009",
        )
        assert found == []

    def test_fires_in_skyline_window_hot_sections(self, tmp_path):
        # The SoA window (docs/ARCHITECTURE.md §14) is hot-path scope: a
        # per-row walk over its flat columns reboxes every cell.
        found = lint(
            tmp_path,
            "repro/skyline/window.py",
            """\
            def insert_batch(store, live, size):
                charges = 0
                for row in store[:size].tolist():
                    charges += len(row)
                return charges
            """,
            select="CQ009",
        )
        assert codes(found) == ["CQ009"]

    def test_skyline_window_array_commit_is_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/skyline/window.py",
            """\
            import numpy as np


            def commit(store, live, killed_rows):
                live[killed_rows] = False
                rows = np.flatnonzero(live)
                store[: len(rows)] = store[rows]
                return len(rows)
            """,
            select="CQ009",
        )
        assert found == []

    def test_skyline_window_side_table_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/skyline/window.py",
            """\
            def evict(key_list, rows):
                # Key side-table walk (Python objects, not column data).
                # caqe-check: disable=CQ009
                return [key_list[i] for i in rows.tolist()]
            """,
            select="CQ009",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/executor.py",
            """\
            def scalar_ablation(left_idx):
                out = []
                # caqe-check: disable=CQ009
                for row in left_idx.tolist():
                    out.append(row)
                return out
            """,
            select="CQ009",
        )
        assert found == []


class TestCQ013:
    def test_fires_on_bare_blocking_waits(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            def drain(work_queue, done_event, lock):
                item = work_queue.get()
                done_event.wait()
                lock.acquire()
                return item
            """,
            select="CQ013",
        )
        assert codes(found) == ["CQ013", "CQ013", "CQ013"]

    def test_fires_on_explicit_timeout_none(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            def drain(work_queue, done_event):
                item = work_queue.get(timeout=None)
                done_event.wait(timeout=None)
                return item
            """,
            select="CQ013",
        )
        assert codes(found) == ["CQ013", "CQ013"]

    def test_fires_on_blocking_get_spellings(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            def drain(work_queue):
                first = work_queue.get(True)
                second = work_queue.get(block=True)
                return first, second
            """,
            select="CQ013",
        )
        assert codes(found) == ["CQ013", "CQ013"]

    def test_bounded_and_nonblocking_waits_are_clean(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            def drain(work_queue, done_event, lock, metrics):
                item = work_queue.get(timeout=0.1)
                eager = work_queue.get(block=False)
                done_event.wait(timeout=0.1)
                done_event.wait(0.5)
                lock.acquire(timeout=1.0)
                lock.acquire(blocking=False)
                count = metrics.get("answered", 0)
                tier = metrics.get("tier")
                with lock:
                    pass
                return item, eager, count, tier
            """,
            select="CQ013",
        )
        assert found == []

    def test_scoped_to_serving_layer(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            def drain(work_queue):
                return work_queue.get()
            """,
            select="CQ013",
        )
        assert found == []

    def test_pragma_suppresses(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/serving/mod.py",
            """\
            def drain(work_queue):
                # caqe-check: disable=CQ013
                return work_queue.get()
            """,
            select="CQ013",
        )
        assert found == []


# ------------------------------------------------------------------ #
# Pragma placement + reporting + the live tree
# ------------------------------------------------------------------ #
class TestPragmasAndReport:
    def test_file_header_pragma_disables_whole_file(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            # caqe-check: disable=CQ001
            \"\"\"Module docstring.\"\"\"

            import random

            from random import shuffle
            """,
            select="CQ001",
        )
        assert found == []

    def test_disable_all_suppresses_every_rule(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            """\
            # caqe-check: disable=all
            import random

            def stale(weight):
                return weight == 0.0
            """,
        )
        assert found == []

    def test_report_rendering_is_sorted_and_counted(self, tmp_path):
        found = lint(
            tmp_path,
            "repro/core/mod.py",
            "import random\nfrom random import shuffle\n",
            select="CQ001",
        )
        report = render_report(found)
        lines = report.splitlines()
        assert lines[-1] == "caqe-check: 2 violation(s)"
        assert lines == sorted(lines[:-1]) + [lines[-1]]

    def test_clean_report(self):
        assert render_report([]) == "caqe-check: clean"


class TestLiveTree:
    def test_src_repro_is_violation_free(self, capsys):
        """The shipped tree passes its own linter (the CI gate)."""
        status = caqe_check_main([str(REPO_ROOT / "src" / "repro")])
        out = capsys.readouterr().out
        assert status == 0, f"caqe-check reported violations:\n{out}"
        assert "caqe-check: clean" in out
