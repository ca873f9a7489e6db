"""``caqe-check`` — the CAQE repo-native static analysis suite.

AST-based rules encode the invariants the paper's correctness and
reproducibility claims rest on (see docs/ARCHITECTURE.md §8 and §12):

* **CQ001** RNG discipline — all randomness through ``repro.rng``;
* **CQ002** dominance discipline — no inline dominance re-implementations
  outside ``repro.skyline.dominance``;
* **CQ003** iteration-order hygiene in the scheduler/executor layer;
* **CQ004** every ``CAQEConfig`` field read somewhere and documented;
* **CQ005** no float-literal equality in the estimation/contract layer;
* **CQ006** exception discipline for the recovery paths;
* **CQ007** no wall-clock reads in the engine;
* **CQ008** no process parallelism in the engine;
* **CQ009** no per-row Python loops over relation columns in the hot path;
* **CQ011** layer contracts — no upward imports, no import cycles;
* **CQ012** determinism taint — unordered values order nothing;
* **CQ013** bounded waits in the serving layer.

Suppress a hit with ``# caqe-check: disable=CQ00X`` (same line, the line
above, or file-wide above the module docstring).
"""

from tools.caqe_check.engine import CheckedFile, collect_files, run_checks
from tools.caqe_check.report import Violation, render_report

__all__ = [
    "CheckedFile",
    "Violation",
    "collect_files",
    "render_report",
    "run_checks",
]
