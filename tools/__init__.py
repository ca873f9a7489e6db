"""Repo-native developer tooling (not shipped with the ``repro`` package).

``tools.caqe_check``   — the CAQE invariant linter (CQ001–CQ009, CQ011–CQ013).
``tools.bench_gate``   — perf-regression gate against ``BENCH_history.jsonl``.
``tools.replay_audit`` — cross-``PYTHONHASHSEED`` and SIGKILL/resume audit.
"""
