"""Whole-program summaries for CQ011 and CQ012, with a summary cache.

Per function, an interprocedural fixpoint over the
:class:`~tools.caqe_check.graph.ProgramGraph` call graph computes the
determinism-taint summary CQ012 reads: whether the function *returns* a
value derived from set/dict iteration order or ``id()``, which parameters
flow to the return value, and where tainted values reach
ordering-sensitive sinks (sort keys, journal records, scheduling heaps,
skyline insertion).  Unresolvable dynamic calls pass their arguments'
taint through — the analysis is exact on everything it can resolve (the
contract is documented in ARCHITECTURE §12).  Per module, the summary
keeps the import edges CQ011 checks.

:func:`analyze_program` assembles everything into a serialisable
:class:`AnalysisResult` and maintains a content-hash summary cache so the
whole-program pass is amortised in CI: the key hashes every scanned
source plus the analysis code itself, so any change invalidates cleanly.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from tools.caqe_check.engine import CheckedFile, dotted_name
from tools.caqe_check.graph import ProgramGraph, _all_args

#: Bump when the analysis semantics change (cache invalidation).
ANALYSIS_VERSION = 2

#: Taint label marking "derived from unordered iteration or id()".
_SRC = "SRC"

#: Builtins that erase order-dependence (aggregations / canonical order).
_TAINT_SANITIZERS = frozenset(
    {"len", "sum", "sorted", "min", "max", "any", "all", "set", "frozenset"}
)

#: Builtins that pass data (and taint) through unchanged.
_TAINT_PASSTHROUGH = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "zip", "dict",
     "str", "int", "float", "abs", "round", "next", "map", "filter"}
)

#: Ordering-sensitive sink calls, matched on the resolved local target's
#: trailing ``Class.method`` / function name.
SINK_CALLS: "dict[str, str]" = {
    "RegionJournal.append": "a write-ahead journal record",
    "SkylineWindow.insert": "skyline insertion order",
    "SkylineWindow.insert_batch": "skyline insertion order",
    "SharedCuboidPlan.insert_batch_arrays": "shared-plan insertion order",
}


# ------------------------------------------------------------------ #
# Set-likeness (unordered iteration sources)
# ------------------------------------------------------------------ #
def _is_set_like(node: ast.AST, set_names: "set[str]") -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        if chain is not None and len(chain) == 1 and chain[0] in (
            "set", "frozenset"
        ):
            return True
        if chain is not None and len(chain) == 1 and chain[0] in (
            "iter", "list", "tuple", "enumerate", "reversed", "zip"
        ):
            return any(_is_set_like(arg, set_names) for arg in node.args)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_like(node.left, set_names) or _is_set_like(
            node.right, set_names
        )
    return False


# ------------------------------------------------------------------ #
# Per-function taint facts
# ------------------------------------------------------------------ #
@dataclass
class _LocalFacts:
    """Taint summary seeds for one function."""

    returns_taint: bool
    param_to_return: "tuple[int, ...]"
    sink_hits: "list[tuple[int, str]]"  # (line, message)


class _FunctionPass:
    """One lexical pass over a function body: given the current
    interprocedural taint summaries, the function's own taint summary and
    sink hits."""

    def __init__(self, graph: ProgramGraph, qualname: str, summaries) -> None:
        self.graph = graph
        self.fn = graph.functions[qualname]
        self.summaries = summaries
        self.call_targets = {
            id(site.node): site for site in graph.calls[qualname]
        }
        self.params = [a.arg for a in _all_args(self.fn.node)]

    def run(self) -> _LocalFacts:
        sink_hits: "list[tuple[int, str]]" = []
        #: taint labels per local name: subset of {_SRC, 0..n_params-1}
        labels: "dict[str, set[object]]" = {
            name: {index} for index, name in enumerate(self.params)
        }
        #: local names currently bound to a set-like value
        set_names: "set[str]" = set()
        return_labels: "set[object]" = set()

        def expr_labels(node: "ast.AST | None") -> "set[object]":
            found: "set[object]" = set()
            if node is None:
                return found
            bound: "set[str]" = set()
            stack = [node]
            while stack:
                sub = stack.pop()
                if isinstance(sub, ast.Lambda):
                    bound.update(a.arg for a in _all_args(sub))
                    stack.append(sub.body)
                    continue
                if isinstance(sub, (ast.SetComp, ast.ListComp, ast.DictComp,
                                    ast.GeneratorExp)):
                    for comp in sub.generators:
                        for t in ast.walk(comp.target):
                            if isinstance(t, ast.Name):
                                bound.add(t.id)
                        if _is_set_like(comp.iter, set_names):
                            found.add(_SRC)
                        stack.append(comp.iter)
                    if isinstance(sub, ast.DictComp):
                        stack.extend([sub.key, sub.value])
                    else:
                        stack.append(sub.elt)
                    continue
                if isinstance(sub, ast.Call):
                    found |= call_labels(sub)
                    continue
                if isinstance(sub, ast.Name) and sub.id not in bound:
                    found |= labels.get(sub.id, set())
                stack.extend(ast.iter_child_nodes(sub))
            return found

        def call_labels(node: ast.Call) -> "set[object]":
            arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
            site = self.call_targets.get(id(node))
            chain = dotted_name(node.func)
            if chain is not None and chain == ("id",):
                return {_SRC}
            if site is not None and site.kind == "builtin":
                if site.target == "id":
                    return {_SRC}
                if site.target in _TAINT_SANITIZERS:
                    return set()
                if site.target in _TAINT_PASSTHROUGH:
                    out: "set[object]" = set()
                    for arg in arg_exprs:
                        out |= expr_labels(arg)
                    return out
            if site is not None and site.kind == "local":
                summary = self.summaries.get(site.target)
                out = set()
                if summary is not None:
                    if summary["returns_taint"]:
                        out.add(_SRC)
                    for index in summary["param_to_return"]:
                        offset = index
                        # Method calls bind param 0 (self) implicitly.
                        callee = self.graph.functions.get(site.target)
                        if (
                            callee is not None
                            and callee.class_name is not None
                            and isinstance(node.func, ast.Attribute)
                        ):
                            offset = index - 1
                        if 0 <= offset < len(node.args):
                            out |= expr_labels(node.args[offset])
                return out
            # Unknown/external: conservative pass-through of argument taint.
            out = set()
            for arg in arg_exprs:
                out |= expr_labels(arg)
            return out

        def check_sinks(node: ast.Call) -> None:
            site = self.call_targets.get(id(node))
            chain = dotted_name(node.func)
            # sorted(..., key=K) / obj.sort(key=K)
            is_sorted = site is not None and site.kind == "builtin" and (
                site.target == "sorted"
            )
            is_sort_method = chain is not None and chain[-1] == "sort"
            if is_sorted or is_sort_method:
                for kw in node.keywords:
                    if kw.arg == "key" and _SRC in expr_labels(kw.value):
                        sink_hits.append(
                            (
                                node.lineno,
                                "set-iteration/id() derived value reaches a "
                                "sort key",
                            )
                        )
                return
            if chain is not None and chain[-1] == "heappush":
                for arg in node.args[1:]:
                    if _SRC in expr_labels(arg):
                        sink_hits.append(
                            (
                                node.lineno,
                                "set-iteration/id() derived value reaches a "
                                "scheduling heap",
                            )
                        )
                return
            if site is not None and site.kind == "local":
                suffix = site.target.split(":")[-1]
                label = SINK_CALLS.get(suffix) or SINK_CALLS.get(
                    suffix.split(".")[-1]
                )
                if label is None:
                    return
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _SRC in expr_labels(arg):
                        sink_hits.append(
                            (
                                node.lineno,
                                "set-iteration/id() derived value reaches "
                                f"{label}",
                            )
                        )
                        return

        # Two lexical sweeps: the second stabilises names used before
        # their (lexically later) definition inside loops.
        statements = list(ast.walk(self.fn.node))
        for sweep in (0, 1):
            for node in statements:
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    value = node.value
                    value_labels = expr_labels(value)
                    value_set_like = value is not None and _is_set_like(
                        value, set_names
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            if isinstance(node, ast.AugAssign):
                                labels.setdefault(target.id, set()).update(
                                    value_labels
                                )
                            else:
                                labels[target.id] = set(value_labels)
                            if value_set_like:
                                set_names.add(target.id)
                            elif not isinstance(node, ast.AugAssign):
                                set_names.discard(target.id)
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for element in ast.walk(target):
                                if isinstance(element, ast.Name):
                                    labels[element.id] = set(value_labels)
                elif isinstance(node, ast.For):
                    iter_labels = expr_labels(node.iter)
                    tainted = _is_set_like(node.iter, set_names)
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name):
                            labels[t.id] = set(iter_labels) | (
                                {_SRC} if tainted else set()
                            )
                elif isinstance(node, ast.Call):
                    if sweep == 1:
                        check_sinks(node)
                elif isinstance(node, ast.Return):
                    if node.value is not None:
                        return_labels |= expr_labels(node.value)
            if sweep == 0:
                return_labels.clear()

        return _LocalFacts(
            returns_taint=_SRC in return_labels,
            param_to_return=tuple(
                sorted(x for x in return_labels if isinstance(x, int))
            ),
            sink_hits=sorted(set(sink_hits)),
        )


# ------------------------------------------------------------------ #
# Whole-program analysis + summary cache
# ------------------------------------------------------------------ #
@dataclass
class AnalysisResult:
    """Serialisable whole-program analysis output."""

    functions: "dict[str, dict]"
    modules: "dict[str, dict]"
    taint: "list[list]"  # [file, line, message]

    def to_json(self) -> str:
        payload = {
            "version": ANALYSIS_VERSION,
            "functions": self.functions,
            "modules": self.modules,
            "taint": self.taint,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisResult":
        return cls(
            functions=payload["functions"],
            modules=payload["modules"],
            taint=[list(t) for t in payload["taint"]],
        )


def _build_result(files: "list[CheckedFile]") -> AnalysisResult:
    graph = ProgramGraph(files)
    order = sorted(graph.functions)
    summaries: "dict[str, dict]" = {
        q: {"returns_taint": False, "param_to_return": ()} for q in order
    }
    facts: "dict[str, _LocalFacts]" = {}
    # Interprocedural fixpoint: taint summaries only grow, so iterate
    # until stable (bounded by the label lattice's height).
    for _round in range(12):
        changed = False
        for qualname in order:
            local = _FunctionPass(graph, qualname, summaries).run()
            facts[qualname] = local
            entry = summaries[qualname]
            if (
                local.returns_taint != entry["returns_taint"]
                or tuple(local.param_to_return) != tuple(entry["param_to_return"])
            ):
                entry["returns_taint"] = local.returns_taint
                entry["param_to_return"] = local.param_to_return
                changed = True
        if not changed:
            break
    functions: "dict[str, dict]" = {}
    for qualname in order:
        fn = graph.functions[qualname]
        functions[qualname] = {
            "file": fn.file.posix,
            "line": fn.line,
            "returns_taint": bool(summaries[qualname]["returns_taint"]),
            "param_to_return": sorted(summaries[qualname]["param_to_return"]),
        }
    modules: "dict[str, dict]" = {}
    for name in sorted(graph.modules):
        info = graph.modules[name]
        modules[name] = {
            "file": info.file.posix,
            "imports": sorted(
                [edge.target, edge.line, edge.lazy] for edge in info.imports
            ),
        }
    taint: "list[list]" = []
    for qualname in order:
        fn = graph.functions[qualname]
        for line, message in facts[qualname].sink_hits:
            taint.append([fn.file.posix, line, message])
    taint.sort()
    return AnalysisResult(functions=functions, modules=modules, taint=taint)


def _content_key(files: "list[CheckedFile]") -> str:
    digest = hashlib.sha256()
    digest.update(f"analysis-v{ANALYSIS_VERSION}".encode())
    # The analysis code itself is part of the key: editing the engine
    # must invalidate cached summaries.
    package = Path(__file__).resolve().parent
    for source_file in sorted(package.glob("*.py")) + sorted(
        package.glob("rules/*.py")
    ):
        digest.update(source_file.name.encode())
        digest.update(source_file.read_bytes())
    for file in sorted(files, key=lambda f: f.posix):
        digest.update(file.posix.encode())
        digest.update(hashlib.sha256(file.source.encode()).digest())
    return digest.hexdigest()


#: In-memory memo: content key → result (one analysis per process/run).
_MEMO: "dict[str, AnalysisResult]" = {}

#: Disk cache directory; ``None`` disables persistence.  Configured by
#: the CLI via :func:`configure_cache`.
_CACHE_DIR: "Path | None" = None


def configure_cache(cache_dir: "Path | None") -> None:
    global _CACHE_DIR
    _CACHE_DIR = cache_dir


def analyze_program(files: "list[CheckedFile]") -> AnalysisResult:
    """Analysis entry point with content-hash memo + optional disk cache."""
    key = _content_key(files)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    if _CACHE_DIR is not None:
        store = _CACHE_DIR / "effects.json"
        if store.exists():
            try:
                payload = json.loads(store.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = None
            if payload is not None and payload.get("key") == key:
                result = AnalysisResult.from_payload(payload["result"])
                _MEMO[key] = result
                return result
    result = _build_result(files)
    _MEMO[key] = result
    if _CACHE_DIR is not None:
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "result": json.loads(result.to_json()),
        }
        (_CACHE_DIR / "effects.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8"
        )
    return result


__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisResult",
    "analyze_program",
    "configure_cache",
]
