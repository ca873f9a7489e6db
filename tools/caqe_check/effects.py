"""Per-function effect summaries by interprocedural fixpoint (CQ012).

The effect lattice is a powerset over six atoms:

* ``MUTATES_NONLOCAL`` — writes state visible outside the function:
  ``global``/``nonlocal`` rebinding, attribute/subscript stores, or
  mutating container calls whose base is a parameter, ``self``/``cls``,
  or a module-level name (``__init__``/``__post_init__`` may initialise
  ``self`` attributes — that is construction, not shared-state mutation);
* ``IO`` — filesystem, stream, environment, or process-state access;
* ``WALL_CLOCK`` — reads of real time;
* ``UNSEEDED_RNG`` — randomness not derived from an explicit seed;
* ``UNORDERED_ITER`` — iteration over a ``set``/``frozenset`` value,
  whose order follows hash state;
* ``SPAWNS_PROCESS`` — process creation or control.

Direct effects are extracted syntactically per function (resolving
imported names so ``np.random.x`` is recognised through aliases); the
summary of a function is the union of its direct effects and the
summaries of every statically-resolved callee, computed as a worklist
fixpoint over the :class:`~tools.caqe_check.graph.ProgramGraph` call
graph.  Unresolvable dynamic calls contribute nothing — the analysis is
optimistic about what it cannot see and exact about what it can (the
contract is documented in ARCHITECTURE §12).

The same pass computes the determinism-taint summaries used by CQ012:
which functions *return* a value derived from set/dict iteration order or
``id()``, which parameters flow to the return value, and where tainted
values reach ordering-sensitive sinks (sort keys, journal records,
scheduling heaps, skyline insertion).

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
ANALYSIS_VERSION = 1

MUTATES_NONLOCAL = "MUTATES_NONLOCAL"
IO = "IO"
WALL_CLOCK = "WALL_CLOCK"
UNSEEDED_RNG = "UNSEEDED_RNG"
UNORDERED_ITER = "UNORDERED_ITER"
SPAWNS_PROCESS = "SPAWNS_PROCESS"

EFFECTS = (
    MUTATES_NONLOCAL,
    IO,
    WALL_CLOCK,
    UNSEEDED_RNG,
    UNORDERED_ITER,
    SPAWNS_PROCESS,
)

#: Taint label marking "derived from unordered iteration or id()".
_SRC = "SRC"

# ------------------------------------------------------------------ #
# External knowledge base
# ------------------------------------------------------------------ #
#: Longest-prefix-match table: dotted external path → effect (or None
#: for an explicit "pure" carve-out that shadows a broader prefix).
_EXTERNAL_KB: "tuple[tuple[str, str | None], ...]" = (
    ("os.path.", None),
    ("os.fork", SPAWNS_PROCESS),
    ("os.forkpty", SPAWNS_PROCESS),
    ("os.system", SPAWNS_PROCESS),
    ("os.exec", SPAWNS_PROCESS),
    ("os.spawn", SPAWNS_PROCESS),
    ("os.posix_spawn", SPAWNS_PROCESS),
    ("os.kill", SPAWNS_PROCESS),
    ("os.urandom", UNSEEDED_RNG),
    ("os.", IO),
    ("multiprocessing.shared_memory.", IO),
    ("multiprocessing.", SPAWNS_PROCESS),
    ("subprocess.", SPAWNS_PROCESS),
    ("shutil.", IO),
    ("tempfile.", IO),
    ("socket.", IO),
    ("logging.", IO),
    ("sys.stdout", IO),
    ("sys.stderr", IO),
    ("sys.stdin", IO),
    ("time.", WALL_CLOCK),
    ("datetime.datetime.now", WALL_CLOCK),
    ("datetime.datetime.utcnow", WALL_CLOCK),
    ("datetime.datetime.today", WALL_CLOCK),
    ("datetime.date.today", WALL_CLOCK),
    ("random.", UNSEEDED_RNG),
    ("secrets.", UNSEEDED_RNG),
    ("uuid.uuid1", UNSEEDED_RNG),
    ("uuid.uuid4", UNSEEDED_RNG),
)

#: numpy RNG entry points that are *seeded* (pure) when called with
#: arguments and unseeded otherwise.
_SEEDABLE = (
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
)

_BUILTIN_EFFECTS = {"open": IO, "print": IO, "input": IO, "breakpoint": IO}

#: Unresolved ``obj.method()`` names that imply I/O wherever they land.
_IO_METHODS = frozenset(
    {
        "write_text", "read_text", "write_bytes", "read_bytes", "unlink",
        "mkdir", "rmdir", "touch", "rename", "replace", "flush", "fsync",
        "readline", "readlines", "writelines",
    }
)

#: Container-mutating method names (used for MUTATES_NONLOCAL bases).
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "discard", "pop", "popitem",
        "clear", "update", "setdefault", "add", "sort", "reverse",
    }
)

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
    "SharedCuboidPlan.insert": "shared-plan insertion order",
}


def external_effect(dotted: str, node: ast.Call) -> "str | None":
    """Effect of a call into an unscanned module, per the KB."""
    for prefix in _SEEDABLE:
        if dotted == prefix or dotted.startswith(prefix + "."):
            seeded = bool(node.args) or bool(node.keywords)
            return None if seeded else UNSEEDED_RNG
    best: "tuple[int, str | None] | None" = None
    for prefix, effect in _EXTERNAL_KB:
        if dotted == prefix.rstrip(".") or dotted.startswith(prefix):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), effect)
    return best[1] if best is not None else None


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
# Per-function direct facts
# ------------------------------------------------------------------ #
@dataclass
class _LocalFacts:
    """Direct effects + taint summary seeds for one function."""

    direct: "dict[str, str]"  # effect → "line N: detail"
    returns_taint: bool
    param_to_return: "tuple[int, ...]"
    sink_hits: "list[tuple[int, str]]"  # (line, message)


class _FunctionPass:
    """One lexical pass over a function body.

    Computes direct effects, and — given the current interprocedural
    taint summaries — the function's own taint summary and sink hits.
    """

    def __init__(self, graph: ProgramGraph, qualname: str, summaries) -> None:
        self.graph = graph
        self.fn = graph.functions[qualname]
        self.qualname = qualname
        self.summaries = summaries
        self.module = graph.modules[self.fn.module]
        self.module_globals = self._module_globals()
        self.call_targets = {
            id(site.node): site for site in graph.calls[qualname]
        }
        self.params = [a.arg for a in _all_args(self.fn.node)]
        self.is_ctor = self.fn.name.split(".")[-1] in (
            "__init__", "__post_init__"
        )

    def _module_globals(self) -> "set[str]":
        names: "set[str]" = set()
        for stmt in self.module.file.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                names.add(stmt.target.id)
        names.update(self.module.import_modules)
        names.update(self.module.import_symbols)
        return names

    # ------------------------------------------------------------ #
    def run(self) -> _LocalFacts:
        direct: "dict[str, str]" = {}
        sink_hits: "list[tuple[int, str]]" = []
        #: taint labels per local name: subset of {_SRC, 0..n_params-1}
        labels: "dict[str, set[object]]" = {
            name: {index} for index, name in enumerate(self.params)
        }
        #: local names currently bound to a set-like value
        set_names: "set[str]" = set()
        #: local names whose category is param/self/global via aliasing
        category: "dict[str, str]" = {name: "param" for name in self.params}
        for name in ("self", "cls"):
            if name in category:
                category[name] = "self"
        return_labels: "set[object]" = set()

        def note(effect: str, node: ast.AST, detail: str) -> None:
            if effect not in direct:
                line = getattr(node, "lineno", self.fn.line)
                direct[effect] = f"line {line}: {detail}"

        def base_category(node: ast.AST) -> "str | None":
            while isinstance(node, (ast.Attribute, ast.Subscript)):
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            name = node.id
            if name in ("self", "cls"):
                return "self"
            if name in category:
                return category[name]
            if name in self.module_globals:
                return "global"
            return None

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
            record = sweep == 1
            for node in statements:
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    if record:
                        note(
                            MUTATES_NONLOCAL,
                            node,
                            f"rebinds {'/'.join(node.names)} via "
                            f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}",
                        )
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
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
                            if isinstance(value, ast.Name):
                                category[target.id] = category.get(
                                    value.id,
                                    "global"
                                    if value.id in self.module_globals
                                    else "local",
                                )
                            elif not isinstance(node, ast.AugAssign):
                                category[target.id] = "local"
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for element in ast.walk(target):
                                if isinstance(element, ast.Name):
                                    labels[element.id] = set(value_labels)
                                    category[element.id] = "local"
                        elif isinstance(target, (ast.Attribute, ast.Subscript)):
                            where = base_category(target)
                            exempt = (
                                self.is_ctor
                                and where == "self"
                                and isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                            )
                            if record and where in (
                                "param", "self", "global"
                            ) and not exempt:
                                note(
                                    MUTATES_NONLOCAL,
                                    node,
                                    f"stores into {where}-rooted state",
                                )
                elif isinstance(node, ast.For):
                    iter_labels = expr_labels(node.iter)
                    tainted = _is_set_like(node.iter, set_names)
                    if record and tainted:
                        note(
                            UNORDERED_ITER,
                            node,
                            "iterates a set/frozenset value",
                        )
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name):
                            labels[t.id] = set(iter_labels) | (
                                {_SRC} if tainted else set()
                            )
                            category[t.id] = "local"
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    if record:
                        for comp in node.generators:
                            if _is_set_like(comp.iter, set_names):
                                note(
                                    UNORDERED_ITER,
                                    node,
                                    "comprehension over a set/frozenset value",
                                )
                elif isinstance(node, ast.Call):
                    if record:
                        self._call_effects(node, note)
                        check_sinks(node)
                elif isinstance(node, ast.Return):
                    if node.value is not None:
                        return_labels |= expr_labels(node.value)
            if sweep == 0:
                sink_hits.clear()
                return_labels.clear()

        return _LocalFacts(
            direct=direct,
            returns_taint=_SRC in return_labels,
            param_to_return=tuple(
                sorted(x for x in return_labels if isinstance(x, int))
            ),
            sink_hits=sorted(set(sink_hits)),
        )

    def _call_effects(self, node: ast.Call, note) -> None:
        site = self.call_targets.get(id(node))
        if site is None:
            return
        if site.kind == "builtin":
            effect = _BUILTIN_EFFECTS.get(site.target)
            if effect is not None:
                note(effect, node, f"calls {site.target}()")
        elif site.kind == "external":
            effect = external_effect(site.target, node)
            if effect is not None:
                note(effect, node, f"calls {site.target}")
        elif site.kind == "unknown" and site.target in _IO_METHODS:
            note(IO, node, f"calls .{site.target}() (I/O method)")
        # Mutating container calls on nonlocal bases.
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            base = node.func.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                name = base.id
                if name in ("self", "cls"):
                    where: "str | None" = "self"
                elif name in self.params:
                    where = "param"
                elif name in self.module_globals:
                    where = "global"
                else:
                    where = None
                if where is not None:
                    note(
                        MUTATES_NONLOCAL,
                        node,
                        f"calls .{node.func.attr}() on {where}-rooted state",
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

    # -------------------------------------------------------------- #
    def reachable_from(self, roots: "list[str]") -> "list[str]":
        seen: "set[str]" = set()
        order: "list[str]" = []
        frontier = sorted(r for r in roots if r in self.functions)
        while frontier:
            next_frontier: "list[str]" = []
            for qualname in frontier:
                if qualname in seen:
                    continue
                seen.add(qualname)
                order.append(qualname)
                next_frontier.extend(self.functions[qualname]["calls"])
            frontier = sorted(set(next_frontier) - seen)
        return order

    def witness_path(self, roots: "list[str]", target: str) -> "list[str]":
        parents: "dict[str, str | None]" = {
            r: None for r in sorted(roots) if r in self.functions
        }
        frontier = sorted(parents)
        while frontier:
            next_frontier: "list[str]" = []
            for qualname in frontier:
                if qualname == target:
                    path = [qualname]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])  # type: ignore[arg-type]
                    return list(reversed(path))
                for callee in self.functions[qualname]["calls"]:
                    if callee in self.functions and callee not in parents:
                        parents[callee] = qualname
                        next_frontier.append(callee)
            frontier = sorted(next_frontier)
        return [target]


def _build_result(files: "list[CheckedFile]") -> AnalysisResult:
    graph = ProgramGraph(files)
    order = sorted(graph.functions)
    summaries: "dict[str, dict]" = {
        q: {"returns_taint": False, "param_to_return": ()} for q in order
    }
    facts: "dict[str, _LocalFacts]" = {}
    # Interprocedural fixpoint: taint summaries and effects only grow,
    # so iterate until stable (bounded by lattice height).
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
    # Effect fixpoint over the call graph.
    effects: "dict[str, set[str]]" = {
        q: set(facts[q].direct) for q in order
    }
    stable = False
    while not stable:
        stable = True
        for qualname in order:
            merged = set(effects[qualname])
            for callee in graph.local_callees(qualname):
                merged |= effects.get(callee, set())
            if merged != effects[qualname]:
                effects[qualname] = merged
                stable = False
    functions: "dict[str, dict]" = {}
    for qualname in order:
        fn = graph.functions[qualname]
        functions[qualname] = {
            "file": fn.file.posix,
            "line": fn.line,
            "direct": dict(sorted(facts[qualname].direct.items())),
            "effects": sorted(effects[qualname]),
            "calls": graph.local_callees(qualname),
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
    "EFFECTS",
    "AnalysisResult",
    "analyze_program",
    "configure_cache",
    "external_effect",
]
