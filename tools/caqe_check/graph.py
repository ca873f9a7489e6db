"""Module import graph and call graph over the scanned tree.

This is the substrate for the whole-program rules (CQ011, CQ012): it maps
every scanned file to a dotted module name, indexes the functions and
classes each module defines, resolves ``import``/``from`` tables
(chasing re-exports through package ``__init__`` modules), and extracts
one :class:`CallSite` per ``ast.Call`` with the best static resolution
we can defend:

* names bound by ``def`` in the same module;
* imported names, including aliases and package re-exports;
* ``self.method()`` within a class;
* ``name.method()`` where ``name`` was assigned from a resolvable class
  constructor in the same function (local type inference);
* ``Class.method()`` on an imported or local class;
* dotted chains rooted at an imported external module (``np.random.x``
  → ``numpy.random.x``) — kept as *external* targets;
* a unique-method fallback: an unresolved ``obj.m()`` resolves to
  ``Cls.m`` when exactly one scanned class defines ``m`` and ``m`` is not
  a common container-protocol name.

Everything else is an *unknown* call.  The taint pass treats external
and unknown calls alike, passing their arguments' taint through; it is
exact on everything it can resolve.  The docs (ARCHITECTURE §12) spell
out this contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from tools.caqe_check.engine import CheckedFile, dotted_name

#: Top-level packages recognised as module-name anchors in file paths.
_ANCHORS = ("repro", "tools")

#: Method names too generic for the unique-method fallback (container
#: protocol and friends — resolving these by name alone invites false
#: edges through builtin lists/dicts/queues).
_COMMON_METHODS = frozenset(
    {
        "append", "add", "extend", "insert", "remove", "discard", "pop",
        "popitem", "clear", "update", "setdefault", "get", "put", "keys",
        "values", "items", "sort", "reverse", "copy", "index", "count",
        "join", "split", "strip", "startswith", "endswith", "format",
        "encode", "decode", "read", "write", "close", "open", "item",
        "tolist", "astype", "reshape", "sum", "min", "max", "any", "all",
    }
)


def module_name_for(posix: str) -> "str | None":
    """``src/repro/core/caqe.py`` → ``repro.core.caqe`` (or ``None``)."""
    parts = posix.split("/")
    stem = parts[-1]
    if not stem.endswith(".py"):
        return None
    anchor = -1
    for index, part in enumerate(parts[:-1]):
        if part in _ANCHORS:
            anchor = index  # keep the *last* anchor (tmpdir may repeat it)
    if anchor < 0:
        return None
    dotted = parts[anchor:-1] + [stem[: -len(".py")]]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method defined in a scanned module."""

    qualname: str  # "repro.core.caqe:coarse_join" / "mod:Cls.meth"
    module: str
    name: str  # "coarse_join" or "Cls.meth"
    class_name: "str | None"
    file: CheckedFile
    node: "ast.FunctionDef | ast.AsyncFunctionDef"

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass(frozen=True)
class ImportEdge:
    """One import statement linking two scanned modules."""

    target: str
    line: int
    #: ``False`` for module-scope (import-time) edges, ``True`` for
    #: imports nested in functions or ``if`` blocks (deferred edges that
    #: cannot create import-time cycles).
    lazy: bool


@dataclass(frozen=True)
class CallSite:
    """One ``ast.Call``'s resolution."""

    node: ast.Call
    #: "local" (scanned function), "external" (dotted path into an
    #: unscanned module), "builtin", or "unknown".
    kind: str
    #: Qualname, dotted external path, builtin name, or the bare method
    #: name for unknown attribute calls ("" when nothing is known).
    target: str


@dataclass
class ModuleInfo:
    """Per-module symbol tables."""

    name: str
    file: CheckedFile
    #: import alias → dotted target ("np" → "numpy", "journal_mod" →
    #: "repro.durability.journal").
    import_modules: "dict[str, str]" = field(default_factory=dict)
    #: from-import alias → (module, symbol) pending resolution.
    import_symbols: "dict[str, tuple[str, str]]" = field(default_factory=dict)
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    #: class name → {method name → FunctionInfo}
    classes: "dict[str, dict[str, FunctionInfo]]" = field(default_factory=dict)
    imports: "list[ImportEdge]" = field(default_factory=list)


class ProgramGraph:
    """Modules, functions, imports, and resolved call sites."""

    def __init__(self, files: "list[CheckedFile]") -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self._method_index: "dict[str, list[str]]" = {}
        self._attr_type_cache: "dict[tuple[str, str], dict[str, str]]" = {}
        for file in files:
            name = module_name_for(file.posix)
            if name is None or name in self.modules:
                continue
            self.modules[name] = self._index_module(name, file)
        for info in self.modules.values():
            for fn in info.functions.values():
                self.functions[fn.qualname] = fn
            for methods in info.classes.values():
                for fn in methods.values():
                    self.functions[fn.qualname] = fn
                    self._method_index.setdefault(
                        fn.name.split(".")[-1], []
                    ).append(fn.qualname)
        #: qualname → ordered, de-duplicated call sites.
        self.calls: "dict[str, list[CallSite]]" = {
            qualname: self._extract_calls(fn)
            for qualname, fn in sorted(self.functions.items())
        }

    # -------------------------------------------------------------- #
    # Indexing
    # -------------------------------------------------------------- #
    def _index_module(self, name: str, file: CheckedFile) -> ModuleInfo:
        info = ModuleInfo(name, file)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                lazy = not self._is_module_scope(file.tree, node)
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.import_modules.setdefault(bound, target)
                    info.imports.append(ImportEdge(alias.name, node.lineno, lazy))
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports are not used in this tree
                lazy = not self._is_module_scope(file.tree, node)
                for alias in node.names:
                    if alias.name == "*":
                        info.imports.append(
                            ImportEdge(node.module, node.lineno, lazy)
                        )
                        continue
                    # Record the most precise target: ``from pkg import sub``
                    # depends on ``pkg.sub`` (the submodule), not on the
                    # package ``__init__``.  Consumers fall back by prefix
                    # when ``pkg.name`` is a plain symbol, not a module.
                    info.imports.append(
                        ImportEdge(
                            f"{node.module}.{alias.name}", node.lineno, lazy
                        )
                    )
                    bound = alias.asname or alias.name
                    info.import_symbols.setdefault(bound, (node.module, alias.name))
        for stmt in file.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionInfo(
                    f"{name}:{stmt.name}", name, stmt.name, None, file, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                methods: "dict[str, FunctionInfo]" = {}
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[member.name] = FunctionInfo(
                            f"{name}:{stmt.name}.{member.name}",
                            name,
                            f"{stmt.name}.{member.name}",
                            stmt.name,
                            file,
                            member,
                        )
                info.classes[stmt.name] = methods
        return info

    @staticmethod
    def _is_module_scope(tree: ast.Module, node: ast.stmt) -> bool:
        return any(node is stmt for stmt in tree.body)

    # -------------------------------------------------------------- #
    # Symbol resolution
    # -------------------------------------------------------------- #
    def resolve_symbol(
        self, module: str, symbol: str, _seen: "frozenset[tuple[str, str]]" = frozenset()
    ) -> "tuple[str, str] | None":
        """Resolve ``symbol`` named in ``module`` to a graph entity.

        Returns ``("module", name)``, ``("function", qualname)``,
        ``("class", "mod:Cls")``, ``("external", dotted)`` or ``None``.
        Re-exports are chased through scanned ``__init__`` modules.
        """
        if (module, symbol) in _seen:
            return None
        _seen = _seen | {(module, symbol)}
        info = self.modules.get(module)
        if info is None:
            return ("external", f"{module}.{symbol}")
        if symbol in info.functions:
            return ("function", info.functions[symbol].qualname)
        if symbol in info.classes:
            return ("class", f"{module}:{symbol}")
        if symbol in info.import_modules:
            return ("module", info.import_modules[symbol])
        if symbol in info.import_symbols:
            source_module, source_symbol = info.import_symbols[symbol]
            if f"{source_module}.{source_symbol}" in self.modules:
                return ("module", f"{source_module}.{source_symbol}")
            return self.resolve_symbol(source_module, source_symbol, _seen)
        return None

    def _local_types(
        self, module: str, fn: FunctionInfo
    ) -> "dict[str, str]":
        """Names assigned from a resolvable class constructor → class."""
        types: "dict[str, str]" = {}
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            chain = dotted_name(node.value.func)
            if chain is None:
                continue
            resolved = self._resolve_chain(module, chain)
            if resolved is None or resolved[0] != "class":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = resolved[1]
        return types

    def _resolve_chain(
        self, module: str, chain: "tuple[str, ...]"
    ) -> "tuple[str, str] | None":
        """Resolve a dotted chain (``a.b.c``) starting from ``module``."""
        head = self.resolve_symbol(module, chain[0])
        if head is None:
            return None
        kind, target = head
        for part in chain[1:]:
            if kind == "module":
                follow = self.resolve_symbol(target, part)
                if follow is None:
                    submodule = f"{target}.{part}"
                    if submodule in self.modules:
                        kind, target = "module", submodule
                        continue
                    return None
                kind, target = follow
            elif kind == "class":
                class_module, class_name = target.split(":")
                methods = self.modules[class_module].classes.get(class_name, {})
                if part in methods:
                    kind, target = "function", methods[part].qualname
                else:
                    return None
            elif kind == "external":
                target = f"{target}.{part}"
            else:
                return None  # attribute access on a function result
        return (kind, target)

    # -------------------------------------------------------------- #
    # Call extraction
    # -------------------------------------------------------------- #
    def _extract_calls(self, fn: FunctionInfo) -> "list[CallSite]":
        module = fn.module
        info = self.modules[module]
        local_types = self._local_types(module, fn)
        param_names = {a.arg for a in _all_args(fn.node)}
        sites: "list[CallSite]" = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            sites.append(
                self._resolve_call(fn, info, node, local_types, param_names)
            )
        return sites

    def _resolve_call(
        self,
        fn: FunctionInfo,
        info: ModuleInfo,
        node: ast.Call,
        local_types: "dict[str, str]",
        param_names: "set[str]",
    ) -> CallSite:
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_symbol(info.name, func.id)
            if resolved is None:
                if func.id in param_names or func.id in local_types:
                    return CallSite(node, "unknown", "")
                return CallSite(node, "builtin", func.id)
            kind, target = resolved
            if kind == "function":
                return CallSite(node, "local", target)
            if kind == "class":
                init = self._class_method(target, "__init__")
                if init is not None:
                    return CallSite(node, "local", init)
                return CallSite(node, "unknown", "")
            if kind == "external":
                return CallSite(node, "external", target)
            return CallSite(node, "unknown", "")
        if not isinstance(func, ast.Attribute):
            return CallSite(node, "unknown", "")
        chain = dotted_name(func)
        if chain is None:
            return CallSite(node, "unknown", func.attr)
        if chain[0] in ("self", "cls") and fn.class_name is not None:
            if len(chain) == 3:
                # ``self.attr.method()`` through an inferred attribute type
                # (``self.attr = Cls(...)`` or an annotated ctor parameter).
                owner = self._attr_types(info.name, fn.class_name).get(chain[1])
                if owner is not None:
                    method = self._class_method(owner, chain[2])
                    if method is not None:
                        return CallSite(node, "local", method)
            resolved_method = self._resolve_chain(
                info.name, (fn.class_name,) + chain[1:]
            )
            if resolved_method is not None and resolved_method[0] == "function":
                return CallSite(node, "local", resolved_method[1])
            return CallSite(node, "unknown", chain[-1])
        if chain[0] in local_types and len(chain) == 2:
            method = self._class_method(local_types[chain[0]], chain[1])
            if method is not None:
                return CallSite(node, "local", method)
            return CallSite(node, "unknown", chain[-1])
        resolved = self._resolve_chain(info.name, chain)
        if resolved is not None:
            kind, target = resolved
            if kind == "function":
                return CallSite(node, "local", target)
            if kind == "class":
                init = self._class_method(target, "__init__")
                if init is not None:
                    return CallSite(node, "local", init)
                return CallSite(node, "unknown", "")
            if kind == "external":
                return CallSite(node, "external", target)
            return CallSite(node, "unknown", chain[-1])
        # Unique-method fallback.
        method_name = chain[-1]
        if method_name not in _COMMON_METHODS:
            owners = self._method_index.get(method_name, [])
            if len(owners) == 1:
                return CallSite(node, "local", owners[0])
        return CallSite(node, "unknown", method_name)

    def _attr_types(self, module: str, class_name: str) -> "dict[str, str]":
        """``self.attr`` → owning class, inferred across a class's methods.

        Two defensible sources: ``self.attr = Cls(...)`` where ``Cls``
        resolves to a scanned class, and ``self.attr = param`` where the
        parameter is annotated with one.  First writer wins (methods in
        definition order), keeping the result deterministic.
        """
        key = (module, class_name)
        cached = self._attr_type_cache.get(key)
        if cached is not None:
            return cached
        types: "dict[str, str]" = {}
        methods = self.modules[module].classes.get(class_name, {})
        for fn in methods.values():
            annotated: "dict[str, str]" = {}
            for arg in _all_args(fn.node):
                if arg.annotation is None:
                    continue
                chain = dotted_name(arg.annotation)
                if chain is None:
                    continue
                resolved = self._resolve_chain(module, chain)
                if resolved is not None and resolved[0] == "class":
                    annotated[arg.arg] = resolved[1]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                owner: "str | None" = None
                if isinstance(value, ast.Call):
                    chain = dotted_name(value.func)
                    if chain is not None:
                        resolved = self._resolve_chain(module, chain)
                        if resolved is not None and resolved[0] == "class":
                            owner = resolved[1]
                elif isinstance(value, ast.Name):
                    owner = annotated.get(value.id)
                if owner is not None:
                    types.setdefault(target.attr, owner)
        self._attr_type_cache[key] = types
        return types

    def _class_method(self, class_qual: str, method: str) -> "str | None":
        class_module, class_name = class_qual.split(":")
        methods = self.modules[class_module].classes.get(class_name, {})
        fn = methods.get(method)
        return fn.qualname if fn is not None else None


def _all_args(node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda"):
    args = node.args
    found = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        found.append(args.vararg)
    if args.kwarg is not None:
        found.append(args.kwarg)
    return found


__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportEdge",
    "ModuleInfo",
    "ProgramGraph",
    "module_name_for",
]
