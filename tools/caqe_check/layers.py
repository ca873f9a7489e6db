"""Declared layer DAG over ``src/repro`` (CQ011).

The engine's packages form a strict stack: lower layers never import
upward, and the module import graph is acyclic at *import time*.  PRs
1–6 kept this by convention; this table makes it a checked contract.

Layer order (bottom → top)::

    foundation   errors, rng
    relation     relation
    skyline      skyline
    query        query                (query uses skyline.bnl/dominance)
    structure    partition, plan, contracts, datagen
    robustness   robustness           (faults/sanitize/recovery)
    core         core                 (driver; consumes everything below)
    durability   durability           (journals *around* core)
    baselines    baselines
    serving      serving
    drivers      bench, CLI __main__ modules, repro.__init__

Rules derived from the table:

* a module may import (at module scope) only modules in its own layer or
  below — a **static upward import** is a CQ011 violation;
* the static import graph must be acyclic at module granularity — each
  cycle is one CQ011 violation;
* imports nested inside functions or ``if`` blocks (``TYPE_CHECKING``,
  lazy plumbing such as ``core`` reaching up to ``durability`` at run
  time) are *deferred* edges: they cannot deadlock the import system and
  are exempt by design — the run-time direction inversion is the
  documented architecture (§10), not an accident.

Assignment is by longest package prefix, with exact-module overrides for
the handful of driver modules that live inside lower-layer packages
(``repro.serving.__main__`` wires a demo; ``repro.__init__`` re-exports
the world).
"""

from __future__ import annotations

#: Ordered bottom → top.  Index = layer rank.
LAYERS: "tuple[tuple[str, tuple[str, ...]], ...]" = (
    ("foundation", ("repro.errors", "repro.rng")),
    ("relation", ("repro.relation",)),
    ("skyline", ("repro.skyline",)),
    ("query", ("repro.query",)),
    ("structure", ("repro.partition", "repro.plan", "repro.contracts",
                   "repro.datagen")),
    ("robustness", ("repro.robustness",)),
    ("core", ("repro.core",)),
    ("durability", ("repro.durability",)),
    ("baselines", ("repro.baselines",)),
    ("serving", ("repro.serving",)),
    ("drivers", ("repro.bench",)),
)

#: Exact-module assignments that win over the package prefix.
MODULE_OVERRIDES: "dict[str, str]" = {
    "repro": "drivers",            # package __init__ re-exports the stack
    "repro.__main__": "drivers",
    "repro.serving.__main__": "drivers",
}

_RANK: "dict[str, int]" = {
    name: rank for rank, (name, _prefixes) in enumerate(LAYERS)
}


def layer_of(module: str) -> "str | None":
    """Layer name for a dotted module, or ``None`` if unassigned."""
    override = MODULE_OVERRIDES.get(module)
    if override is not None:
        return override
    best: "tuple[int, str] | None" = None
    for name, prefixes in LAYERS:
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > best[0]:
                    best = (len(prefix), name)
    return best[1] if best is not None else None


def rank_of(layer: str) -> int:
    return _RANK[layer]


def find_cycles(edges: "dict[str, list[str]]") -> "list[list[str]]":
    """Strongly connected components with ≥2 nodes (or a self-loop).

    Iterative Tarjan over a sorted node order, so the output is
    deterministic: each cycle is rotated to start at its smallest module
    and cycles are sorted by that module.
    """
    index: "dict[str, int]" = {}
    lowlink: "dict[str, int]" = {}
    on_stack: "set[str]" = set()
    stack: "list[str]" = []
    counter = [0]
    components: "list[list[str]]" = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(edges.get(root, []))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in edges:
                    continue
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append(
                        (successor, iter(sorted(edges.get(successor, []))))
                    )
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges.get(node, []):
                    smallest = min(component)
                    pivot = component.index(smallest)
                    components.append(
                        component[pivot:] + component[:pivot]
                    )

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return sorted(components)


__all__ = ["LAYERS", "MODULE_OVERRIDES", "find_cycles", "layer_of", "rank_of"]
