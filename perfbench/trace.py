"""Outside-in span tracing for the per-layer ledger.

Nothing under ``src/`` knows about this module.  :data:`TARGETS` is the
single table of engine callables the benchmark attributes time to; each
entry is resolved with ``getattr`` and replaced by a recording wrapper
for the duration of one traced execution (:func:`installed`), then put
back.  A span is ``(name, start, end, parent span id, execution id)``;
spans stay in memory and are written once, by the caller, when the run
ends.

A target that no longer resolves (a refactor moved or renamed it) is not
an error: it is listed in ``Tracer.missing``, its time falls into the
self time of whatever span encloses it, and the run goes on.  Likewise a
counter whose extractor no longer fits the callable's arguments or return
value: it is listed in ``Tracer.unreadable`` and the call returns as usual.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Any, Callable, Iterator

#: ``(layer, "module:attr.path", counters)``.  The attribute is patched in
#: the namespace the *caller* reads it from — ``repro.core.caqe`` imports
#: ``coarse_join`` by name, so that is where the call is intercepted.
#: ``counters`` maps a counter name to ``f(args, kwargs, result) -> number``
#: evaluated at the span boundary, so ratios are measured where the work
#: happens.  The extractors read engine internals (argument positions,
#: attributes of return values) and run inside the engine's call path, so a
#: failure of one is caught there (:data:`UNREADABLE`).
TARGETS: "tuple[tuple[str, str, dict[str, Callable[..., float]]], ...]" = (
    ("core.caqe.open_run", "repro.core.caqe:CAQE.open_run", {}),
    ("core.caqe.step", "repro.core.caqe:LiveRun.step", {}),
    ("core.caqe.close", "repro.core.caqe:LiveRun.close", {}),
    ("core.caqe.finalize", "repro.core.caqe:LiveRun.finalize", {}),
    (
        "serving.scheduler.submit",
        "repro.serving.scheduler:RegionScheduler.submit",
        {},
    ),
    ("serving.scheduler.step", "repro.serving.scheduler:RegionScheduler.step", {}),
    (
        "partition.quadtree",
        "repro.core.caqe:quadtree_partition",
        {"partition.cells": lambda a, k, r: r.cell_count},
    ),
    ("plan.minmax_cuboid", "repro.core.caqe:build_minmax_cuboid", {}),
    (
        "core.coarse_join",
        "repro.core.caqe:coarse_join",
        {"core.coarse_join.regions": lambda a, k, r: len(r.regions)},
    ),
    (
        "core.coarse_skyline",
        "repro.core.caqe:coarse_skyline",
        {"core.coarse_skyline.pruned": lambda a, k, r: len(r.discarded)},
    ),
    (
        "core.depgraph.build",
        "repro.core.caqe:build_dependency_graph",
        {"core.depgraph.edges": lambda a, k, r: r.edge_count()},
    ),
    (
        "core.depgraph.remove_node",
        "repro.core.depgraph:DependencyGraph.remove_node",
        {},
    ),
    (
        "core.benefit.attach",
        "repro.core.benefit:BenefitModel.attach_regions",
        {},
    ),
    (
        "core.benefit.estimate",
        "repro.core.benefit:BenefitModel.estimate_roots_arrays",
        {"core.benefit.estimate.roots": lambda a, k, r: len(r[0])},
    ),
    (
        "core.benefit.csm",
        "repro.core.benefit:BenefitModel.csm_batch_arrays",
        {},
    ),
    (
        "core.benefit.note_removed",
        "repro.core.benefit:BenefitModel.note_removed",
        {},
    ),
    ("core.benefit.peek", "repro.core.caqe:LiveRun.peek_best_csm", {}),
    ("core.benefit.rank_offers", "repro.serving.scheduler:rank_offers", {}),
    (
        "core.executor.process",
        "repro.core.executor:RegionExecutor.process",
        {},
    ),
    ("parallel.joinkernel.build", "repro.core.executor:build_grouped", {}),
    ("parallel.joinkernel.probe", "repro.core.executor:probe_grouped", {}),
    ("query.apply_functions", "repro.core.executor:apply_functions", {}),
    (
        "core.store.add_batch",
        "repro.core.executor:JoinResultStore.add_batch",
        {"core.store.rows": lambda a, k, r: len(r)},
    ),
    (
        "plan.shared_plan.insert_batch",
        "repro.plan.shared_plan:WorkloadPlan.insert_batch_columnar",
        {"plan.shared_plan.tuples_inserted": lambda a, k, r: len(a[1])},
    ),
    (
        "skyline.window.insert_batch",
        "repro.skyline.window:SkylineWindow.insert_batch",
        {
            "skyline.window.inserted": lambda a, k, r: len(r.admitted),
            "skyline.window.admitted": lambda a, k, r: int(r.admitted.sum()),
        },
    ),
    (
        "core.report.admit",
        "repro.core.caqe:_ReportingState.admit_candidates",
        {},
    ),
    (
        "core.report.release",
        "repro.core.caqe:_ReportingState.release_region_for_query",
        {},
    ),
    (
        "durability.journal.append",
        "repro.durability.journal:RegionJournal.append",
        {},
    ),
    (
        "durability.checkpoint.snapshot",
        "repro.durability.runtime:RunDurability.checkpoint_now",
        {},
    ),
)


#: What an extractor raises when the shape it reads has changed.
UNREADABLE = (AttributeError, TypeError, LookupError)


class Tracer:
    """In-memory span recorder with a parent stack.

    ``clock`` is injectable so tests can drive spans deterministically.
    """

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent, exec_id]`` per span; index = span id.
        self.spans: "list[list[Any]]" = []
        self.counters: "dict[str, float]" = {}
        #: ``(layer, target)`` pairs that did not resolve at the last install.
        self.missing: "list[tuple[str, str]]" = []
        #: ``{counter: target}`` for every counter whose extractor failed.
        self.unreadable: "dict[str, str]" = {}
        self.exec_id = 0
        self._stack: "list[int]" = []

    @contextlib.contextmanager
    def span(self, name: str) -> "Iterator[int]":
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, self.clock(), None, stack[-1] if stack else -1,
                      self.exec_id])
        stack.append(idx)
        try:
            yield idx
        finally:
            spans[idx][2] = self.clock()
            stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self,
        name: str,
        fn: "Callable[..., Any]",
        counters: "dict[str, Callable[..., float]]",
        target: str,
    ) -> "Callable[..., Any]":
        """``fn`` recording one span per call (and its counters); ``target``
        is what a counter that cannot be read is reported against.

        The span bookkeeping of :meth:`span` is inlined: a generator-based
        context manager per call would be most of the tracing overhead on
        layers that are entered tens of thousands of times.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, clock(), None, stack[-1] if stack else -1, self.exec_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, extract in counters.items():
                try:
                    self.count(counter, extract(args, kwargs, result))
                except UNREADABLE:
                    self.unreadable[counter] = target
            return result

        return traced


def _resolve(target: str) -> "tuple[Any, str]":
    """``"pkg.mod:A.b"`` -> (owner object, final attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, leaf)  # AttributeError if the leaf is gone
    return owner, leaf


@contextlib.contextmanager
def installed(tracer: Tracer, targets: "tuple" = TARGETS) -> "Iterator[None]":
    """Wrap every resolvable target for the ``with`` body, then restore."""
    undo: "list[tuple[Any, str, Any]]" = []
    tracer.missing = []
    try:
        for name, target, counters in targets:
            try:
                owner, leaf = _resolve(target)
            except (ImportError, AttributeError):
                tracer.missing.append((name, target))
                continue
            original = getattr(owner, leaf)
            setattr(owner, leaf, tracer.wrap(name, original, counters, target))
            undo.append((owner, leaf, original))
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def layer_names() -> "list[str]":
    return [name for name, _target, _counters in TARGETS]


def self_times(spans: "list[list[Any]]") -> "list[float]":
    """Per span: its duration minus the time its direct children cover."""
    out = [end - start for _name, start, end, _parent, _exec in spans]
    for _name, start, end, parent, _exec in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: "list[list[Any]]") -> "dict[str, dict[str, float]]":
    """``{name: {"self_s", "total_s", "calls"}}`` summed over all spans."""
    table: "dict[str, dict[str, float]]" = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(
            span[0], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        row["self_s"] += self_s
        row["total_s"] += span[2] - span[1]
        row["calls"] += 1
    return table


def write_jsonl(tracers: "list[Tracer]", path: str) -> None:
    """One span per line; ids and parents are unique across ``tracers``."""
    with open(path, "w", encoding="utf-8") as handle:
        base = 0
        for tracer in tracers:
            for idx, (name, start, end, parent, exec_id) in enumerate(tracer.spans):
                row = {
                    "id": base + idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": base + parent if parent >= 0 else -1,
                    "exec": exec_id,
                }
                handle.write(json.dumps(row) + "\n")
            base += len(tracer.spans)
