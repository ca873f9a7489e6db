"""Micro-benchmarks: the skyline algorithm suite on benchmark data.

Not a paper figure — real wall-clock comparisons of the two skyline
algorithms the engine and its baselines run (BNL, SFS) across the three
data distributions, with their comparison-count table.  Unlike the figure benches these use pytest-benchmark's
normal multi-round timing.

The ``dominance-kernel`` group times the pairwise kernel of
``repro.skyline.dominance`` against the literal ``all(<=) & any(<)``
definition on the shapes that matter: the coarse skyline's first probe
block (16 regions against a ~2 050-region lineage group) and its
survivors pass (~150 x 150), a mid-size optimizer broadcast, and the tiny
window/estimate shapes where per-call overhead is everything.  Like every
row in this file they are diagnostics for reproducing a per-call number
on another host — not evidence: a performance claim rests on ``perfbench``
(see ``perfbench/README.md``).

The ``window-replay`` group is the grid the batch replay kernel of
``SkylineWindow.insert_batch`` is sized on: one call over (live window) x
(batch) x d x distribution x {presorted, unsorted}.  Point
``WINDOW_REPLAY_BASELINE`` at another checkout's ``skyline/window.py`` and
every cell times both kernels, interleaved round by round in this one
process, and checks that they agree (several ``label=path`` entries,
``os.pathsep``-separated, time them all).
"""

import importlib.util
import os
import statistics
import sys
import time

import numpy as np
import pytest

from repro.bench.reporting import render_table
from repro.datagen.distributions import generate
from repro.skyline import ComparisonCounter, bnl_skyline, sfs_skyline
from repro.skyline.dominance import dominance_broadcast
from repro.skyline.window import SkylineWindow

N = 1200
ALGORITHMS = {
    "BNL": lambda pts, counter: bnl_skyline(pts, counter=counter),
    "SFS": lambda pts, counter: sfs_skyline(pts, counter=counter),
}


@pytest.fixture(scope="module", params=["correlated", "independent", "anticorrelated"])
def dataset(request):
    return request.param, generate(request.param, N, 3, seed=13)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def bench_micro_skyline_algorithm(benchmark, dataset, algorithm):
    name, points = dataset
    run = ALGORITHMS[algorithm]
    benchmark.group = f"skyline-{name}"
    result = benchmark(lambda: run(points, None))
    # SFS must agree with BNL.
    assert sorted(result) == bnl_skyline(points)


def bench_micro_comparison_counts(run_once, benchmark, dataset):
    """One table per distribution: pairwise comparisons per algorithm."""
    name, points = dataset

    def count_all():
        counts = {}
        for algo, run in ALGORITHMS.items():
            counter = ComparisonCounter()
            run(points, counter)
            counts[algo] = counter.comparisons
        return counts

    counts = run_once(benchmark, count_all)
    print()
    print(
        render_table(
            ("algorithm", "pairwise comparisons"),
            sorted(counts.items()),
            title=f"Skyline comparison counts ({name}, N={N}, d=3)",
        )
    )
    # Presorting must beat the naive scan on every distribution.
    assert counts["SFS"] <= counts["BNL"]


# --------------------------------------------------------------------- #
# Window storage (the SoA flat-array layout, docs/ARCHITECTURE.md §14)
# --------------------------------------------------------------------- #
BATCH = 64


def _batches(points):
    return [
        (
            [("b", start + i) for i in range(len(chunk))],
            np.ascontiguousarray(chunk, dtype=float),
        )
        for start, chunk in (
            (s, points[s : s + BATCH]) for s in range(0, len(points), BATCH)
        )
    ]


def bench_micro_window_insert_batch(run_once, benchmark, dataset):
    """Batched maintenance over one full dataset (replay kernel)."""
    name, points = dataset
    batches = _batches(points)
    benchmark.group = f"window-storage-{name}"

    def insert_all():
        window = SkylineWindow()
        for keys, matrix in batches:
            window.insert_batch(keys, matrix)
        return window

    window = run_once(benchmark, insert_all)
    assert sorted(
        tuple(v) for v in window.vectors
    ) == sorted(tuple(points[i]) for i in bnl_skyline(points))


def bench_micro_window_compaction(run_once, benchmark, dataset):
    """Tombstone churn: alternating inserts and removals drive the
    deferred compaction path (the dead-fraction sweep)."""
    name, points = dataset
    benchmark.group = f"window-storage-{name}"
    # Mutually incomparable ranks keep the window large so removals (not
    # dominance evictions) create the tombstones being measured.
    order = np.argsort(points[:, 0], kind="stable")
    ranked = np.stack(
        [np.arange(len(points)), np.arange(len(points))[::-1]], axis=1
    ).astype(float)

    def churn():
        window = SkylineWindow()
        for i, vec in enumerate(ranked):
            window.insert(("k", int(order[i])), vec)
            if i % 2:
                window.remove_key(("k", int(order[i - 1])))
        return window

    window = run_once(benchmark, churn)
    assert len(window) == len(points) // 2
    assert window.dead_fraction <= 0.5


def bench_micro_window_dump_load(run_once, benchmark, dataset):
    """The durability serialisation contract over a populated window."""
    name, points = dataset
    benchmark.group = f"window-storage-{name}"
    source = SkylineWindow()
    for keys, matrix in _batches(points):
        source.insert_batch(keys, matrix)

    def roundtrip():
        keys, rows = source.dump_entries()
        restored = SkylineWindow()
        restored.load_entries(keys, rows)
        return restored

    restored = run_once(benchmark, roundtrip)
    assert list(restored.keys) == list(source.keys)
    assert np.array_equal(restored.vectors, source.vectors)


# --------------------------------------------------------------------- #
# The pairwise dominance kernel (docs/ARCHITECTURE.md §5)
# --------------------------------------------------------------------- #
KERNEL_SHAPES = [(16, 2054, 4), (150, 150, 4), (30, 80, 3), (5, 20, 2)]


def _literal_dominance(dominators, candidates, axis):
    """The definition, as the kernel computed it before it went
    per-attribute: an ``(n, m, d)`` cube reduced over its last axis."""
    return (dominators <= candidates).all(axis=axis) & (
        dominators < candidates
    ).any(axis=axis)


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize(
    "implementation",
    [_literal_dominance, dominance_broadcast],
    ids=["literal", "kernel"],
)
def bench_micro_dominance_kernel(benchmark, shape, implementation):
    n, m, d = shape
    rng = np.random.default_rng(13)
    dominators = rng.random((n, d))[:, None, :]
    candidates = rng.random((m, d))[None, :, :]
    benchmark.group = f"dominance-kernel-{n}x{m}x{d}"
    mask = benchmark(lambda: implementation(dominators, candidates, 2))
    np.testing.assert_array_equal(
        mask, _literal_dominance(dominators, candidates, 2)
    )


# --------------------------------------------------------------------- #
# The batch replay kernel (docs/ARCHITECTURE.md §14.1)
# --------------------------------------------------------------------- #
REPLAY_LIVE_TARGETS = (1, 6, 20, 220, 1500)
REPLAY_BATCHES = (1, 3, 64, 800)
REPLAY_DIMS = (2, 3, 4)
#: Warm-up points stop doubling here: a correlated window never reaches
#: the larger targets, the cell then reports the live size it got.
REPLAY_WARMUP_CAP = 16_384
REPLAY_ROUNDS = 25
#: (live window, batch) of the wholly dominated cell, ``commit_bound``'s
#: shape: the window's head dominates the batch's lower corner, so the
#: whole batch is rejected at position 0 (ARCHITECTURE §14.1).
REPLAY_DOMINATED = (40, 720)


def _replay_implementations():
    """``{label: SkylineWindow class}`` — the tree's last, after the ones
    ``WINDOW_REPLAY_BASELINE`` names: ``os.pathsep``-separated
    ``label=path`` entries, each another checkout's ``window.py``."""
    implementations = {}
    for entry in filter(None, os.environ.get("WINDOW_REPLAY_BASELINE", "").split(os.pathsep)):
        label, _, path = entry.rpartition("=")
        label = label or "baseline"
        spec = importlib.util.spec_from_file_location(f"_replay_{label}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve their module
        spec.loader.exec_module(module)
        implementations[label] = module.SkylineWindow
    implementations["tree"] = SkylineWindow
    return implementations


def _replay_window(points, target):
    """Entries of a live window of about ``target`` rows: the skyline of
    the shortest doubling prefix of ``points`` that reaches it."""
    n = target
    while True:
        n = min(n, len(points))
        window = SkylineWindow()
        window.insert_batch(list(range(n)), points[:n])
        if len(window) >= target or n >= len(points):
            keys, rows = window.dump_entries()
            return keys[:target], rows[:target]
        n *= 2


def _replay_cell(implementations, entries, keys, batch, rounds):
    """Median microseconds of one ``insert_batch`` per implementation,
    rounds interleaved; every implementation must replay scalar BNL."""
    samples = {label: [] for label in implementations}
    outcomes = {}
    for _ in range(rounds):
        for label, window_type in implementations.items():
            counter = ComparisonCounter()
            window = window_type(counter=counter)
            window.load_entries(*entries)
            start = time.perf_counter()
            outcome = window.insert_batch(keys, batch)
            samples[label].append((time.perf_counter() - start) * 1e6)
            outcomes[label] = (
                outcome.admitted.tolist(), counter.comparisons, window.keys
            )
    counter = ComparisonCounter()
    scalar = SkylineWindow(counter=counter)
    scalar.load_entries(*entries)
    admitted = [scalar.insert(k, row).admitted for k, row in zip(keys, batch)]
    for label, got in outcomes.items():
        assert got == (admitted, counter.comparisons, scalar.keys), label
    return (
        {label: statistics.median(times) for label, times in samples.items()},
        sum(admitted),
    )


@pytest.mark.parametrize("dims", REPLAY_DIMS)
def bench_micro_window_replay(run_once, benchmark, dataset, dims):
    """One ``insert_batch`` call per cell of the replay grid."""
    name, _ = dataset
    benchmark.group = f"window-replay-{name}-{dims}d"
    implementations = _replay_implementations()
    rounds = REPLAY_ROUNDS if benchmark.enabled else 1
    warm = generate(name, REPLAY_WARMUP_CAP, dims, seed=29)
    fresh = generate(name, max(REPLAY_BATCHES), dims, seed=31)
    presorted = fresh[np.argsort(fresh.sum(axis=1), kind="stable")]

    def grid():
        rows = []
        reached = set()
        for target in REPLAY_LIVE_TARGETS:
            entries = _replay_window(warm, target)
            if len(entries[0]) in reached:
                continue  # the distribution's skyline stops short of it
            reached.add(len(entries[0]))
            for size in REPLAY_BATCHES:
                keys = [("b", i) for i in range(size)]
                for order, source in (("presorted", presorted), ("unsorted", fresh)):
                    # An evenly strided sample keeps a presorted batch
                    # spanning the whole sum range, as a region's join does.
                    batch = source[:: len(source) // size][:size]
                    medians, admitted = _replay_cell(
                        implementations, entries, keys, batch, rounds
                    )
                    rows.append(
                        (
                            len(entries[0]), size, order,
                            f"{admitted / size:.3f}",
                            *(f"{medians[label]:.0f}" for label in implementations),
                        )
                    )
        target, size = REPLAY_DOMINATED
        entries = _replay_window(warm, target)
        keys = [("b", i) for i in range(size)]
        # The presorted sample, shifted to sit strictly above the head.
        sample = presorted[:: len(presorted) // size][:size]
        batch = np.asarray(entries[1][0]) + 0.01 + (sample - sample.min(axis=0))
        medians, admitted = _replay_cell(implementations, entries, keys, batch, rounds)
        rows.append(
            (
                len(entries[0]), size, "dominated", f"{admitted / size:.3f}",
                *(f"{medians[label]:.0f}" for label in implementations),
            )
        )
        return rows

    rows = run_once(benchmark, grid)
    print()
    print(
        render_table(
            ("live", "batch", "order", "admit share",
             *(f"{label} us/call" for label in implementations)),
            rows,
            title=f"insert_batch replay kernel ({name}, d={dims})",
        )
    )
