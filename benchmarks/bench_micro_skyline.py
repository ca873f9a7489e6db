"""Micro-benchmarks: the skyline algorithm suite on benchmark data.

Not a paper figure — real wall-clock comparisons of the substrate
algorithms (BNL, SFS, SaLSa, divide & conquer, BBS) across the three data
distributions, with the comparison-count table the related-work section
(§8) reasons about.  Unlike the figure benches these use pytest-benchmark's
normal multi-round timing.

The ``dominance-kernel`` group times the pairwise kernel of
``repro.skyline.dominance`` against the literal ``all(<=) & any(<)``
definition on the three shapes that matter: the coarse skyline's
``_CHUNK`` x regions block, a mid-size optimizer broadcast, and the tiny
window/estimate shapes where per-call overhead is everything.  Like every
row in this file they are diagnostics for reproducing a per-call number
on another host — not evidence: a performance claim rests on ``perfbench``
(see ``perfbench/README.md``).
"""

import numpy as np
import pytest

from repro.bench.reporting import render_table
from repro.datagen.distributions import generate
from repro.skyline import (
    ComparisonCounter,
    bbs_skyline,
    bnl_skyline,
    dnc_skyline,
    salsa_skyline,
    sfs_skyline,
)
from repro.skyline.dominance import dominance_broadcast
from repro.skyline.window import SkylineWindow

N = 1200
ALGORITHMS = {
    "BNL": lambda pts, counter: bnl_skyline(pts, counter=counter),
    "SFS": lambda pts, counter: sfs_skyline(pts, counter=counter),
    "SaLSa": lambda pts, counter: salsa_skyline(pts, counter=counter)[0],
    "D&C": lambda pts, counter: dnc_skyline(pts, counter=counter),
    "BBS": lambda pts, counter: bbs_skyline(pts, counter=counter),
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
    # All algorithms must agree with BNL.
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
# Window storage (the SoA flat-array layout, docs/ARCHITECTURE.md §16)
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
KERNEL_SHAPES = [(512, 2054, 4), (30, 80, 3), (5, 20, 2)]


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
