"""Tests for coarse skyline (Theorem 1 at region level) and the dependency graph."""

import numpy as np
import pytest

from repro.core.coarse_join import coarse_join
from repro.core.coarse_skyline import coarse_skyline, dominated_flags
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.output_space import OutputGrid
from repro.core.region import OutputRegion
from repro.core.stats import ExecutionStats
from repro.partition import quadtree_partition
from repro.plan import build_minmax_cuboid
from repro.skyline.dominance import dominance_mask


def _mqla(workload, pair, capacity=40):
    conditions = workload.join_conditions
    lp = quadtree_partition(
        pair.left, ("m1", "m2", "m3", "m4"), conditions, "left", capacity=capacity
    )
    rp = quadtree_partition(
        pair.right, ("m1", "m2", "m3", "m4"), conditions, "right", capacity=capacity
    )
    stats = ExecutionStats()
    cj = coarse_join(workload, lp, rp, stats)
    return cj, stats


def _boxes(data, n, width):
    """``n`` region boxes over ``width`` attributes: correlated,
    independent, anticorrelated or on a small integer grid."""
    rng = np.random.default_rng(n * 10 + width)
    if data == "grid":  # many ties and zero-width boxes
        lower = rng.integers(0, 5, (n, width)).astype(float)
        return lower, lower + rng.integers(0, 2, (n, width))
    if data == "corr":
        lower = rng.random((n, 1)) * 50 + rng.random((n, width)) * 5
    elif data == "anti":
        points = rng.random((n, width)) + 0.01
        lower = 50 * points / points.sum(axis=1, keepdims=True)
        lower += rng.normal(0.0, 0.5, (n, width))
    else:
        lower = rng.random((n, width)) * 50
    return lower, lower + rng.random((n, width)) * 2


def _brute_force_flags(lower, upper):
    flags = np.zeros(len(lower), dtype=bool)
    for start in range(0, len(upper), 512):
        flags |= dominance_mask(upper[start : start + 512], lower).any(axis=0)
    return flags


class TestDominatedFlags:
    def test_simple(self):
        lower = np.array([[0.0, 0.0], [5.0, 5.0], [2.0, 0.5]])
        upper = np.array([[1.0, 1.0], [6.0, 6.0], [3.0, 0.8]])
        flags = dominated_flags(lower, upper)
        # Region 1 is dominated by region 0; region 2 is incomparable to
        # region 0 (better in d2, worse in d1).
        np.testing.assert_array_equal(flags, [False, True, False])

    @pytest.mark.parametrize("n", [1024, 1025, 1500, 3000])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("data", ["corr", "indep", "anti", "grid"])
    def test_brute_force(self, data, width, n):
        """Every row against the chunked all-pairs mask; 1024 regions is
        the last all-pairs group, 1025 the first with probe blocks."""
        lower, upper = _boxes(data, n, width)
        np.testing.assert_array_equal(
            dominated_flags(lower, upper), _brute_force_flags(lower, upper)
        )

    @pytest.mark.parametrize("n", [300, 1500])
    def test_seeded_regions_dominate_but_are_not_tested(self, rng, n):
        lower, upper = _boxes("corr", n, 3)
        seeded = rng.random(n) < 0.2
        seeded[np.argmin(upper.sum(axis=1))] = True  # the strongest region
        flags = dominated_flags(lower, upper, seeded=seeded)
        assert not flags[seeded].any()
        np.testing.assert_array_equal(
            flags, _brute_force_flags(lower, upper) & ~seeded
        )

    def test_survivors_pass_catches_rounded_sums(self):
        """A dominator whose upper-corner sum rounds equal to its victim's
        sorts after it: the victim closes the first probe block and the
        dominator opens the second, so only the survivors pass can flag
        the victim."""
        victim = [1e16, 1.0]
        dominator = [1e16, 0.0]
        assert sum(victim) == sum(dominator)
        # Mutually incomparable, small sums, above both on the 2nd axis.
        padding = [[-1.0 - k, 2.0 + k] for k in range(15)]
        filler = [[2e16, 1.0 + k] for k in range(1100)]
        boxes = np.array(padding + [victim, dominator] + filler)
        flags = dominated_flags(boxes, boxes.copy())
        j = len(padding)
        assert flags[j] and not flags[j + 1]
        np.testing.assert_array_equal(flags, _brute_force_flags(boxes, boxes))

    def test_no_self_domination(self):
        lower = np.array([[0.0, 0.0]])
        upper = np.array([[1.0, 1.0]])
        assert not dominated_flags(lower, upper)[0]


class TestCoarseSkyline:
    def test_reg_sets_cover_final_answers(
        self, eleven_query_workload, small_pair
    ):
        """Soundness: pruning may never remove a region that contains an
        actual final skyline result (verified end-to-end in integration
        tests; here we check REG is a subset of alive regions)."""
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        result = coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        alive_ids = {r.region_id for r in cj.regions if not r.is_discarded}
        for name, region_ids in result.reg.items():
            assert region_ids <= alive_ids

    def test_discarded_regions_serve_no_query(
        self, eleven_query_workload, small_pair
    ):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        result = coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        by_id = {r.region_id: r for r in cj.regions}
        for rid in result.discarded:
            assert by_id[rid].is_discarded
            for region_ids in result.reg.values():
                assert rid not in region_ids

    def test_nondominated_child_in_parent(
        self, eleven_query_workload, small_pair
    ):
        """Theorem 1 at region level: non-dominated at a child subspace =>
        present in every parent's non-dominated set (for candidates)."""
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        result = coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        for mask in cuboid.masks:
            node = cuboid.node(mask)
            for child in node.children:
                assert result.nondominated[child] <= result.nondominated[mask]

    def test_records_discards_in_stats(self, eleven_query_workload, small_pair):
        cj, stats = _mqla(eleven_query_workload, small_pair, capacity=20)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        before = stats.regions_discarded
        result = coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        assert stats.regions_discarded - before == len(result.discarded)


class TestDependencyGraphStructure:
    def test_add_and_remove(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, 0b1)
        graph.add_edge(1, 3, 0b10)
        graph.add_edge(2, 3, 0b1)
        assert graph.roots() == {1}
        promoted = graph.remove_node(1)
        assert promoted == {2}
        assert graph.roots() == {2}
        graph.remove_node(2)
        assert graph.roots() == {3}

    def test_edge_mask_merging(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, 0b01)
        graph.add_edge(1, 2, 0b10)
        assert graph.successors(1) == {2: 0b11}

    def test_self_edge_ignored(self):
        graph = DependencyGraph()
        graph.add_edge(1, 1, 0b1)
        assert graph.edge_count() == 0

    def test_empty_query_mask_ignored(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, 0)
        assert graph.edge_count() == 0

    def test_force_roots(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, 1)
        graph.add_edge(2, 1, 1)  # cycle
        assert graph.roots() == set()
        assert graph.force_roots() == {1, 2}
        assert graph.roots() == {1, 2}

    def test_remove_unknown_is_noop(self):
        graph = DependencyGraph()
        assert graph.remove_node(42) == set()

    def test_contains(self):
        graph = DependencyGraph()
        graph.add_node(5)
        assert 5 in graph and 6 not in graph


class TestBuiltGraph:
    def test_roots_exist(self, eleven_query_workload, small_pair):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        assert graph.roots(), "a built dependency graph must have roots"

    def test_nodes_are_alive_regions(self, eleven_query_workload, small_pair):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        alive = {r.region_id for r in cj.regions if not r.is_discarded}
        assert graph.nodes == alive

    def test_no_per_query_two_cycles(self, eleven_query_workload, small_pair):
        """The asymmetry rule prevents mutual edges *for the same query*
        (edges both ways for different queries are legitimate)."""
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        for source, targets in graph.edges_out.items():
            for target, mask in targets.items():
                reverse = graph.edges_out.get(target, {}).get(source, 0)
                assert mask & reverse == 0

    def test_edge_annotations_are_query_masks(
        self, eleven_query_workload, small_pair
    ):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        full_mask = (1 << len(eleven_query_workload)) - 1
        for targets in graph.edges_out.values():
            for mask in targets.values():
                assert 0 < mask <= full_mask


# ---------------------------------------------------------------------- #
# The array paths against a per-pair scalar reference
# ---------------------------------------------------------------------- #
def _naive_coarse_skyline(workload, cuboid, regions):
    """Section 5.2 as the module docstring tells it: per cuboid node and
    equal-lineage group, one sorted sequential pass with scalar corner
    tests; then per query, per region, the lineage shrink."""
    dims = workload.output_dims
    table = cuboid.lattice.table
    by_id = {r.region_id: r for r in regions}
    active = {r.region_id: r.active_rql for r in regions}
    nondominated, charged = {}, []
    for mask in cuboid.masks:
        node = cuboid.node(mask)
        pos = [dims.index(n) for n in table.names(mask)]
        seeded = set().union(*(nondominated.get(c, set()) for c in node.children))
        survivors = set()
        members = [r for r in regions if r.active_rql & node.qserve]
        for lineage in sorted({r.active_rql for r in members}):
            group = [r for r in members if r.active_rql == lineage]
            # Ascending upper-corner sum, ties in region order.
            sums = np.array([r.upper[pos] for r in group]).sum(axis=1)
            kept: "list[OutputRegion]" = []
            count = 0
            for k in np.argsort(sums, kind="stable").tolist():
                cand = group[k]
                if cand.region_id not in seeded:
                    count += len(kept)
                dominated = any(
                    all(u <= l for u, l in zip(s.upper[pos], cand.lower[pos]))
                    and any(u < l for u, l in zip(s.upper[pos], cand.lower[pos]))
                    for s in kept
                )
                if cand.region_id in seeded or not dominated:
                    kept.append(cand)
            charged.append(count)
            survivors |= {r.region_id for r in kept}
        nondominated[mask] = survivors
    reg = {}
    for qi, query in enumerate(workload):
        keep = nondominated[cuboid.query_nodes[query.name]]
        reg[query.name] = set()
        for r in regions:
            if not r.rql & (1 << qi):
                continue
            if r.region_id in keep or query.has_filters:
                reg[query.name].add(r.region_id)
            else:
                active[r.region_id] &= ~(1 << qi)
    discarded = {rid for rid, lineage in active.items() if lineage == 0}
    return (
        {m: s - discarded for m, s in nondominated.items()},
        {n: s - discarded for n, s in reg.items()},
        discarded,
        active,
        charged,
    )


@pytest.mark.parametrize(
    "case",
    ["correlated", "anticorrelated", "independent", "filtered", "two_conditions"],
)
def test_coarse_skyline_matches_per_pair_scalar_reference(mqla_cases, case):
    workload, lp, rp = mqla_cases[case]
    cj = coarse_join(workload, lp, rp, ExecutionStats())
    cuboid = build_minmax_cuboid(workload)
    want_nd, want_reg, want_discarded, want_active, charged = _naive_coarse_skyline(
        workload, cuboid, cj.regions
    )
    seen: "list[int]" = []
    stats = ExecutionStats()
    record = stats.record_coarse_comparisons
    stats.record_coarse_comparisons = lambda n: (seen.append(n), record(n))[1]
    result = coarse_skyline(workload, cuboid, cj.regions, stats)
    assert result.nondominated == want_nd
    assert result.reg == want_reg
    assert result.discarded == want_discarded
    assert {r.region_id: r.active_rql for r in cj.regions} == want_active
    assert all(type(r.active_rql) is int for r in cj.regions)
    # The charge sequence, not just its sum: the virtual clock adds floats.
    assert seen == charged
    assert stats.coarse_comparisons == sum(charged)
    assert stats.regions_discarded == len(want_discarded)
    if case == "correlated":
        assert len(cj.regions) > 2 * 512  # dominated_flags' two-pass branch
    if case == "two_conditions":
        assert len({r.rql for r in cj.regions}) == 2
    if case == "filtered":
        assert not want_discarded and any(
            a != r.rql for r, a in zip(cj.regions, want_active.values())
        )
