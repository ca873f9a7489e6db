"""Tests for coarse skyline (Theorem 1 at region level) and the dependency graph."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coarse_join import coarse_join
from repro.core.coarse_skyline import (
    coarse_skyline,
    dominated_subspaces,
    sequential_comparison_count,
)
from repro.core.depgraph import DependencyGraph, build_dependency_graph
from repro.core.output_space import OutputGrid
from repro.core.stats import ExecutionStats
from repro.partition import quadtree_partition
from repro.plan import build_minmax_cuboid
from repro.skyline.dominance import dominance_mask, subspace_table


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


def _dominated_flags(lower, upper, seeded=None):
    """``dominated_subspaces`` on the one full subspace, as flags;
    ``seeded`` regions stay dominators but are not tested (False)."""
    width = lower.shape[1]
    word = subspace_table(width, [(1 << width) - 1])[0]
    flags = dominated_subspaces(lower, upper, word, 1) != 0
    if seeded is not None:
        flags &= ~seeded
    return flags


class TestDominatedFlags:
    def test_simple(self):
        lower = np.array([[0.0, 0.0], [5.0, 5.0], [2.0, 0.5]])
        upper = np.array([[1.0, 1.0], [6.0, 6.0], [3.0, 0.8]])
        flags = _dominated_flags(lower, upper)
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
            _dominated_flags(lower, upper), _brute_force_flags(lower, upper)
        )

    @pytest.mark.parametrize("n", [300, 1500])
    def test_seeded_regions_dominate_but_are_not_tested(self, rng, n):
        lower, upper = _boxes("corr", n, 3)
        seeded = rng.random(n) < 0.2
        seeded[np.argmin(upper.sum(axis=1))] = True  # the strongest region
        flags = _dominated_flags(lower, upper, seeded=seeded)
        assert not flags[seeded].any()
        np.testing.assert_array_equal(
            flags, _brute_force_flags(lower, upper) & ~seeded
        )

    def test_survivors_pass_catches_rounded_sums(self):
        """A dominator whose upper-corner sum rounds equal to its victim's
        sorts after it: the victim closes the probe block and the dominator
        falls just outside it, so only the survivors pass can flag the
        victim."""
        victim = [1e16, 1.0]
        dominator = [1e16, 0.0]
        assert sum(victim) == sum(dominator)
        # Mutually incomparable, small sums, above both on the 2nd axis.
        padding = [[-1.0 - k, 2.0 + k] for k in range(15)]
        filler = [[2e16, 1.0 + k] for k in range(1100)]
        boxes = np.array(padding + [victim, dominator] + filler)
        flags = _dominated_flags(boxes, boxes.copy())
        j = len(padding)
        assert flags[j] and not flags[j + 1]
        np.testing.assert_array_equal(flags, _brute_force_flags(boxes, boxes))

    def test_no_self_domination(self):
        lower = np.array([[0.0, 0.0]])
        upper = np.array([[1.0, 1.0]])
        assert not _dominated_flags(lower, upper)[0]


class TestDominatedSubspaces:
    """Every subspace of one coded pass against its own brute force."""

    @pytest.mark.parametrize("n", [200, 1500])
    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("data", ["corr", "indep", "anti", "grid"])
    def test_brute_force_per_subspace(self, data, width, n):
        lower, upper = _boxes(data, n, width)
        masks = list(range(1, 1 << width))
        word = subspace_table(width, masks)[0]
        rng = np.random.default_rng(n + width)
        # Only the subspaces of ``full`` need be exact.
        full = int(rng.integers(1, 1 << len(masks)))
        bits = dominated_subspaces(lower, upper, word, full)
        for k, mask in enumerate(masks):
            if not (full >> k) & 1:
                continue
            cols = [p for p in range(width) if (mask >> p) & 1]
            np.testing.assert_array_equal(
                (bits >> k) & 1 == 1,
                _brute_force_flags(lower[:, cols], upper[:, cols]),
            )


def _sequential_count_by_argsort(sums, survivors, charged):
    """The count as a full stable argsort ranks it."""
    order = np.argsort(sums, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    survivor_ranks = np.sort(rank[survivors])
    return int(np.searchsorted(survivor_ranks, rank[charged]).sum())


@settings(max_examples=200, deadline=None)
@given(
    sums=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, np.inf, np.nan]), max_size=30
    ),
    seed=st.integers(0, 2**16),
)
def test_sequential_count_matches_a_full_sort(sums, seed):
    """Ties (``-0.0 == 0.0`` too), NaN and inf sums charge as the stable
    argsort of every sum would."""
    sums = np.asarray(sums, dtype=float)
    rng = np.random.default_rng(seed)
    survivors = np.flatnonzero(rng.random(len(sums)) < 0.4)
    charged = np.flatnonzero(rng.random(len(sums)) < 0.7)
    assert sequential_comparison_count(
        sums, survivors, charged
    ) == _sequential_count_by_argsort(sums, survivors, charged)


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
        alive_ids = set(cj.regions.region_id[cj.regions.active_rql != 0].tolist())
        for name, region_ids in result.reg.items():
            assert region_ids <= alive_ids

    def test_discarded_regions_serve_no_query(
        self, eleven_query_workload, small_pair
    ):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        result = coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        active = dict(
            zip(cj.regions.region_id.tolist(), cj.regions.active_rql.tolist())
        )
        for rid in result.discarded:
            assert active[rid] == 0
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


def _graph(ids, edges):
    """``edges``: ``{(source, target): mask}`` over ``ids``."""
    ids = sorted(ids)
    pos = {rid: k for k, rid in enumerate(ids)}
    matrix = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for (source, target), mask in edges.items():
        matrix[pos[source], pos[target]] = mask
    return DependencyGraph.from_edges(np.asarray(ids), matrix)


class TestDependencyGraphStructure:
    def test_add_and_remove(self):
        graph = _graph([1, 2, 3], {(1, 2): 0b1, (1, 3): 0b10, (2, 3): 0b1})
        assert graph.roots().tolist() == [1]
        promoted = graph.remove_node(1)
        assert promoted == {2}
        assert graph.roots().tolist() == [2]
        graph.remove_node(2)
        assert graph.roots().tolist() == [3]

    def test_edge_mask_merging(self):
        """An edge's mask carries every query it was drawn for."""
        graph = _graph([1, 2], {(1, 2): 0b11})
        assert graph.successors(1) == {2: 0b11}

    def test_self_edge_ignored(self):
        graph = _graph([1], {(1, 1): 0b1})
        assert graph.edge_count() == 0
        assert graph.roots().tolist() == [1]

    def test_empty_query_mask_ignored(self):
        graph = _graph([1, 2], {(1, 2): 0})
        assert graph.edge_count() == 0
        assert graph.roots().tolist() == [1, 2]

    def test_force_roots(self):
        graph = _graph([1, 2], {(1, 2): 1, (2, 1): 1})  # cycle
        assert graph.roots().tolist() == []
        assert graph.force_roots().tolist() == [1, 2]
        assert graph.roots().tolist() == [1, 2]
        assert graph.edge_count() == 0

    def test_remove_unknown_is_noop(self):
        graph = _graph([1], {})
        assert graph.remove_node(42) == set()
        graph.remove_node(1)
        assert graph.remove_node(1) == set()

    def test_check_invariants_catches_a_stale_indeg(self):
        graph = _graph([1, 2, 3], {(1, 2): 0b1, (1, 3): 0b10, (2, 3): 0b1})
        graph.check_invariants()
        graph.alive[0] = False  # node 1 gone without its edges leaving indeg
        with pytest.raises(AssertionError, match="indeg"):
            graph.check_invariants()

    def test_check_invariants_catches_a_self_edge(self):
        graph = _graph([1, 2], {(1, 2): 0b1})
        graph.edges[1, 1] = 0b1
        with pytest.raises(AssertionError, match="self-edge"):
            graph.check_invariants()

    def test_contains(self):
        graph = _graph([5, 7], {})
        graph.remove_node(7)
        assert 5 in graph and 6 not in graph and 7 not in graph


class _DictGraph:
    """The dict-of-dicts dependency graph the edge matrix replaced, kept
    here as the reference for its semantics."""

    def __init__(self, ids, matrix):
        self.nodes = set(ids)
        self.out = {rid: {} for rid in ids}
        self.inn = {rid: {} for rid in ids}
        for a, source in enumerate(ids):
            for b, target in enumerate(ids):
                mask = int(matrix[a, b])
                if mask and source != target:
                    self.out[source][target] = mask
                    self.inn[target][source] = mask

    def roots(self):
        return {n for n in self.nodes if not self.inn[n]}

    def successors(self, rid):
        return dict(self.out.get(rid, {}))

    def remove_node(self, rid):
        if rid not in self.nodes:
            return set()
        promoted = set()
        for target in list(self.out[rid]):
            del self.inn[target][rid]
            if not self.inn[target]:
                promoted.add(target)
        for source in list(self.inn[rid]):
            del self.out[source][rid]
        del self.out[rid], self.inn[rid]
        self.nodes.discard(rid)
        return promoted

    def force_roots(self):
        for n in self.nodes:
            self.inn[n].clear()
            self.out[n].clear()
        return set(self.nodes)

    def edge_count(self):
        return sum(len(t) for t in self.out.values())

    def dump(self):
        """The snapshot format journals have always carried."""
        return {
            "nodes": sorted(self.nodes),
            "edges": [[n, [[t, m] for t, m in self.out[n].items()]] for n in self.out],
        }


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.integers(0, 45)),
        st.tuples(st.just("batch"), st.lists(st.integers(0, 45), max_size=10)),
        st.just(("force", 0)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
    seed=st.integers(0, 2**16),
    ops=_OPS,
)
def test_matrix_graph_matches_dict_reference(n, density, seed, ops):
    """Roots, successors (order and masks), promoted sets, nodes and edge
    counts agree after every ``remove_node`` / ``force_roots``, and the
    snapshot is the reference's snapshot and loads back equal.  A batch
    ``remove_node`` (ids repeated, unknown or already removed included)
    equals removing its ids one by one, and promotes the survivors the
    one-by-one removals promoted; the graph passes ``check_invariants``
    throughout."""
    from repro.durability.checkpoint import dump_graph, load_graph

    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(45, size=n, replace=False)).astype(np.int64)
    matrix = np.where(
        rng.random((n, n)) < density, rng.integers(1, 8, (n, n)), 0
    ).astype(np.int64)
    np.fill_diagonal(matrix, 0)
    ref = _DictGraph(ids.tolist(), matrix)
    graph = DependencyGraph.from_edges(ids, matrix.copy())

    def agree():
        assert graph.roots().tolist() == sorted(ref.roots())
        assert graph.nodes == ref.nodes
        assert graph.edge_count() == ref.edge_count()
        for rid in range(46):
            assert list(graph.successors(rid).items()) == list(
                ref.successors(rid).items()
            )
            assert (rid in graph) == (rid in ref.nodes)
        assert dump_graph(graph) == ref.dump()
        graph.check_invariants()

    agree()
    for op, rid in ops:
        if op == "remove":
            assert graph.remove_node(rid) == ref.remove_node(rid)
        elif op == "batch":
            promoted = set().union(*(ref.remove_node(r) for r in rid))
            removed = graph.remove_node(np.asarray(rid, dtype=np.int64))
            assert removed == promoted - set(rid)
        else:
            assert graph.force_roots().tolist() == sorted(ref.force_roots())
        agree()
    loaded = load_graph(json.loads(json.dumps(dump_graph(graph))))
    assert dump_graph(loaded) == dump_graph(graph)
    assert loaded.roots().tolist() == graph.roots().tolist()


def test_loads_a_dict_graph_snapshot():
    """A snapshot the dict-of-dicts graph wrote (a 28-node graph left after
    two removals) loads, schedules like its writer, and dumps back to the
    same bytes."""
    from repro.durability.checkpoint import dump_graph, load_graph

    path = Path(__file__).parent / "data" / "depgraph_dump.json"
    text = path.read_text().strip()
    data = json.loads(text)
    graph = load_graph(data)
    assert json.dumps(dump_graph(graph), separators=(",", ":")) == text
    ref = _DictGraph.__new__(_DictGraph)
    ref.nodes = set(data["nodes"])
    ref.out = {n: {t: m for t, m in targets} for n, targets in data["edges"]}
    ref.inn = {n: {} for n in ref.nodes}
    for n, targets in data["edges"]:
        for t, m in targets:
            ref.inn[t][n] = m
    assert graph.edge_count() == ref.edge_count() == 169
    while ref.nodes:
        assert graph.roots().tolist() == sorted(ref.roots())
        roots = sorted(ref.roots()) or sorted(ref.force_roots())
        if not graph.roots().size:
            graph.force_roots()
        assert graph.remove_node(roots[0]) == ref.remove_node(roots[0])
    assert graph.nodes == set()


class TestBuiltGraph:
    def test_roots_exist(self, eleven_query_workload, small_pair):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        assert graph.roots().size, "a built dependency graph must have roots"

    def test_nodes_are_alive_regions(self, eleven_query_workload, small_pair):
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        coarse_skyline(eleven_query_workload, cuboid, cj.regions, stats)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        alive = set(cj.regions.region_id[cj.regions.active_rql != 0].tolist())
        assert graph.nodes == alive

    def test_no_per_query_two_cycles(self, eleven_query_workload, small_pair):
        """The asymmetry rule prevents mutual edges *for the same query*
        (edges both ways for different queries are legitimate)."""
        cj, stats = _mqla(eleven_query_workload, small_pair)
        cuboid = build_minmax_cuboid(eleven_query_workload)
        graph = build_dependency_graph(
            eleven_query_workload, cuboid, cj.regions, cj.grid, stats
        )
        for source in graph.nodes:
            for target, mask in graph.successors(source).items():
                reverse = graph.successors(target).get(source, 0)
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
        for source in graph.nodes:
            for mask in graph.successors(source).values():
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
            upper = np.array([r.upper[pos] for r in group])
            lower = np.array([r.lower[pos] for r in group])
            # The kept regions' upper corners, in keep order.
            kept = np.empty_like(upper)
            n_kept = count = 0
            # Ascending upper-corner sum, ties in region order.
            for k in np.argsort(upper.sum(axis=1), kind="stable").tolist():
                rid = group[k].region_id
                if rid not in seeded:
                    count += n_kept
                # Does a kept upper corner dominate this lower corner?
                ups, low = kept[:n_kept], lower[k]
                dominated = ((ups <= low).all(axis=1) & (ups < low).any(axis=1)).any()
                if rid in seeded or not dominated:
                    kept[n_kept] = upper[k]
                    n_kept += 1
                    survivors.add(rid)
            charged.append(count)
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


MQLA_CASES = [
    "correlated",
    "anticorrelated",
    "independent",
    "filtered",
    "two_conditions",
    "five_dims",
    "six_dims",
]


@pytest.mark.parametrize("case", MQLA_CASES)
def test_coarse_skyline_matches_per_pair_scalar_reference(mqla_cases, case):
    workload, lp, rp = mqla_cases[case]
    cj = coarse_join(workload, lp, rp, ExecutionStats())
    cuboid = build_minmax_cuboid(workload)
    want_nd, want_reg, want_discarded, want_active, charged = _naive_coarse_skyline(
        workload, cuboid, cj.regions.materialise()
    )
    seen: "list[int]" = []
    stats = ExecutionStats()
    record = stats.record_coarse_comparisons
    stats.record_coarse_comparisons = lambda n: (seen.append(n), record(n))[1]
    result = coarse_skyline(workload, cuboid, cj.regions, stats)
    assert result.nondominated == want_nd
    assert result.reg == want_reg
    assert result.discarded == want_discarded
    table = cj.regions
    assert dict(zip(table.region_id.tolist(), table.active_rql.tolist())) == want_active
    survivors = table.materialise(np.flatnonzero(table.active_rql != 0))
    assert {r.region_id: r.active_rql for r in survivors} == {
        rid: a for rid, a in want_active.items() if a
    }
    assert all(type(r.active_rql) is int for r in survivors)
    # The charge sequence, not just its sum: the virtual clock adds floats.
    assert seen == charged
    assert stats.coarse_comparisons == sum(charged)
    assert stats.regions_discarded == len(want_discarded)
    if case in ("correlated", "five_dims"):
        assert len(table) > 2 * 512  # dominated_subspaces' probe branch
    if case == "five_dims":
        assert len(cuboid.masks) == 31 and len(workload.output_dims) == 5
    if case == "six_dims":
        assert len(workload) == 57 and len(cuboid.masks) == 63
    if case == "two_conditions":
        assert len(set(table.rql.tolist())) == 2
    if case == "filtered":
        assert not want_discarded and any(
            a != rql for rql, a in zip(table.rql.tolist(), want_active.values())
        )


def _per_query_dependency_graph(workload, cuboid, regions, grid):
    """Definition 9 one query at a time, each on its own subspace's
    broadcast kernel: the edge masks and the charge sequence."""
    dims = workload.output_dims
    table = cuboid.lattice.table
    rows = np.flatnonzero(regions.active_rql != 0)
    n = len(rows)
    widths = (np.asarray(grid.highs) - np.asarray(grid.lows)) / grid.divisions
    widths = np.where(widths > 0, widths, 1.0)
    lows = np.asarray(grid.lows)
    best = lows + (regions.coord_lo[rows] + 1) * widths
    worst = lows + regions.coord_hi[rows] * widths
    rql = regions.active_rql[rows]
    edges = np.zeros((n, n), dtype=np.int64)
    charged = []
    for qi, query in enumerate(workload):
        pos = [dims.index(nm) for nm in table.names(cuboid.query_nodes[query.name])]
        idx = np.flatnonzero((rql >> qi) & 1)
        if len(idx) < 2:
            continue
        can = dominance_mask(best[np.ix_(idx, pos)], worst[np.ix_(idx, pos)])
        np.fill_diagonal(can, False)
        s = np.sort(best[np.ix_(idx, pos)].sum(axis=1))
        t = worst[np.ix_(idx, pos)].sum(axis=1)
        charged.append(int(np.searchsorted(s, t, side="left").sum()))
        src, dst = np.nonzero(can & ~can.T)
        edges[idx[src], idx[dst]] |= np.int64(1) << qi
    return regions.region_id[rows], edges, charged


@pytest.mark.parametrize("case", MQLA_CASES)
def test_dependency_graph_matches_per_query_reference(mqla_cases, case):
    """Edges, node ids and the charge sequence of the coded build equal
    the per-query kernel's, after the coarse skyline narrowed lineages."""
    workload, lp, rp = mqla_cases[case]
    cj = coarse_join(workload, lp, rp, ExecutionStats())
    cuboid = build_minmax_cuboid(workload)
    coarse_skyline(workload, cuboid, cj.regions, ExecutionStats())
    want_ids, want_edges, charged = _per_query_dependency_graph(
        workload, cuboid, cj.regions, cj.grid
    )
    seen: "list[int]" = []
    stats = ExecutionStats()
    record = stats.record_coarse_comparisons
    stats.record_coarse_comparisons = lambda n: (seen.append(n), record(n))[1]
    graph = build_dependency_graph(workload, cuboid, cj.regions, cj.grid, stats)
    np.testing.assert_array_equal(graph.ids, want_ids)
    np.testing.assert_array_equal(graph.edges, want_edges)
    assert seen == charged
    graph.check_invariants()
    if case == "two_conditions":
        alive = cj.regions.active_rql[cj.regions.active_rql != 0]
        assert len(set(cj.regions.rql.tolist())) == 2 < len(set(alive.tolist()))
