"""The estimator's resident state (``repro.core.benefit``).

``BenefitModel`` keeps, per (region, query) pair, a reach count and a
count row that departure events update in place.  These tests pin the
pieces that make that exact: the batched geometry builders equal their
per-box forms bit for bit, applying events one flush at a time equals
applying them in one flush, the columnar attach equals the scalar
formulas, and ``check_invariants`` notices corrupted state.  The whole-run
oracle is
``test_batch_and_cache_equivalence.py::...test_cached_scheduler_picks_the_naive_region_sequence``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import c2
from repro.core import CAQE, CAQEConfig
from repro.core.benefit import BenefitModel, _sample_lattice, _sample_lattices
from repro.core.clock import CostModel
from repro.core.output_space import OutputGrid
from repro.core.region import OutputRegion
from repro.plan import build_minmax_cuboid
from repro.query.workload import subspace_workload
from repro.skyline.estimate import buchta_skyline_size

#: 11 queries in three width groups (2, 3 and 4 dimensions).
WORKLOAD = subspace_workload(4)
GRID = OutputGrid(("d1", "d2", "d3", "d4"), (0.0,) * 4, (8.0,) * 4, divisions=8)


def _region(region_id, coord_lo, size, rql, est):
    coord_hi = tuple(min(lo + s - 1, 7) for lo, s in zip(coord_lo, size))
    return OutputRegion(
        region_id=region_id,
        left_cell_id=0,
        right_cell_id=0,
        condition_name="JC1",
        lower=GRID.cell_lower(coord_lo),
        upper=GRID.cell_upper(coord_hi),
        rql=rql,
        coord_lo=tuple(coord_lo),
        coord_hi=coord_hi,
        est_join_count=est,
        left_size=10,
        right_size=10,
    )


def _model(boxes):
    model = BenefitModel(
        WORKLOAD,
        build_minmax_cuboid(WORKLOAD),
        GRID,
        {q.name: c2() for q in WORKLOAD},
        CostModel(),
    )
    model.attach_regions([_region(i, *box) for i, box in enumerate(boxes)])
    return model


def _estimate_alive(model):
    rows = np.flatnonzero(model._active_all).astype(np.intp)
    return model.estimate_roots_arrays(rid_arr=rows)[1]


coords = st.tuples(*[st.integers(0, 7)] * 4)
sizes = st.tuples(*[st.integers(1, 5)] * 4)
boxes = st.lists(
    st.tuples(coords, sizes, st.integers(1, 2**11 - 1), st.floats(2.0, 400.0)),
    min_size=12,
    max_size=36,
)
#: (remove?, region index, query) — indices wrap around the region count.
events = st.lists(
    st.tuples(st.booleans(), st.integers(0, 10_000), st.integers(0, 10)),
    min_size=1,
    max_size=40,
)


def _resident_state(model):
    """Everything the estimator reads later, on live lineage pairs."""
    member = ((model._rql_all[:, None] >> model._qbits) & 1).astype(bool)
    member &= model._active_all[:, None]
    tables = {}
    for key, table in model._tables.items():
        live = np.flatnonzero(table.live[: table.size])
        tables[key] = (
            live, table.region[live], table.query[live], table.counts[live],
            table.points[live], table.mult[live],
        )
    return (
        np.where(member, model._reach, -2),
        np.where(member, model._slot, -2),
        model._prog_ok.copy(),
        np.where(model._prog_ok, model._prog_val, 0.0),
        tables,
    )


def _assert_same_state(a, b):
    reach_a, slot_a, ok_a, val_a, tables_a = a
    reach_b, slot_b, ok_b, val_b, tables_b = b
    assert np.array_equal(reach_a, reach_b)
    assert np.array_equal(slot_a, slot_b)
    assert np.array_equal(ok_a, ok_b)
    assert np.array_equal(val_a, val_b)
    assert tables_a.keys() == tables_b.keys()
    for key, cols in tables_a.items():
        for col_a, col_b in zip(cols, tables_b[key]):
            assert np.array_equal(col_a, col_b, equal_nan=True), key


class TestFlushCommutation:
    @settings(max_examples=40, deadline=None)
    @given(boxes=boxes, events=events, touch_all=st.booleans())
    def test_flushing_every_event_equals_one_flush(self, boxes, events, touch_all):
        """Departure events change resident state by independent integer
        terms, so flushing after every event and flushing once after all
        of them leave identical reach counts, count rows and cached
        values — and both pass ``check_invariants``."""
        eager, lazy = _model(boxes), _model(boxes)
        touched = np.arange(len(boxes) if touch_all else len(boxes) // 2, dtype=np.intp)
        for model in (eager, lazy):
            model.estimate_roots_arrays(rid_arr=touched)
        for remove, index, qi in events:
            rid = index % len(boxes)
            for model in (eager, lazy):
                if remove:
                    model.note_removed(rid)
                else:
                    model.note_deactivation(rid, qi)
            eager._flush_events()
        lazy._flush_events()
        _assert_same_state(_resident_state(eager), _resident_state(lazy))
        for model in (eager, lazy):
            model.check_invariants()
        assert np.array_equal(_estimate_alive(eager), _estimate_alive(lazy))
        eager.check_invariants()


class TestBatchedGeometry:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_sample_lattices_equal_the_per_box_lattice(self, width):
        """``linspace`` picks its arithmetic once per call; with the 2 or
        3 samples per axis used here a degenerate box in the batch does
        not move any other box's points."""
        rng = np.random.default_rng(width)
        lo = rng.uniform(0.0, 10.0, size=(40, width))
        hi = lo + rng.uniform(0.0, 5.0, size=(40, width))
        hi[::7, 0] = lo[::7, 0]  # zero-width axes in some boxes
        batch = _sample_lattices(lo, hi)
        for p in range(len(lo)):
            assert np.array_equal(batch[p], _sample_lattice(lo[p], hi[p]))

    @settings(max_examples=30, deadline=None)
    @given(boxes=st.lists(st.tuples(coords, sizes), min_size=1, max_size=8), qi=st.integers(0, 10))
    def test_box_cells_are_the_projected_box(self, boxes, qi):
        """An exact row holds each distinct projection of the box's cells
        once, and every one stands for the same number of full cells."""
        boxes = [(lo, size, 2**11 - 1, 10.0) for lo, size in boxes]
        model = _model(boxes)
        positions = list(model.query_positions[qi])
        rows = np.arange(len(boxes), dtype=np.intp)
        cells, mult = model._box_cells(rows, np.tile(positions, (len(rows), 1)))
        for row, box in enumerate(boxes):
            region = _region(row, *box)
            full = GRID.cell_lowers(
                OutputGrid.box_coords(region.coord_lo, region.coord_hi)
            )[:, positions]
            distinct, counts = np.unique(full, axis=0, return_counts=True)
            stored = cells[row][~np.isnan(cells[row]).any(axis=1)]
            assert np.isnan(cells[row][len(stored):]).all()
            assert np.array_equal(stored[np.lexsort(stored.T[::-1])], distinct)
            assert (counts == mult[row]).all()


class TestCheckInvariants:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(3)
        boxes = [
            (tuple(rng.integers(0, 6, 4)), tuple(rng.integers(1, 4, 4)), 2**11 - 1, 50.0)
            for _ in range(30)
        ]
        model = _model(boxes)
        _estimate_alive(model)
        model.note_removed(0)
        model.note_deactivation(1, 3)
        _estimate_alive(model)
        model.check_invariants()
        return model

    def test_a_corrupted_count_row_is_caught(self, model):
        table = next(t for t in model._tables.values() if t.live.any())
        row = int(np.flatnonzero(table.live)[0])
        table.counts[row, 0] += 1
        with pytest.raises(AssertionError, match="row counts"):
            model.check_invariants()

    def test_a_corrupted_reach_count_is_caught(self, model):
        row, qi = np.argwhere(model._slot >= 0)[0]  # a live pair
        model._reach[row, qi] += 1
        with pytest.raises(AssertionError, match="reach counts"):
            model.check_invariants()

    def test_a_stale_cached_value_is_caught(self, model):
        row, qi = np.argwhere(model._prog_ok & (model._reach > 0))[0]
        model._prog_val[row, qi] *= 0.5
        with pytest.raises(AssertionError, match="cached ProgEst"):
            model.check_invariants()

    def test_a_row_of_a_departed_pair_is_caught(self, model):
        table = next(t for t in model._tables.values() if t.live.any())
        row = int(np.flatnonzero(table.live)[0])
        model._active_all[table.region[row]] = False
        with pytest.raises(AssertionError, match="departed"):
            model.check_invariants()


def _assert_attached_scalars(model, regions):
    """Each region's attached Buchta cardinalities, ``t_c`` and cell
    count are the scalar formulas' values, bit for bit (``float.hex``
    tells -0.0 from 0.0)."""
    assert regions
    for region in regions:
        row = region.region_id - model._base
        assert model._cost_all[row].hex() == model.estimate_cost(region).hex()
        for qi, d in enumerate(model.query_dims):
            expected = buchta_skyline_size(region.est_join_count, d)
            assert model._cards_all[row, qi].hex() == float(expected).hex()
        assert model._ccnt_all[row] == region.cell_count
        assert model._rql_all[row] == region.active_rql


class TestColumnarAttach:
    """``attach_regions`` computes ``log`` with ``math.log`` and powers
    with Python's ``**`` per region — ``np.log`` and numpy's ``**`` round
    differently on some inputs — and vectorises only ``+``, ``×`` and the
    division, in the scalar formulas' order."""

    @pytest.mark.parametrize("est", [0.0, 0.5, 1.0, 2.0, 1e6])
    def test_edge_join_counts(self, est):
        regions = [_region(i, (i, 0, 0, 0), (2, 1, 3, 1), 2**11 - 1, est) for i in range(3)]
        model = _model([(r.coord_lo, (2, 1, 3, 1), r.rql, est) for r in regions])
        _assert_attached_scalars(model, regions)

    def test_random_join_counts(self):
        """Many join estimates through the two column builders: enough
        that ``np.log`` or numpy's ``**`` in their place would differ from
        the scalar formulas somewhere."""
        rng = np.random.default_rng(11)
        est = np.concatenate(
            [rng.uniform(0.0, 3.0, 2_000), np.exp(rng.uniform(0.0, 25.0, 48_000))]
        )
        sizes = rng.integers(0, 5_000, len(est))
        model = _model([((0, 0, 0, 0), (1, 1, 1, 1), 2**11 - 1, 2.0)])
        cards = model._cardinalities(est)
        for d in sorted(set(model.query_dims)):
            column = cards[:, model.query_dims.index(d)]
            expected = [buchta_skyline_size(e, d) for e in est.tolist()]
            assert [v.hex() for v in column.tolist()] == [v.hex() for v in expected]
        costs = model._costs(est, sizes)
        expected = [
            model.estimate_cost(SimpleNamespace(est_join_count=e, left_size=n, right_size=0))
            for e, n in zip(est.tolist(), sizes.tolist())
        ]
        assert [v.hex() for v in costs.tolist()] == [v.hex() for v in expected]

    @pytest.mark.parametrize(
        "name",
        ["sched_bound", "commit_bound", "lookahead_bound", "journaled", "serving_burst"],
    )
    def test_perfbench_datasets(self, name):
        """On every perfbench workload's first dataset, as ``open_run``
        attaches the coarse join's surviving rows."""
        workloads = pytest.importorskip("perfbench.workloads")
        spec = workloads.WORKLOADS[name]
        data = workloads.generate(spec, 20140324, 0)
        pair = data["pair"]
        for workload in data["workloads"].values():
            config = workloads.engine_config()
            if name == "serving_burst":
                config = CAQEConfig(target_cells=workloads.SERVING_TARGET_CELLS)
            live = CAQE(config).open_run(
                pair.left, pair.right, workload, {q.name: c2() for q in workload}
            )
            live.close()
            _assert_attached_scalars(live.rs.benefit, list(live.rs.alive.values()))
