"""Tests for the CSM benefit model (Eqs 8-10) and feedback (Eq 11)."""

import numpy as np
import pytest

from repro.contracts import c1, c2, c4
from repro.core.benefit import BenefitModel, prog_count_exact
from repro.core.clock import CostModel
from repro.core.feedback import update_weights
from repro.core.output_space import OutputGrid
from repro.core.region import OutputRegion
from repro.errors import ExecutionError
from repro.plan import build_minmax_cuboid


def region(region_id, lower, upper, coord_lo, coord_hi, rql=0b1, est=10.0):
    return OutputRegion(
        region_id=region_id,
        left_cell_id=0,
        right_cell_id=0,
        condition_name="JC1",
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        rql=rql,
        coord_lo=coord_lo,
        coord_hi=coord_hi,
        est_join_count=est,
        left_size=10,
        right_size=10,
    )


@pytest.fixture
def grid():
    return OutputGrid(("d1", "d2", "d3", "d4"), (0.0,) * 4, (8.0,) * 4, divisions=8)


class TestProgCountExact:
    def test_example18_style(self, grid):
        """A dominator whose populated best cell kills part of the target
        region: only cells strictly above that cell's upper corner are at
        risk (Definition 11 / Example 18)."""
        target = region(1, [4.0] * 4, [6.0] * 4, (4,) * 4, (5,) * 4)
        dominator = region(2, [3.0] * 4, [5.0] * 4, (3,) * 4, (4,) * 4)
        safe, total = prog_count_exact(target, [dominator], (0, 1, 2, 3), grid)
        assert total == 16  # 2^4 cells
        # Dominator's best cell upper corner is (4,4,4,4): every target cell
        # whose lower corner is >= that with at least one strictly larger
        # coordinate is at risk — all but the (4,4,4,4) cell itself.
        assert safe == 1

    def test_no_dominators_all_safe(self, grid):
        target = region(1, [4.0] * 4, [6.0] * 4, (4,) * 4, (5,) * 4)
        safe, total = prog_count_exact(target, [], (0, 1, 2, 3), grid)
        assert safe == total == 16

    def test_self_excluded(self, grid):
        target = region(1, [0.0] * 4, [8.0] * 4, (0,) * 4, (7,) * 4)
        safe, total = prog_count_exact(target, [target], (0, 1, 2, 3), grid)
        assert safe == total

    def test_total_kill(self, grid):
        target = region(1, [6.0] * 4, [7.0] * 4, (6,) * 4, (6,) * 4)
        dominator = region(2, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        safe, total = prog_count_exact(target, [dominator], (0, 1, 2, 3), grid)
        assert safe == 0 and total == 1


class TestBenefitModel:
    @pytest.fixture
    def model(self, eleven_query_workload, grid):
        cuboid = build_minmax_cuboid(eleven_query_workload)
        contracts = {q.name: c2() for q in eleven_query_workload}
        model = BenefitModel(
            eleven_query_workload, cuboid, grid, contracts, CostModel()
        )
        return model

    def test_estimate_requires_attach(self, model):
        r = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        with pytest.raises(ExecutionError):
            model.estimate(r)

    def test_estimate_rejects_a_region_that_was_not_attached(self, model):
        """Attaching *some* regions does not make the others estimable —
        in any input form."""
        known = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        inside = region(1, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        beyond = region(7, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        model.attach_regions([known, region(2, [1.0] * 4, [2.0] * 4, (1,) * 4, (1,) * 4)])
        for stranger in (inside, beyond):  # an id gap, an id past the arrays
            with pytest.raises(ExecutionError, match="attached"):
                model.estimate(stranger)
            with pytest.raises(ExecutionError, match="attached"):
                model.estimate_roots([known, stranger])
            with pytest.raises(ExecutionError, match="attached"):
                model.estimate_roots_arrays(
                    rid_arr=np.array([0, stranger.region_id], dtype=np.intp)
                )
        assert len(model.estimate_roots([known])) == 1

    def test_estimate_zero_for_unserved_queries(self, model):
        r = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4, rql=0b1)
        model.attach_regions([r])
        est = model.estimate(r)
        assert est.prog_est[0] > 0
        assert np.all(est.prog_est[1:] == 0)

    def test_cost_increases_with_join_estimate(self, model):
        small = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4, est=5.0)
        large = region(1, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4, est=500.0)
        assert model.estimate_cost(large) > model.estimate_cost(small)

    def test_csm_positive_when_contract_satisfiable(self, model):
        r = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4, rql=0b111)
        model.attach_regions([r])
        est = model.estimate(r)
        weights = np.ones(11)
        csm = model.csm(r, est, weights, now=0.0)
        assert csm > 0.0

    def test_csm_batch_matches_scalar(self, model):
        regions = [
            region(i, [float(i)] * 4, [float(i) + 1] * 4, (min(i, 7),) * 4,
                   (min(i, 7),) * 4, rql=0b1111, est=20.0 + i)
            for i in range(4)
        ]
        model.attach_regions(regions)
        estimates = [model.estimate(r) for r in regions]
        weights = np.linspace(0.5, 1.5, 11)
        batch = model.csm_batch(estimates, weights, now=3.0)
        for i, r in enumerate(regions):
            assert batch[i] == pytest.approx(
                model.csm(r, estimates[i], weights, now=3.0), abs=1e-9
            )

    def test_weight_zero_query_contributes_nothing(self, model):
        r = region(0, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4, rql=0b1)
        model.attach_regions([r])
        est = model.estimate(r)
        weights = np.ones(11)
        weights[0] = 0.0
        assert model.csm(r, est, weights, now=0.0) == 0.0

    def test_deactivation_improves_other_regions(self, model):
        """Removing a dominator raises the victim's progressive estimate."""
        victim = region(0, [4.0] * 4, [6.0] * 4, (4,) * 4, (5,) * 4, rql=0b1)
        bully = region(1, [0.0] * 4, [2.0] * 4, (0,) * 4, (1,) * 4, rql=0b1)
        model.attach_regions([victim, bully])
        before = model.estimate(victim).prog_est[0]
        model.note_removed(bully.region_id)
        after = model.estimate(victim).prog_est[0]
        assert after > before

    def test_ids_past_zero_estimate_like_ids_from_zero(
        self, model, eleven_query_workload, grid
    ):
        """A continuous epoch's region ids start past the earlier epochs';
        the arrays span only the attached range, and every estimate and
        event reads as it would with ids from 0."""
        shifted = BenefitModel(
            eleven_query_workload,
            build_minmax_cuboid(eleven_query_workload),
            grid,
            {q.name: c2() for q in eleven_query_workload},
            CostModel(),
        )
        offset = 1000

        def regions(base):
            return [
                region(base + i, [float(i)] * 4, [float(i) + 3] * 4,
                       (i,) * 4, (min(i + 2, 7),) * 4, rql=0b111, est=20.0 + i)
                for i in range(6)
            ]

        model.attach_regions(regions(0))
        shifted.attach_regions(regions(offset))
        assert len(shifted._rql_all) == 6

        def same_estimates():
            ids = np.arange(1, 6, dtype=np.intp)
            t_c, prog = model.estimate_roots_arrays(rid_arr=ids)
            t_s, prog_s = shifted.estimate_roots_arrays(rid_arr=ids + offset)
            assert np.array_equal(t_c, t_s) and np.array_equal(prog, prog_s)
            for qi in range(3):
                ids_a, lowers_a = model.active_serving(qi)
                ids_b, lowers_b = shifted.active_serving(qi)
                assert np.array_equal(ids_a + offset, ids_b)
                assert np.array_equal(lowers_a, lowers_b)

        same_estimates()
        for m, base in ((model, 0), (shifted, offset)):
            m.note_removed(base)
            m.note_deactivation(base + 2, 1)
        same_estimates()
        # Below the attached range: not estimable, and events are no-ops.
        stranger = region(offset - 1, [0.0] * 4, [1.0] * 4, (0,) * 4, (0,) * 4)
        with pytest.raises(ExecutionError, match="attached"):
            shifted.estimate(stranger)
        shifted.note_removed(offset - 1)
        shifted.note_deactivation(offset - 1, 0)
        same_estimates()

    def test_result_estimates(self, model, eleven_query_workload):
        model.set_result_estimates({"Q1": 50.0})
        assert model.result_estimates[0] == 50.0
        assert model.result_estimates[1] == 1.0  # default floor


class TestFeedback:
    def test_example20(self):
        """Example 20: satisfactions {0, 1, 0.7, 0} -> weights
        {1.43, 1, 1.13, 1.43}."""
        weights = np.ones(4)
        sats = np.array([0.0, 1.0, 0.7, 0.0])
        updated = update_weights(weights, sats)
        np.testing.assert_allclose(updated, [1.4348, 1.0, 1.1304, 1.4348], atol=1e-3)

    def test_all_equal_no_change(self):
        weights = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            update_weights(weights, np.array([0.5, 0.5])), weights
        )

    def test_lagging_query_gains_most(self):
        updated = update_weights(np.ones(3), np.array([0.0, 0.5, 1.0]))
        assert updated[0] > updated[1] > updated[2]

    def test_weight_increase_bounded_by_one(self):
        updated = update_weights(np.ones(5), np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
        assert updated.max() <= 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ExecutionError):
            update_weights(np.ones(2), np.ones(3))

    def test_empty(self):
        assert len(update_weights(np.ones(0), np.ones(0))) == 0


class TestFeedbackEdgeCases:
    def test_all_zero_satisfaction_leaves_weights_unchanged(self):
        """v_max = 0 means every gap is 0: nobody is lagging anybody."""
        weights = np.array([1.0, 2.5, 0.4])
        updated = update_weights(weights, np.zeros(3))
        np.testing.assert_array_equal(updated, weights)

    def test_returned_array_is_a_defensive_copy(self):
        weights = np.ones(2)
        updated = update_weights(weights, np.zeros(2))
        updated[0] = 99.0
        assert weights[0] == 1.0

    def test_single_query_workload_is_a_fixed_point(self):
        """One query is trivially the best-satisfied; no redistribution."""
        for satisfaction in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(
                update_weights(np.array([1.7]), np.array([satisfaction])),
                np.array([1.7]),
            )

    def test_renormalisation_after_query_fully_satisfied(self):
        """A fully satisfied query stops gaining weight; the lagging
        queries split exactly one unit of extra weight between them
        (Eq. 11's denominator normalises the gap vector)."""
        weights = np.ones(3)
        sats = np.array([1.0, 0.2, 0.6])
        updated = update_weights(weights, sats)
        assert updated[0] == weights[0]
        increments = updated - weights
        np.testing.assert_allclose(np.sum(increments), 1.0)
        assert increments[1] > increments[2] > 0.0
