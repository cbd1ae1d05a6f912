"""Optimizer tests: grid dominance, determinism, physical sanity."""

import dataclasses
import math

import numpy as np
import pytest

from pmqkd.channel import ChannelSpec
from pmqkd.errors import DomainError
from pmqkd.optimizer import GRID_SHAPE, OptimizationResult, SearchBounds, optimize
from pmqkd.pipeline import expected_key_rate


class TestGridDominance:
    @pytest.mark.parametrize("loss_db", [30.0, 45.0])
    def test_beats_reference_grid(self, loss_db):
        channel = ChannelSpec(total_loss_db=loss_db)
        bounds = SearchBounds()
        result = optimize(channel, 1e11, 8, bounds=bounds, seed=0)
        best_grid = 0.0
        for mu in np.logspace(
            math.log10(bounds.mu[0]), math.log10(bounds.mu[1]), GRID_SHAPE[0]
        ):
            for p_s in np.linspace(bounds.p_s[0], bounds.p_s[1], GRID_SHAPE[1]):
                r = expected_key_rate(
                    channel, float(mu), m_slices=8, n_rounds=1e11,
                    p_s=float(p_s),
                ).rate
                best_grid = max(best_grid, r)
        assert result.rate_opt >= best_grid

    def test_fixed_ps_dominates_its_grid(self):
        channel = ChannelSpec(total_loss_db=40.0)
        bounds = SearchBounds()
        result = optimize(channel, 1e11, 8, bounds=bounds, fixed_p_s=0.07, seed=0)
        best_grid = max(
            expected_key_rate(channel, float(mu), m_slices=8, n_rounds=1e11,
                              p_s=0.07).rate
            for mu in np.logspace(
                math.log10(bounds.mu[0]), math.log10(bounds.mu[1]), GRID_SHAPE[0]
            )
        )
        assert result.rate_opt >= best_grid
        assert result.p_s_opt == 0.07


@pytest.mark.parametrize("mu", [(1e-6, math.inf), (math.nan, 0.1), (1e-6, math.nan)])
def test_non_finite_mu_bound_rejected(mu):
    with pytest.raises(DomainError, match="bad mu bounds"):
        SearchBounds(mu=mu)


class TestResultConsistency:
    def test_rate_is_reevaluated_pipeline_value(self):
        channel = ChannelSpec(total_loss_db=35.0)
        result = optimize(channel, 1e11, 8, fixed_p_s=0.07, seed=0)
        direct = expected_key_rate(
            channel, result.mu_opt, m_slices=8, n_rounds=1e11, p_s=result.p_s_opt
        ).rate
        assert result.rate_opt == direct

    @pytest.mark.parametrize("loss_db,n_rounds,fixed_p_s", [
        (45.0, 1e11, 0.07),   # feasible, fixed p_s
        (120.0, 1e8, 0.07),   # infeasible, fixed p_s
        (40.0, 1e11, None),   # feasible, co-optimized
        (120.0, 1e8, None),   # infeasible, co-optimized
    ])
    def test_reported_fields_agree(self, loss_db, n_rounds, fixed_p_s):
        channel = ChannelSpec(total_loss_db=loss_db)
        r = optimize(channel, n_rounds, 8, fixed_p_s=fixed_p_s)
        direct = expected_key_rate(channel, r.mu_opt, m_slices=8,
                                   n_rounds=n_rounds, p_s=r.p_s_opt)
        assert r.rate_opt == direct.rate
        assert r.evaluations == len(r.trace)
        assert r.feasible == (r.rate_opt > 0)
        assert r.feasible == (loss_db < 100)
        assert r.result == direct

    def test_result_is_the_only_stored_optimum(self):
        assert [f.name for f in dataclasses.fields(OptimizationResult)] == [
            "result", "trace"]

    def test_seeded_determinism(self):
        channel = ChannelSpec(total_loss_db=40.0)
        r1 = optimize(channel, 1e11, 8, seed=42)
        r2 = optimize(channel, 1e11, 8, seed=42)
        assert r1.trace == r2.trace
        assert (r1.mu_opt, r1.p_s_opt, r1.rate_opt) == (
            r2.mu_opt, r2.p_s_opt, r2.rate_opt
        )


class TestOptimumPinned:
    # Optima found by the differential-evolution refinement the current
    # searches replaced.  The grid + nested golden-section co-optimization
    # and the grid + golden-section search at fixed p_s must reach them with
    # fewer evaluations.
    def test_co_optimized_p_s_40db(self):
        r = optimize(ChannelSpec(total_loss_db=40.0), 1e11, 8, seed=0)
        assert r.rate_opt == pytest.approx(5.581996290263715e-07, rel=1e-6)
        assert r.evaluations < 800

    def test_fixed_p_s_45db(self):
        r = optimize(ChannelSpec(total_loss_db=45.0), 1e11, 8, fixed_p_s=0.07,
                     seed=0)
        assert r.rate_opt == pytest.approx(1.4065071470947588e-07, rel=1e-6)
        assert r.evaluations < 300


# Co-optimized (mu, p_s) optima (M = 8) found by the grid + Nelder-Mead
# search the nested golden-section search replaced.  Nelder-Mead needed 698 to
# 1972 evaluations on these points.
CO_OPTIMA = [
    (1e11, 5.0, 0.002266482274848294),     # p_s on its lower bound
    (1e12, 30.0, 6.683767410894573e-06),   # p_s on its lower bound
    (1e11, 25.0, 2.097725930025799e-05),   # p_s = 0.0106, just above it
    (1e12, 55.0, 2.0169734113825154e-09),  # the largest shortfall of a sweep
    (1e10, 45.0, 4.151930403675025e-08),
]


class TestCoOptimumPinned:
    @pytest.mark.parametrize("n_rounds,loss_db,rate", CO_OPTIMA)
    def test_co_optimized_optimum(self, n_rounds, loss_db, rate):
        r = optimize(ChannelSpec(total_loss_db=loss_db), n_rounds, 8)
        assert r.rate_opt == pytest.approx(rate, rel=1e-6)
        assert r.evaluations < 800


# Fixed-p_s optima of the rate-vs-distance curves (alpha = 0.168 dB/km,
# p_s = 0.07, M = 8) every 50 km, as recorded in
# benchmarks/reference_curves.json; 0.0 marks a point with no key.
CURVE_OPTIMA = [
    (1e10, 10.0, 0.004395035612753648),
    (1e10, 60.0, 0.0006435298828639209),
    (1e10, 110.0, 8.961985759175476e-05),
    (1e10, 160.0, 1.2248631997992758e-05),
    (1e10, 210.0, 1.458775053097099e-06),
    (1e10, 260.0, 2.968531374149897e-08),
    (1e10, 310.0, 0.0),
    (1e11, 10.0, 0.00440419516553755),
    (1e11, 60.0, 0.0006471939209610829),
    (1e11, 110.0, 9.105963291450245e-05),
    (1e11, 160.0, 1.286380155822776e-05),
    (1e11, 210.0, 1.7712863484335993e-06),
    (1e11, 260.0, 2.075291743188709e-07),
    (1e11, 310.0, 0.0),
    (1e12, 10.0, 0.004407067347006625),
    (1e12, 60.0, 0.0006483312555551125),
    (1e12, 110.0, 9.149260615417229e-05),
    (1e12, 160.0, 1.3034079935041658e-05),
    (1e12, 210.0, 1.843237963787474e-06),
    (1e12, 260.0, 2.433797293397879e-07),
    (1e12, 310.0, 1.7925663702031855e-08),
]


class TestCurveOptimaPinned:
    @pytest.mark.parametrize("n_rounds,distance_km,rate", CURVE_OPTIMA)
    def test_fixed_p_s_optimum(self, n_rounds, distance_km, rate):
        r = optimize(ChannelSpec(distance_km=distance_km, alpha_db_per_km=0.168),
                     n_rounds, 8, fixed_p_s=0.07)
        if rate == 0.0:
            assert (r.rate_opt, r.feasible) == (0.0, False)
        else:
            assert r.rate_opt == pytest.approx(rate, rel=1e-6)
            assert r.feasible
            assert r.evaluations < 100

    def test_optimum_on_upper_mu_bound(self):
        # at 10 km the rate still rises at mu = 0.1: the search must keep the
        # bound itself, not stop an interval short of it
        r = optimize(ChannelSpec(distance_km=10.0, alpha_db_per_km=0.168), 1e10, 8,
                     fixed_p_s=0.07)
        assert r.mu_opt == SearchBounds().mu[1]


class TestPhysicalSanity:
    def test_reference_intensity_45db(self):
        # published optimized intensity at 45 dB is 9.78e-4; the model
        # optimum lands within a factor of 1.5
        result = optimize(ChannelSpec(total_loss_db=45.0), 1e11, 8,
                          fixed_p_s=0.07, seed=0)
        assert 9.78e-4 / 1.5 <= result.mu_opt <= 9.78e-4 * 1.5

    def test_rate_nonincreasing_in_loss(self):
        rates = []
        for loss in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 75.0):
            r = optimize(ChannelSpec(total_loss_db=loss), 1e10, 8,
                         fixed_p_s=0.07, seed=0)
            rates.append(r.rate_opt)
        for a, b in zip(rates, rates[1:]):
            assert b <= a * (1 + 1e-9) + 1e-300

    def test_dark_dominated_region_flagged_infeasible(self):
        result = optimize(ChannelSpec(total_loss_db=120.0), 1e8, 8, seed=0)
        assert result.rate_opt == 0.0
        assert result.feasible is False
        assert result.evaluations > 0
