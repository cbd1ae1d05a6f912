"""Optimizer tests: grid dominance, determinism, physical sanity."""

import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest

from pmqkd import cli
from pmqkd.channel import ChannelSpec
from pmqkd.errors import DomainError
from pmqkd.optimizer import (
    CO_LOG_MU_TOL,
    GRID_SHAPE,
    LOG_MU_TOL,
    PS_TOL,
    OptimizationResult,
    SearchBounds,
    _bracket,
    _brent_max,
    _grid,
    _linspace,
    optimize,
)
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

    @pytest.mark.parametrize("bounds", [
        SearchBounds(), SearchBounds(mu=(3e-5, 0.02), p_s=(0.03, 0.4)),
    ])
    def test_grid_is_numpys_grid(self, bounds):
        # The grid is built without numpy: the p_s values are numpy.linspace's
        # exactly, the mu values numpy.logspace's to 1 ulp (its vectorised
        # power may round differently from Python's pow).
        n_mu, n_ps = GRID_SHAPE
        mus, ps = _grid(bounds, None)
        assert ps == np.linspace(*bounds.p_s, n_ps).tolist()
        ref = np.logspace(math.log10(bounds.mu[0]), math.log10(bounds.mu[1]), n_mu)
        assert len(mus) == n_mu
        assert all(abs(mu - r) <= math.ulp(r) for mu, r in zip(mus, ref.tolist()))
        assert _grid(bounds, 0.07) == (mus, [0.07])


@pytest.mark.parametrize("mu", [(1e-6, math.inf), (math.nan, 0.1), (1e-6, math.nan)])
def test_non_finite_mu_bound_rejected(mu):
    with pytest.raises(DomainError, match="bad mu bounds"):
        SearchBounds(mu=mu)


@pytest.mark.parametrize("p_s", [(0.5, 0.1), (0.0, 0.1), (0.1, 1.0), (math.nan, 0.1)])
def test_bad_p_s_bounds_rejected(p_s):
    with pytest.raises(DomainError) as exc:
        SearchBounds(p_s=p_s)
    assert str(exc.value) == f"SearchBounds: bad p_s bounds {p_s}"


def test_mu_bound_beyond_the_series_rejected():
    # The residue series are summed only up to mu = 700.
    assert SearchBounds(mu=(1e-6, 700.0)).mu[1] == 700.0
    with pytest.raises(DomainError, match="bad mu bounds"):
        SearchBounds(mu=(1e-6, 700.5))


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
    # searches replaced.  The grid + nested Brent co-optimization and the
    # grid + Brent search at fixed p_s must reach them with fewer
    # evaluations.
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
# search that nested bracketed searches replaced.  Nelder-Mead needed 698 to
# 1972 evaluations on these points, the nested golden-section search 721 to
# 738.
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


class TestCoOptimizationAgainstGoldenSection:
    @pytest.mark.parametrize("n_rounds,loss_db,rate", CO_OPTIMA)
    def test_no_more_evaluations(self, n_rounds, loss_db, rate):
        # 738 is the nested golden-section search's fixed cost.
        r = optimize(ChannelSpec(total_loss_db=loss_db), n_rounds, 8)
        assert r.evaluations <= 738

    def test_hardest_point_of_the_sweep(self):
        # Where an inner tolerance of 1e-3 lost 1.05e-6 against the nested
        # golden-section search's rate (M = 6, N = 1e12, 55 dB).
        r = optimize(ChannelSpec(total_loss_db=55.0), 1e12, 6)
        assert r.rate_opt >= 1.4248297312101789e-09 * (1 - 1e-7)


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
            # 50 grid points and at most 34 Brent steps (golden-section took 92)
            assert r.evaluations < 85

    def test_optimum_on_upper_mu_bound(self):
        # at 10 km the rate still rises at mu = 0.1: the search must keep the
        # bound itself, not stop an interval short of it
        r = optimize(ChannelSpec(distance_km=10.0, alpha_db_per_km=0.168), 1e10, 8,
                     fixed_p_s=0.07)
        assert r.mu_opt == SearchBounds().mu[1]


def _recorded(f):
    """f, and the list of (x, f(x)) it appends each evaluation to."""
    seen = []

    def rate_of(x):
        seen.append((x, f(x)))
        return seen[-1][1]
    return rate_of, seen


def _resolution(x, tol):
    """The search's step floor at x: tol / 3 + sqrt(eps) |x|."""
    return tol / 3.0 + math.sqrt(2.2e-16) * abs(x)


class TestBrentMax:
    TOL = 1e-9

    def _best(self, seen):
        return max(seen, key=lambda t: t[1])

    def test_concave_quadratic(self):
        rate_of, seen = _recorded(lambda x: 1.0 - (x - 0.7) ** 2)
        best = _brent_max(rate_of, -1.0, 2.0, self.TOL)
        x_best, f_best = self._best(seen)
        assert best == f_best
        assert abs(x_best - 0.7) <= 2.0 * _resolution(0.7, self.TOL)
        assert len(seen) < 15  # parabolic steps: golden-section alone takes 48

    def test_zero_plateau_on_one_side(self):
        # No key below x = 0.55, as past a cutoff; the first point lies there.
        rate_of, seen = _recorded(lambda x: max(0.0, 0.0625 - (x - 0.8) ** 2))
        best = _brent_max(rate_of, 0.0, 1.0, self.TOL)
        assert seen[0][1] == 0.0
        x_best, f_best = self._best(seen)
        assert best == f_best
        assert abs(x_best - 0.8) <= 2.0 * _resolution(0.8, self.TOL)

    def test_clipped_end_is_the_largest(self):
        rate_of, seen = _recorded(lambda x: x)
        best = _brent_max(rate_of, 0.0, 1.0, self.TOL, ends=(1.0,))
        assert seen[0] == (1.0, 1.0)  # the end is evaluated first
        assert all(x < 1.0 for x, _ in seen[1:])  # the steps only approach it
        assert best == 1.0

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: 1.0 - (x - 0.7) ** 2, -1.0, 2.0),
        (lambda x: max(0.0, 0.0625 - (x - 0.8) ** 2), 0.0, 1.0),
        (lambda x: x, 0.0, 1.0),
        (lambda x: math.sin(3.0 * x) * math.exp(-x), -0.5, 2.5),
        (lambda x: -abs(x - 0.123456), 0.0, 1.0),
    ])
    @pytest.mark.parametrize("tol", [1e-9, 3e-4])
    def test_same_points_as_fminbound(self, f, lo, hi, tol):
        # The scheme is scipy's fminbound on -f: the same points, in order.
        from scipy.optimize import fminbound

        rate_of, seen = _recorded(f)
        best = _brent_max(rate_of, lo, hi, tol)
        ref = []
        fminbound(lambda x: ref.append(float(x)) or -f(float(x)), lo, hi, xtol=tol)
        assert [x for x, _ in seen] == ref
        assert best == max(y for _, y in seen)


def _full_grid_search(channel, n_rounds, m_slices, fixed_p_s=None):
    """The search on the whole grid, kept here as the reference.

    Every grid point in mu-major order (the first maximum wins), then the
    bracket around it, the same Brent searches and the re-evaluation of the
    best point of the trace.  Returns (result, trace).
    """
    bounds = SearchBounds()
    trace = []

    def evaluate(mu, p_s):
        res = expected_key_rate(channel, mu, m_slices=m_slices, n_rounds=n_rounds,
                                p_s=p_s)
        trace.append((mu, p_s, res.rate))
        return res

    log_mu = _linspace(math.log10(bounds.mu[0]), math.log10(bounds.mu[1]),
                       GRID_SHAPE[0])
    mu_grid = [10.0 ** x for x in log_mu]
    ps_grid = ([fixed_p_s] if fixed_p_s is not None
               else _linspace(bounds.p_s[0], bounds.p_s[1], GRID_SHAPE[1]))
    best_i, best_j, best = 0, 0, None
    for i, mu in enumerate(mu_grid):
        for j, p_s in enumerate(ps_grid):
            res = evaluate(mu, p_s)
            if best is None or res.rate > best.rate:
                best_i, best_j, best = i, j, res
    if best.rate <= 0.0:
        return best, trace
    mu_lo, mu_hi, mu_ends = _bracket([math.log10(mu) for mu in mu_grid], best_i)
    if fixed_p_s is not None:
        _brent_max(lambda x: evaluate(10.0 ** x, fixed_p_s).rate,
                   mu_lo, mu_hi, LOG_MU_TOL)
    else:
        ps_lo, ps_hi, ps_ends = _bracket(ps_grid, best_j)
        _brent_max(
            lambda p: _brent_max(lambda x: evaluate(10.0 ** x, p).rate,
                                 mu_lo, mu_hi, CO_LOG_MU_TOL, mu_ends),
            ps_lo, ps_hi, PS_TOL, ps_ends)
    mu, p_s, _ = max(trace, key=lambda t: t[2])
    return expected_key_rate(channel, mu, m_slices=m_slices, n_rounds=n_rounds,
                             p_s=p_s), trace


# 0-70 dB in 5 dB steps: short-range optima on the mu = 0.1 bound, the
# cutoffs of every N, and points with no key beyond them.
SWEEP_LOSSES_DB = [5.0 * i for i in range(15)]


# The curves of the benchmark's curves workload: 33 points 10 km apart from
# 10 km plus an offset (halves keep the distances exact), alpha = 0.168 dB/km,
# p_s = 0.07, M = 8.
CURVE_OFFSETS_KM = [0.5 * i for i in range(20)]
CURVE_KM = [10.0 + 10.0 * k for k in range(33)]


def _cli_rows(argv):
    """The rows of the CSV a scan writes, as floats."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return [tuple(map(float, line.split(","))) for line in out.getvalue().splitlines()[1:]]


def _curve_argv(n_rounds, offset, m_slices=8, jobs=1):
    d_min = CURVE_KM[0] + offset
    return ["scan", "--d-min", repr(d_min), "--d-max", repr(CURVE_KM[-1] + offset),
            "--step", "10.0", "--n-rounds", n_rounds, "--m-slices", str(m_slices),
            "--p-s", "0.07", "--alpha", "0.168", "--jobs", str(jobs)]


def _cold_curve(n_rounds, offset, m_slices=8):
    """(distance, mu, p_s, rate) of a fresh optimize call at each curve point."""
    rows = []
    for d_km in CURVE_KM:
        channel = ChannelSpec(distance_km=d_km + offset, alpha_db_per_km=0.168)
        res = optimize(channel, float(n_rounds), m_slices, fixed_p_s=0.07).result
        rows.append((d_km + offset, res.mu, res.p_s, res.rate))
    return rows


class TestSameOptimumAsTheFullGrid:
    @pytest.mark.parametrize("m_slices", [6, 8])
    @pytest.mark.parametrize("n_rounds", [1e10, 1e12])
    @pytest.mark.parametrize("p_s", [0.01, 0.07])
    def test_fixed_p_s_sweep(self, m_slices, n_rounds, p_s):
        for loss_db in SWEEP_LOSSES_DB:
            channel = ChannelSpec(total_loss_db=loss_db)
            ref, _ = _full_grid_search(channel, n_rounds, m_slices, fixed_p_s=p_s)
            r = optimize(channel, n_rounds, m_slices, fixed_p_s=p_s)
            assert r.result == ref, loss_db
            assert r.feasible == (ref.rate > 0.0), loss_db

    @pytest.mark.parametrize("m_slices,n_rounds,loss_db", [
        (8, 1e11, 5.0),    # p_s and mu near their bounds
        (8, 1e12, 30.0),   # p_s on its lower bound
        (6, 1e12, 55.0),   # the hardest point of the co-optimization sweep
        (8, 1e10, 45.0),
        (6, 1e10, 60.0),   # no key
        (8, 1e8, 40.0),
    ])
    def test_co_optimized(self, m_slices, n_rounds, loss_db):
        channel = ChannelSpec(total_loss_db=loss_db)
        ref, _ = _full_grid_search(channel, n_rounds, m_slices)
        r = optimize(channel, n_rounds, m_slices)
        assert r.result == ref
        assert r.feasible == (ref.rate > 0.0)

    @pytest.mark.parametrize("fixed_p_s", [0.07, None])
    def test_infeasible_point_evaluates_each_grid_point_once(self, fixed_p_s):
        channel = ChannelSpec(total_loss_db=120.0)
        ref, grid = _full_grid_search(channel, 1e8, 8, fixed_p_s=fixed_p_s)
        r = optimize(channel, 1e8, 8, fixed_p_s=fixed_p_s)
        assert not r.feasible and r.result == ref
        assert len(set(grid)) == len(grid) == GRID_SHAPE[0] * (
            1 if fixed_p_s is not None else GRID_SHAPE[1])
        assert sorted(r.trace) == sorted(grid)

    # Each scan row is the optimum of a fresh optimize call at its point,
    # which the sweeps above pin to the full grid: how a scan reaches its
    # points, in order or in parallel, never moves a bit.
    @pytest.mark.parametrize("n_rounds", ["1e10", "1e11", "1e12"])
    def test_scan_benchmark_curves(self, n_rounds):
        for offset in CURVE_OFFSETS_KM:
            rows = _cli_rows(_curve_argv(n_rounds, offset))
            assert [(d, mu, ps, rate) for d, _, mu, ps, rate in rows] == \
                _cold_curve(n_rounds, offset), offset

    @pytest.mark.parametrize("n_rounds", ["1e10", "1e12"])
    def test_scan_six_slices(self, n_rounds):
        rows = _cli_rows(_curve_argv(n_rounds, 2.5, m_slices=6))
        assert [(d, mu, ps, rate) for d, _, mu, ps, rate in rows] == \
            _cold_curve(n_rounds, 2.5, m_slices=6)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_scan(self, jobs):
        # Through the cutoff of N = 1e10, so the last worker reaches points
        # with no key.
        rows = _cli_rows(_curve_argv("1e10", 7.5, jobs=jobs))
        assert [(d, mu, ps, rate) for d, _, mu, ps, rate in rows] == \
            _cold_curve("1e10", 7.5)

    @pytest.mark.parametrize("m_slices", [6, 8])
    def test_deviation_sweep(self, m_slices):
        # A loss sweep is a scan at one dB per km.
        rows = _cli_rows(["scan", "--alpha", "1", "--detail", "--m-slices", str(m_slices),
                          "--d-min", "10", "--d-max", "70", "--step", "2.5"])
        for _, loss_db, mu, *_ in rows:
            res = optimize(ChannelSpec(total_loss_db=loss_db), 1e11, m_slices,
                           fixed_p_s=0.07).result
            assert mu == res.mu, loss_db


class TestWarmStart:
    # A fixed-p_s call given the previous point's result climbs from its mu
    # instead of scanning the grid; the scan-level sweeps above hold it to
    # the fresh optimum.  These pin when it falls back to the scan.
    def _channel(self, km):
        return ChannelSpec(distance_km=km, alpha_db_per_km=0.168)

    def test_neighbour_saves_evaluations(self):
        previous = optimize(self._channel(120.0), 1e11, 8, fixed_p_s=0.07)
        cold = optimize(self._channel(130.0), 1e11, 8, fixed_p_s=0.07)
        warm = optimize(self._channel(130.0), 1e11, 8, fixed_p_s=0.07,
                        previous=previous)
        assert warm.result == cold.result
        assert warm.evaluations < cold.evaluations - 15

    def test_after_a_point_without_a_key_starts_cold(self):
        previous = optimize(ChannelSpec(total_loss_db=120.0), 1e8, 8, fixed_p_s=0.07)
        assert not previous.feasible
        channel = ChannelSpec(total_loss_db=45.0)
        warm = optimize(channel, 1e11, 8, fixed_p_s=0.07, previous=previous)
        assert warm.trace == optimize(channel, 1e11, 8, fixed_p_s=0.07).trace

    def test_climb_without_a_key_scans_the_whole_row(self):
        # From 10 dB onto 120 dB: the climb ends without a key, so every grid
        # point is evaluated, each once, and the point is reported infeasible.
        previous = optimize(ChannelSpec(total_loss_db=10.0), 1e11, 8, fixed_p_s=0.07)
        assert previous.feasible
        channel = ChannelSpec(total_loss_db=120.0)
        cold = optimize(channel, 1e11, 8, fixed_p_s=0.07)
        warm = optimize(channel, 1e11, 8, fixed_p_s=0.07, previous=previous)
        assert warm.result == cold.result and not warm.feasible
        assert len(warm.trace) == len(set(warm.trace)) == GRID_SHAPE[0]
        assert sorted(warm.trace) == sorted(cold.trace)

    def test_co_optimization_ignores_previous(self):
        previous = optimize(ChannelSpec(total_loss_db=40.0), 1e11, 8, fixed_p_s=0.07)
        channel = ChannelSpec(total_loss_db=42.0)
        warm = optimize(channel, 1e11, 8, previous=previous)
        assert warm.trace == optimize(channel, 1e11, 8).trace

    def test_co_optimized_scan_unchanged(self):
        rows = _cli_rows(["scan", "--d-min", "100", "--d-max", "120", "--step", "10",
                          "--n-rounds", "1e11", "--optimize-ps"])
        for d_km, _, mu, p_s, rate in rows:
            res = optimize(self._channel(d_km), 1e11, 8).result
            assert (mu, p_s, rate) == (res.mu, res.p_s, res.rate), d_km


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
