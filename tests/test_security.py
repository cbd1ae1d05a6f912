"""Bound-chain tests.

Frozen values come from mpmath evaluations at 60 digits; composition tests
rebuild the chains from their closed forms inside the test so the oracle
never shares code with the implementation.
"""

import dataclasses
import functools
import inspect
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import pmqkd
from pmqkd.channel import ChannelSpec, expected_sifted, gain, qber, transmittance
from pmqkd import security
from pmqkd.errors import DomainError
from pmqkd.ingest import (
    ExperimentRecord,
    derive_observables,
    load_bundled_record,
    reproduce_key_rate,
)
from pmqkd.numerics import binary_entropy, pseudo_fock_weight_ub
from pmqkd.optimizer import optimize
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import (
    KATO_N_MAX,
    KatoCoefficients,
    SecurityBudget,
    chernoff_expected_ub,
    chernoff_observed_ub,
    compose_epsilons,
    deviation_bound,
    finite_key_rate,
    kato_correction,
    kato_epsilon,
    key_length,
    phase_error_discrete,
    vacuum_yield_ub,
)
from pmqkd.simulator import ObservedTally, ProtocolParams, simulate

mp.mp.dps = 60

EPS = 0.5e-20
BETA = math.log(1 / EPS)


class TestChernoff:
    def test_expected_at_zero_is_2beta(self):
        assert chernoff_expected_ub(0.0, EPS) == 2 * BETA

    def test_observed_at_zero_is_beta(self):
        assert chernoff_observed_ub(0.0, EPS) == BETA

    def test_expected_reference_value(self):
        # frozen: 100 + b + sqrt(200 b + b^2), b = ln(2e20):
        # 254.14154694080358934...
        assert chernoff_expected_ub(100, EPS) == pytest.approx(
            254.14154694080359, rel=1e-14
        )

    def test_observed_reference_value(self):
        # frozen: 1e4 + b/2 + sqrt(2e4 b + b^2/4), b = ln(1e10):
        # 10690.22462129138745...
        assert chernoff_observed_ub(1e4, 1e-10) == pytest.approx(
            10690.224621291387, rel=1e-12
        )

    def test_observed_below_expected_on_positive_grid(self):
        for x in [1e-6, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12]:
            assert chernoff_observed_ub(x, EPS) < chernoff_expected_ub(x, EPS)

    def test_relative_overhead_vanishes(self):
        ratios = [chernoff_expected_ub(x, EPS) / x for x in (1e3, 1e6, 1e9, 1e12)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_domain_eps(self, eps):
        with pytest.raises(DomainError):
            chernoff_expected_ub(1.0, eps)

    def test_domain_x(self):
        with pytest.raises(DomainError):
            chernoff_expected_ub(-1.0, EPS)


class TestVacuumYield:
    def test_zero_errors_composition(self):
        # m_s = 0: the chain collapses to closed forms composed by hand
        p_s, n, mu = 0.07, 1e11, 1e-3
        expected = chernoff_observed_ub(2 * (0.93 / 0.07) * 2 * BETA, EPS) / (
            n * (1 - p_s) * math.exp(-mu)
        )
        assert vacuum_yield_ub(0, p_s, n, mu, EPS) == pytest.approx(
            expected, rel=1e-14
        )

    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_ms(self, m_s):
        y0 = vacuum_yield_ub(m_s, 0.07, 1e11, 1e-3, EPS)
        y1 = vacuum_yield_ub(m_s + 1, 0.07, 1e11, 1e-3, EPS)
        assert y1 >= y0

    def test_clamped_to_one(self):
        assert vacuum_yield_ub(1e12, 0.07, 1e6, 1e-3, EPS) == 1.0

    def test_finite_size_corrections_vanish(self):
        # at a fixed error *rate*, Y0 approaches twice the sifted error rate
        # divided by e^-mu; the gap shrinks like 1/sqrt(N)
        rate = 1e-3
        p_s, mu = 0.07, 1e-3
        gaps = []
        for n in (1e6, 1e9, 1e12):
            m_s = rate * n * p_s
            y0 = vacuum_yield_ub(m_s, p_s, n, mu, EPS)
            asym = 2 * rate / math.exp(-mu)
            gaps.append(y0 / asym - 1.0)
        assert gaps[0] > gaps[1] > gaps[2] > 0
        # ~1/sqrt(N) scaling once the sqrt term dominates: 1000x in N
        # shrinks the gap ~sqrt(1000)
        assert gaps[1] / gaps[2] == pytest.approx(math.sqrt(1e3), rel=0.5)

    def test_requires_sampling(self):
        with pytest.raises(DomainError):
            vacuum_yield_ub(10, 0.0, 1e11, 1e-3, EPS)


def _continuous(mu, q_mu, y0_bar):
    """The continuous-randomization bound: the even-photon terms of the discrete one."""
    bd = phase_error_discrete(mu, 8, q_mu, y0_bar)
    return bd.vacuum_term + bd.multiphoton_term


class TestPhaseErrorContinuous:
    def test_vacuum_explains_everything(self):
        assert _continuous(0.0, 1e-3, 1e-3) == 1.0

    def test_multiphoton_only_matches_oracle(self):
        # frozen: (e^-2mu + 1 - 2 e^-mu) / 2 at mu = 3.2e-3
        # = 5.1036465415698143024e-6 (mpmath)
        q = 3.0e-6
        bd = phase_error_discrete(3.2e-3, 8, q, 0.0)
        assert bd.vacuum_term == 0.0
        assert bd.multiphoton_term == pytest.approx(5.1036465415698143e-6 / q, rel=1e-10)

    def test_small_mu_series(self):
        # numerator ~ mu^2 to first order
        mu, q = 1e-3, 1.0
        ep = _continuous(mu, q, 0.0)
        assert ep == pytest.approx(mu * mu / 2, rel=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError, match="phase error: q_mu must be finite and > 0"):
            phase_error_discrete(1e-3, 8, 0.0, 0.0)


class TestDeviationBound:
    def test_zero_at_mu_zero(self):
        for m in (6, 8):
            for k in range(0, m, 2):
                assert deviation_bound(0.0, m, k, 1e-5) == 0.0

    def test_decreasing_in_m(self):
        for k in (0, 2, 4):
            assert deviation_bound(1e-3, 8, k, 1e-5) < deviation_bound(
                1e-3, 6, k, 1e-5
            )

    def test_matches_closed_form(self):
        mu, m, k, q = 2e-3, 8, 2, 1e-5
        from pmqkd.numerics import pseudo_fock_weight_ub

        expected = (
            pseudo_fock_weight_ub(mu, m, k)
            / q
            * math.sqrt(math.factorial(k) * mu**m / math.factorial(m + k))
        )
        assert deviation_bound(mu, m, k, q) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m,k", [(10, 0), (8, 1), (8, 8), (6, 6), (16, 2)])
    def test_domain(self, m, k):
        with pytest.raises(DomainError):
            deviation_bound(1e-3, m, k, 1e-5)

    @pytest.mark.parametrize("m", [6, 8])
    def test_bit_identical_to_direct_expression(self, m):
        # The cached factors must round exactly as the bound written out does:
        # P_ub(k) / Q times mu^(M/2) sqrt(k! / (M+k)!).
        q = 3e-6
        for i in range(60):
            mu = 10 ** (-6 + 6.5 * i / 59)
            direct = [
                (pseudo_fock_weight_ub(mu, m, k) / q) * (
                    mu ** (m // 2) * math.sqrt(math.factorial(k) / math.factorial(m + k)))
                for k in range(0, m, 2)
            ]
            assert [deviation_bound(mu, m, k, q) for k in range(0, m, 2)] == direct
            assert list(phase_error_discrete(mu, m, q, 1e-6).deviations) == direct

    def test_integral_float_k_is_the_int(self):
        # deviation_bound(1e-3, 8, 2.0, 1e-5) once raised TypeError
        assert deviation_bound(1e-3, 8, 2.0, 1e-5) == deviation_bound(1e-3, 8, 2, 1e-5)

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_non_integral_k_rejected(self, k):
        with pytest.raises(DomainError, match=r"\bk must be an integer"):
            deviation_bound(1e-3, 8, k, 1e-5)

    def test_factors_within_four_ulps_of_60_digits(self):
        # Each delta_k = (P_ub(k) / Q) * sqrt(k! mu^M / (M+k)!) over mu in
        # [1e-12, 700], against the 60-digit product of pseudo_fock_weight_ub's
        # tail and the exact factor.
        rng = random.Random(21)
        top = math.log10(700.0)  # 10 ** top rounds above it, so clip
        mus = [min(10 ** (-12 + (top + 12) * i / 399), 700.0) for i in range(400)]
        mus += [min(10 ** rng.uniform(-12, top), 700.0) for _ in range(400)]
        q_mu = 3.7e-6
        for mu in [*mus, 1e-12, 0.5, 1.0, 700.0]:
            for m in (6, 8):
                deviations = security._deviations(mu, m, q_mu)
                assert len(deviations) == m // 2
                for k, delta in zip(range(0, m, 2), deviations):
                    exact = (mp.mpf(pseudo_fock_weight_ub(mu, m, k)) / mp.mpf(q_mu)
                             * mp.sqrt(mp.factorial(k) * mp.mpf(mu) ** m / mp.factorial(m + k)))
                    assert abs(delta / exact - 1) <= 4 * 2.0 ** -52, (mu, m, k)


@pytest.mark.parametrize("call", [
    "phase_error_discrete({mu}, 8, 1e-5, 1e-6)",
    "deviation_bound({mu}, 8, 2, 1e-5)",
])
@pytest.mark.parametrize("mu", ["nan", "inf", "-1e-3"])
def test_bad_intensity_rejected(call, mu):
    # NaN once looped forever in the tail series, so each case runs in its
    # own process under a time limit.
    code = (
        "from pmqkd.errors import DomainError\n"
        "from pmqkd.security import deviation_bound, phase_error_discrete\n"
        "try:\n"
        f"    {call.format(mu=f'float({mu!r})')}\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "mu must be" in proc.stdout
    assert f"got {float(mu)}" in proc.stdout


@pytest.mark.parametrize("call", [
    "vacuum_yield_ub(100.0, 0.07, 1e11, {mu}, 1e-10)",
    "phase_error_discrete({mu}, 8, 1e-5, 1e-6)",
    "deviation_bound({mu}, 8, 0, 1e-5)",
])
@pytest.mark.parametrize("mu", ["800.0", "1e12"])
def test_large_intensity_rejected_within_a_second(call, mu):
    # e^-mu underflows to 0 past mu ~ 745: the vacuum bound divided by it,
    # and the tail series stepped ~mu/2 times.  Each case runs in its own
    # process under a time limit.
    code = (
        "import time\n"
        "from pmqkd.errors import DomainError\n"
        "from pmqkd.security import deviation_bound, phase_error_discrete, "
        "vacuum_yield_ub\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        f"    {call.format(mu=mu)}\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    message, elapsed = proc.stdout.splitlines()
    assert message.endswith(f"mu must be finite and in [0, 700], got {float(mu)}")
    assert float(elapsed) < 1.0


class TestPhaseErrorDiscrete:
    def test_reduces_to_continuous_at_mu_zero(self):
        bd = phase_error_discrete(0.0, 8, 1e-3, 1e-4)
        assert bd.deviations == (0.0, 0.0, 0.0, 0.0)
        assert bd.multiphoton_term == 0.0
        assert bd.ep_m == bd.vacuum_term == 1e-4 / 1e-3

    def test_k_sets_per_m(self):
        assert len(phase_error_discrete(1e-3, 8, 1e-5, 0.0).deviations) == 4
        assert len(phase_error_discrete(1e-3, 6, 1e-5, 0.0).deviations) == 3

    def test_m6_at_least_m8(self):
        for mu in (1e-4, 1e-3, 1e-2):
            ep6 = phase_error_discrete(mu, 6, 1e-5, 1e-6).ep_m
            ep8 = phase_error_discrete(mu, 8, 1e-5, 1e-6).ep_m
            assert ep6 >= ep8

    def test_difference_bounded_by_m6_deviations(self):
        # at equal inputs the rates differ only through the deviation sums
        mu, q, y0 = 2e-3, 1e-5, 1e-6
        bd6 = phase_error_discrete(mu, 6, q, y0)
        bd8 = phase_error_discrete(mu, 8, q, y0)
        diff = bd6.ep_m - bd8.ep_m
        assert 0 <= diff <= sum(bd6.deviations)

    def test_terms_sum(self):
        bd = phase_error_discrete(2e-3, 8, 1e-5, 1e-6)
        assert bd.ep_m == pytest.approx(
            bd.vacuum_term + bd.multiphoton_term + sum(bd.deviations), rel=1e-14
        )

    @pytest.mark.parametrize("y0_bar", [-1e-7, -math.inf, math.nan])
    def test_negative_vacuum_yield_rejected(self, y0_bar):
        # y0_bar = -1e-7 once lowered ep_m by 20% against y0_bar = 0.
        with pytest.raises(DomainError, match="phase_error_discrete: y0_bar must be >= 0"):
            phase_error_discrete(1e-3, 8, 3e-6, y0_bar)


class TestKato:
    def test_symmetric_lambda_drops_a1_term(self):
        # at lambda = n/2 the (n - 2 lambda) a1 term vanishes from a
        n, eps_ka = 10**6, 1e-10
        coeffs = kato_correction(n, n / 2, eps_ka)
        le = math.log(eps_ka)
        num = 3 * (
            72 * math.sqrt(n) * (n / 2) * (n / 2) * le
            - 16 * n**1.5 * le * le
        )
        den = 4 * (9 * n - 8 * le) * (9 * (n / 2) * (n / 2) - 2 * n * le)
        assert coeffs.a == pytest.approx(num / den, rel=1e-12)

    def test_self_consistency(self):
        # plugging (a, b) back into the bound recovers eps_ka
        coeffs = kato_correction(1e6, 1e3, 1e-10)
        assert kato_epsilon(coeffs) == pytest.approx(1e-10, rel=1e-6)

    def test_self_consistency_random(self):
        rng = random.Random(12345)
        for _ in range(100):
            n = rng.randint(10**3, 10**9)
            lam = rng.uniform(1e-4, 0.9999) * n
            eps_ka = 10 ** rng.uniform(-25, -2)
            coeffs = kato_correction(n, lam, eps_ka)
            assert kato_epsilon(coeffs) == pytest.approx(eps_ka, rel=1e-6)

    def test_b_dominates_a(self):
        for lam_frac in (1e-3, 0.1, 0.5, 0.9):
            c = kato_correction(1e7, lam_frac * 1e7, 1e-10)
            assert c.b * c.b >= c.a * c.a

    def test_relative_correction_vanishes(self):
        fracs = []
        for n in (1e4, 1e6, 1e8):
            c = kato_correction(n, 0.1 * n, 1e-10)
            fracs.append(c.delta / n)
        assert fracs[0] > fracs[1] > fracs[2] > 0

    def test_minimizer(self):
        # perturbing a away from the closed form can only increase delta
        n, lam, eps_ka = 91781, 12464.0, 1e-10
        c = kato_correction(n, lam, eps_ka)
        le = math.log(eps_ka)

        def delta_at(a):
            b = math.sqrt(
                18 * a * a * n - (16 * a * a + 24 * a * math.sqrt(n) + 9 * n) * le
            ) / (3 * math.sqrt(2 * n))
            return (b + a * (2 * lam / n - 1)) * math.sqrt(n)

        for da in (-0.05, -0.005, 0.005, 0.05):
            assert delta_at(c.a + da) >= c.delta - 1e-9

    @pytest.mark.parametrize(
        "n,lam,eps_ka",
        [(0, 0, 1e-10), (10, 11, 1e-10), (10, -1, 1e-10), (10, 5, 0.0), (10, 5, 1.0)],
    )
    def test_domain(self, n, lam, eps_ka):
        with pytest.raises(DomainError):
            kato_correction(n, lam, eps_ka)


def _lifted(n_mu, ep_m, eps_ka):
    """The chain's Kato lift by hand: ep_m + delta(n, n ep_m, eps_ka) / n."""
    return ep_m + kato_correction(n_mu, n_mu * ep_m, eps_ka).delta / n_mu


class TestPhaseErrorFinal:
    """The Kato lift of the chain: ep_m_bar = ep_m + delta(n, n ep_m, eps_ka) / n."""

    def test_composition(self):
        res = finite_key_rate(**dict(_GOOD, n_mu=91781.0), budget=SecurityBudget())
        coeffs = kato_correction(res.n_mu, res.n_mu * res.ep_m, res.budget.eps_ka)
        assert res.ep_m_bar == pytest.approx(
            res.ep_m + coeffs.delta / res.n_mu, rel=1e-14
        )

    def test_never_below_input(self):
        for ep in (0.0, 0.01, 0.3, 0.5):
            assert kato_correction(1e6, 1e6 * ep, 1e-10).delta >= 0.0

    def test_correction_shrinks_with_n(self):
        # ep_m does not depend on n_mu, so the gap is delta / n alone
        gaps = []
        for n_mu in (1e4, 1e6, 1e8):
            res = finite_key_rate(**dict(_GOOD, n_mu=n_mu), budget=SecurityBudget())
            gaps.append(res.ep_m_bar - res.ep_m)
        assert gaps[0] > gaps[1] > gaps[2] > 0


class TestKeyLength:
    def test_max_phase_error_kills_key(self):
        ell, rate = key_length(1e5, 0.5, 0.01, 1.16, SecurityBudget(), 1e11)
        assert ell == 0.0 and rate == 0.0

    def test_never_exceeds_n(self):
        budget = SecurityBudget()
        for ep in (0.0, 0.1, 0.3):
            for eb in (0.0, 0.01, 0.1):
                ell, _ = key_length(1e5, ep, eb, 1.16, budget, 1e11)
                assert ell <= 1e5

    def test_asymptotic_bracket(self):
        # with finite-size terms removed the formula is the plain bracket
        n_mu, ep, eb, f = 1e6, 0.05, 0.01, 1.16
        budget = SecurityBudget()
        ell, _ = key_length(n_mu, ep, eb, f, budget, 1e11)
        bracket = n_mu * (1 - binary_entropy(ep) - f * binary_entropy(eb))
        assert ell == pytest.approx(
            bracket - budget.xi - budget.xi_prime, rel=1e-12
        )

    @pytest.mark.parametrize("f", [0.5, 0.999, -1.0])
    def test_efficiency_below_shannon_limit_rejected(self, f):
        # f = 0.5 once gave a key 8.6% longer than f = 1.16 did.
        with pytest.raises(DomainError, match=r"key_length: f must be finite and >= 1 "
                                              r"\(the Shannon limit\), got"):
            key_length(7e4, 0.05, 0.01, f, SecurityBudget(), 1e11)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_nonnegative(self, ep, eb):
        ell, rate = key_length(1e5, ep, eb, 1.16, SecurityBudget(), 1e11)
        assert ell >= 0.0 and rate >= 0.0


class TestComposeEpsilons:
    def test_reference_budget(self):
        # eps = 0.5e-20 with 2^-xi = 1e-20 composes to the declared values
        budget = SecurityBudget(
            eps=0.5e-20, eps_ka=1e-10, xi=math.log2(1e20), xi_prime=math.log2(1e15)
        )
        eps_sec, eps_cor, eps_tot = compose_epsilons(budget)
        assert eps_sec == pytest.approx(2e-10, rel=1e-9)
        assert eps_cor == pytest.approx(1e-15, rel=1e-9)
        assert eps_tot == pytest.approx(3e-10, abs=2e-15)

    def test_correctness_dominates_limit(self):
        budget = SecurityBudget(eps=1e-300, eps_ka=1e-300, xi=2000.0, xi_prime=50.0)
        eps_sec, eps_cor, eps_tot = compose_epsilons(budget)
        assert eps_tot == pytest.approx(2.0**-50, rel=1e-9)

    def test_monotone_in_components(self):
        base = SecurityBudget()
        assert SecurityBudget(eps=1e-19).eps_tot > base.eps_tot
        assert SecurityBudget(eps_ka=1e-9).eps_tot > base.eps_tot
        assert SecurityBudget(xi=base.xi - 5).eps_tot > base.eps_tot
        assert SecurityBudget(xi_prime=base.xi_prime - 5).eps_tot > base.eps_tot

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            SecurityBudget(eps=0.0)
        with pytest.raises(DomainError):
            SecurityBudget(eps_ka=1.0)
        with pytest.raises(DomainError):
            SecurityBudget(xi=-1.0)
        for field in ("xi", "xi_prime"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError, match=field):
                    SecurityBudget(**{field: value})


class TestWorstCaseSoundness:
    def test_two_photon_toy_model(self):
        # Toy source emitting only 0 or 2 photons with exact known yields.
        # The bound (worst case: unit yield above vacuum) must dominate the
        # true phase error fraction q0 + q2 for any yields in [0, 1].
        mu = 0.05
        p0, p2 = math.exp(-mu), mu**2 / 2 * math.exp(-mu)
        for y0 in (1e-6, 1e-3, 0.1):
            for y2 in (0.0, 0.2, 1.0):
                q = p0 * y0 + p2 * y2
                if q == 0:
                    continue
                true_ep = (p0 * y0 + p2 * y2) / q  # = 1 here: all-even source
                bound = _continuous(mu, q, y0)
                assert bound >= true_ep - 1e-12

    def test_partial_even_weight_toy(self):
        # mixed toy: vacuum plus a 2-photon slice of a Poisson source; odd
        # components click too, so the even fraction is below one and the
        # closed-form bound must still dominate it.
        mu = 0.05
        p0 = math.exp(-mu)
        p2 = mu**2 / 2 * math.exp(-mu)
        y0, y2, y_odd = 1e-4, 0.8, 0.5
        p_odd = 1.0 - p0 - p2
        q = p0 * y0 + p2 * y2 + p_odd * y_odd
        true_even_fraction = (p0 * y0 + p2 * y2) / q
        assert _continuous(mu, q, y0) >= true_even_fraction


class TestFiniteKeyRate:
    def test_bound_chain_monotonicity(self):
        # more observed errors never loosens the chain
        budget = SecurityBudget()
        rates, eps_ = [], []
        for m_s in (0, 10, 100, 1000):
            res = finite_key_rate(
                mu=1e-3, m_slices=8, n_rounds=1e11, p_s=0.07, f=1.16,
                q_mu=3e-6, e_b=0.01, n_mu=7e4, m_s=m_s, budget=budget,
            )
            rates.append(res.ell)
            eps_.append(res.ep_m_bar)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(a <= b for a, b in zip(eps_, eps_[1:]))

    @pytest.mark.parametrize("n_rounds", [math.nan, math.inf])
    def test_non_finite_rounds_rejected(self, n_rounds):
        # Once this surfaced as a binary_entropy error that named no input.
        with pytest.raises(DomainError, match="n_rounds must be finite"):
            expected_key_rate(ChannelSpec(total_loss_db=45.0), 1e-3,
                              n_rounds=n_rounds)

    @pytest.mark.parametrize("n_rounds", [0.0, -1.0])
    def test_non_positive_rounds_rejected(self, n_rounds):
        # The chain checks n_rounds first, before any stage that reads it.
        with pytest.raises(DomainError, match="n_rounds must be positive"):
            finite_key_rate(
                mu=1e-3, m_slices=8, n_rounds=n_rounds, p_s=0.07, f=1.16,
                q_mu=3e-6, e_b=0.01, n_mu=0.0, m_s=0.0, budget=SecurityBudget(),
            )

    @pytest.mark.parametrize("p_s", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_sampling_fraction_outside_unit_interval_rejected(self, p_s):
        # p_s = 1 once divided by zero in the expected sampled errors.
        with pytest.raises(DomainError, match=r"expected_key_rate: p_s must be in \(0, 1\)"):
            expected_key_rate(ChannelSpec(total_loss_db=45.0), 1e-3, p_s=p_s)

    @pytest.mark.parametrize("m_slices", [0, 4, 16])
    def test_slice_count_checked_before_the_sifted_size(self, m_slices):
        # The chain's rule for M, ahead of the pipeline's division by M.
        with pytest.raises(DomainError, match=f"phase_error_discrete: m_slices must be "
                                              f"6 or 8, got {m_slices}"):
            expected_key_rate(ChannelSpec(total_loss_db=45.0), 1e-3, m_slices=m_slices)

    def test_degenerate_inputs_zero_rate(self):
        res = finite_key_rate(
            mu=1e-3, m_slices=8, n_rounds=1e6, p_s=0.07, f=1.16,
            q_mu=1e-9, e_b=0.0, n_mu=0.1, m_s=0, budget=SecurityBudget(),
        )
        assert res.rate == 0.0 and res.ell == 0.0

    @pytest.mark.parametrize("n_mu", [0.0, 0.5, 0.999])
    def test_fewer_than_one_sifted_bit_never_has_a_key(self, n_mu):
        # Without the Kato lift ep_m_bar is capped up to 0.5, so ell <= -xi - xi'
        # even for a tiny budget; ep_m_bar = ep_m (0.186) would leave 0.15 bit.
        res = finite_key_rate(**dict(_GOOD, f=1.0, e_b=0.0, n_mu=n_mu),
                              budget=SecurityBudget(xi=1e-3, xi_prime=1e-3))
        assert res.ep_m < 0.5
        assert res.kato is None and res.breakdown.kato_delta == 0.0
        assert (res.ep_m_bar, res.ell, res.rate) == (0.5, 0.0, 0.0)

    def test_overflowed_phase_error_has_no_key(self):
        # A gain near the smallest double overflows the vacuum term and makes
        # a deviation inf * 0: ep_m is NaN, past 1 like an inf, so no lift.
        res = finite_key_rate(**dict(_GOOD, mu=1e-300, q_mu=5e-324),
                              budget=SecurityBudget())
        assert math.isnan(res.ep_m) and res.kato is None
        assert (res.ep_m_bar, res.rate) == (0.5, 0.0)

    def test_phase_error_above_one_short_circuits(self):
        res = finite_key_rate(
            mu=1e-2, m_slices=8, n_rounds=1e6, p_s=0.07, f=1.16,
            q_mu=1e-9, e_b=0.0, n_mu=10, m_s=0, budget=SecurityBudget(),
        )
        assert res.rate == 0.0
        assert res.kato is None
        assert res.ep_m_bar == res.ep_m > 1.0

    def test_audit_fields_consistent(self):
        res = finite_key_rate(
            mu=1e-3, m_slices=8, n_rounds=1e11, p_s=0.07, f=1.16,
            q_mu=3e-6, e_b=0.007, n_mu=9e4, m_s=49, budget=SecurityBudget(),
        )
        assert res.ep_m == pytest.approx(
            res.breakdown.vacuum_term
            + res.breakdown.multiphoton_term
            + sum(res.breakdown.deviations),
            rel=1e-14,
        )
        assert res.ep_m_bar == pytest.approx(
            res.ep_m + res.kato.delta / res.n_mu, rel=1e-12
        )
        assert res.kato.lambda_n == pytest.approx(res.n_mu * res.ep_m, rel=1e-14)
        d = res.to_dict()
        assert d["eps_sec"] == res.budget.eps_sec
        assert d["ep_m_bar"] == res.ep_m_bar


def _chain_results():
    """The bundled records and a 10-point intensity grid at 40 dB."""
    cases = [(f"bundled-{loss}", reproduce_key_rate(load_bundled_record(loss)))
             for loss in (35, 40, 45)]
    channel = ChannelSpec(total_loss_db=40.0)
    cases += [(f"mu={mu:.3e}", expected_key_rate(channel, float(mu)))
              for mu in np.logspace(-4, -2, 10)]
    return cases


CHAIN_RESULTS = _chain_results()


class TestSharedPaths:
    """The public stage functions and the full chain give the same floats."""

    @pytest.mark.parametrize("res", [r for _, r in CHAIN_RESULTS],
                             ids=[name for name, _ in CHAIN_RESULTS])
    def test_final_phase_error_matches_chain(self, res):
        assert res.ep_m <= 1.0
        kato = kato_correction(res.n_mu, res.n_mu * res.ep_m, res.budget.eps_ka)
        assert res.breakdown.kato_delta == kato.delta
        assert res.breakdown.ep_m_bar == (res.n_mu * res.ep_m + kato.delta) / res.n_mu

    @pytest.mark.parametrize("res", [r for _, r in CHAIN_RESULTS],
                             ids=[name for name, _ in CHAIN_RESULTS])
    def test_even_photon_terms_match_continuous(self, res):
        # e^-mu Y0 / Q and (1 - e^-mu)^2 / (2 Q), written out; the chain's
        # multiphoton numerator carries an absolute error of ~2^-52.
        b = res.breakdown
        assert b.vacuum_term == pytest.approx(
            math.exp(-res.mu) * res.y0_bar / res.q_mu, rel=1e-15)
        assert abs(b.multiphoton_term - math.expm1(-res.mu) ** 2 / (2 * res.q_mu)) <= \
            2.0 ** -51 / res.q_mu

    @pytest.mark.parametrize("res", [r for _, r in CHAIN_RESULTS],
                             ids=[name for name, _ in CHAIN_RESULTS])
    def test_stages_match_chain(self, res):
        # The chain calls the stages' kernels; the stages check, then call them.
        budget = res.budget
        assert res.y0_bar == vacuum_yield_ub(res.m_s, res.p_s, res.n_rounds, res.mu,
                                             budget.eps)
        assert res.breakdown[:4] == phase_error_discrete(res.mu, res.m_slices,
                                                         res.q_mu, res.y0_bar)[:4]
        assert res.kato == kato_correction(
            res.n_mu, min(res.n_mu * res.ep_m, res.n_mu), budget.eps_ka)
        assert (res.ell, res.rate) == key_length(res.n_mu, res.ep_m_bar, res.e_b,
                                                 res.f, budget, res.n_rounds)

    @pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-3, 0.1, 5.0])
    @pytest.mark.parametrize("loss_db", [0.0, 40.0, 90.0])
    def test_pipeline_matches_channel_stages(self, mu, loss_db):
        channel = ChannelSpec(total_loss_db=loss_db)
        res = expected_key_rate(channel, mu, m_slices=6, n_rounds=1e10, p_s=0.3)
        eta = transmittance(channel)
        assert res.q_mu == gain(mu, eta, channel.p_d)
        assert res.e_b == qber(mu, eta, channel.p_d, channel.e_d)
        assert res.n_mu == expected_sifted(res.q_mu, 1e10, 6, 0.3)


def _mp_entropy(x):
    if x <= 0 or x >= 1:
        return mp.mpf(0)
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def _mp_even_tail(mu, k):
    """sum over n = k, k+2, ... of e^-mu mu^n / n!, to 70 digits."""
    total, n = mp.mpf(0), k
    while True:
        term = mp.exp(-mu) * mu**n / mp.factorial(n)
        total += term
        if term < mp.mpf(10) ** -70 * total:
            return total
        n += 2


def _mp_chain(mu, m_slices, n_rounds, p_s, q_mu, e_b, n_mu, m_s):
    """(y0_bar, ep_m, ep_m_bar, R) of the chain, from the formulas of
    benchmarks/oracle.py, at 60 digits with the default budget and f = 1.16."""
    mu, n_rounds, p_s, q_mu, e_b, n_mu, m_s = (
        mp.mpf(v) for v in (mu, n_rounds, p_s, q_mu, e_b, n_mu, m_s))
    eps, eps_ka, f = mp.mpf("0.5e-20"), mp.mpf("1e-10"), mp.mpf("1.16")
    beta = mp.log(1 / eps)
    m_s_up = m_s + beta + mp.sqrt(2 * beta * m_s + beta**2)
    n0 = 2 * (1 - p_s) / p_s * m_s_up
    n0_up = n0 + beta / 2 + mp.sqrt(2 * beta * n0 + beta**2 / 4)
    y0 = min(n0_up / (n_rounds * (1 - p_s) * mp.exp(-mu)), mp.mpf(1))
    ep = (mp.exp(-mu) * y0 + (1 - mp.exp(-mu)) ** 2 / 2) / q_mu
    for k in range(0, m_slices, 2):
        ep += _mp_even_tail(mu, k) / q_mu * mp.sqrt(
            mp.factorial(k) * mu**m_slices / mp.factorial(m_slices + k))
    n, lam, log_e = n_mu, min(n_mu * ep, n_mu), mp.log(eps_ka)
    core = 9 * lam * (n - lam) - 2 * n * log_e
    a1 = mp.sqrt(-(n * n) * log_e * core)
    a = 3 * (72 * mp.sqrt(n) * lam * (n - lam) * log_e
             - 16 * n * mp.sqrt(n) * log_e**2
             + 9 * mp.sqrt(2) * (n - 2 * lam) * a1) / (4 * (9 * n - 8 * log_e) * core)
    b = mp.sqrt(18 * a * a * n - (16 * a * a + 24 * a * mp.sqrt(n) + 9 * n) * log_e) / (
        3 * mp.sqrt(2 * n))
    ep_bar = ep + (b + a * (2 * lam / n - 1)) * mp.sqrt(n) / n
    ell = n * (1 - _mp_entropy(min(ep_bar, mp.mpf("0.5"))) - f * _mp_entropy(e_b))
    ell -= mp.log(mp.mpf(10) ** 20, 2) + mp.log(mp.mpf(10) ** 15, 2)
    return y0, ep, ep_bar, max(ell, mp.mpf(0)) / n_rounds


def _mp_gain_qber(distance_km, mu):
    """(Q, E_b) of the closed-form channel at the default detector, 60 digits."""
    eta = mp.mpf("0.56") * mp.power(10, -mp.mpf("0.168") * distance_km / 20)
    p_d, e_d, mu = mp.mpf("1e-8"), mp.mpf("0.01"), mp.mpf(mu)
    s = 1 - mp.exp(-mu * eta)
    q = (1 - p_d) * (s + 2 * p_d * (1 - s))
    num = e_d * (1 - p_d) * (1 - (1 - p_d) * (1 - s)) + (1 - e_d) * p_d * (1 - p_d) * (1 - s)
    return q, num / q


# finite_key_rate's inputs (mu, M, N, p_s, Q, E_b, n_mu, m_s) at the three
# bundled records (reproduce --bundled) and at the 305 and 328 km rows of the
# criterion-3a table in docs/DECISIONS.md (N = 1e12, p_s = 0.07, M = 8,
# mu_opt), with the frozen (y0_bar, ep_m, ep_m_bar, R) of _mp_chain at 60
# digits.
CHAIN_POINTS = {
    "bundled-35": ((0.0032, 8, 1e11, 0.07, 3.188625833168269e-05,
                    0.002166059578398848, 935339.0, 152.0),
                   ("1.036423667504798100433e-7", "0.1632978773867096150395",
                    "0.1659025899291768815536", "3.047061871342805342198e-6")),
    "bundled-40": ((0.00187, 8, 1e11, 0.07, 1.0491944854441044e-05,
                    0.0033025885153228204, 302490.0, 75.0),
                   ("7.047765219895106081719e-8", "0.173040368620437253836",
                    "0.1777409990132426369524", "8.693919143163210245117e-7")),
    "bundled-45": ((0.000978, 8, 1e11, 0.07, 3.0998261345331853e-06,
                    0.007071180309650146, 91781.0, 49.0),
                   ("5.832036328645592826845e-8", "0.1729251516658216922796",
                    "0.1815055556396248133628", "2.248487354534266042871e-7")),
    "305km": ((0.00039109178296655665, 8, 1e12, 0.07, 6.204357949044989e-07,
               0.02579533949880755, 144251.32231529598, 280.0761594185464),
              ("1.537416095982112065788e-8", "0.1479841092082719009099",
               "0.1544034657391577218749", "2.566827967778182844839e-8")),
    "328km": ((0.00024619363753740445, 8, 1e12, 0.07, 2.6225055803511356e-07,
               0.04736883384107929, 60973.254743163896, 217.39380439517325),
              ("1.295268986061619701741e-8", "0.1649098302015411988179",
               "0.1752768410319077889701", "5.687143145341945646274e-10")),
}


def _chain_inputs(point):
    mu, m_slices, n_rounds, p_s, q_mu, e_b, n_mu, m_s = point
    return dict(mu=mu, m_slices=m_slices, n_rounds=n_rounds, p_s=p_s, f=1.16,
                q_mu=q_mu, e_b=e_b, n_mu=n_mu, m_s=m_s, budget=SecurityBudget())


def _assert_matches_frozen(res, frozen):
    """res against the 60-digit values, within the rounding of the chain in doubles.

    The multiphoton numerator e^-2mu + 1 - 2 e^-mu is a difference of numbers
    near 1, so it carries an absolute error of about 1 ulp of 1 (2^-52), and
    ep_m one of 2^-52 / Q.  That is 1e-9 relative at 305 and 328 km, where
    Q is below 1e-6; R moves by n_mu / N times the slope of H at ep_m_bar.
    """
    y0, ep_m, ep_m_bar, rate = (float(v) for v in frozen)
    ep_tol = 2.0 ** -52 / res.q_mu + 1e-14 * ep_m
    slope = math.log2((1.0 - ep_m_bar) / ep_m_bar)
    assert res.y0_bar == pytest.approx(y0, rel=1e-14)
    assert abs(res.ep_m - ep_m) <= ep_tol
    assert abs(res.ep_m_bar - ep_m_bar) <= ep_tol
    assert abs(res.rate - rate) <= res.n_mu / res.n_rounds * slope * ep_tol + 1e-12 * rate


class TestChainAgainstExtendedPrecision:
    @pytest.mark.parametrize("name", CHAIN_POINTS)
    def test_frozen_values_are_the_formulas(self, name):
        point, frozen = CHAIN_POINTS[name]
        mu, m_slices, n_rounds, p_s, q_mu, e_b, n_mu, m_s = point
        got = _mp_chain(mu, m_slices, n_rounds, p_s, q_mu, e_b, n_mu, m_s)
        for value, text in zip(got, frozen):
            assert abs(value / mp.mpf(text) - 1) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("name", CHAIN_POINTS)
    def test_finite_key_rate(self, name):
        point, frozen = CHAIN_POINTS[name]
        _assert_matches_frozen(finite_key_rate(**_chain_inputs(point)), frozen)

    @pytest.mark.parametrize("loss_db", [35, 40, 45])
    def test_reproduce_bundled(self, loss_db):
        point, frozen = CHAIN_POINTS[f"bundled-{loss_db}"]
        res = reproduce_key_rate(load_bundled_record(loss_db))
        mu, m_slices, n_rounds, p_s, q_mu, e_b, n_mu, m_s = point
        assert (res.mu, res.m_slices, res.n_rounds, res.p_s, res.n_mu, res.m_s) == (
            mu, m_slices, n_rounds, p_s, n_mu, m_s)
        assert res.e_b == e_b
        assert res.q_mu == pytest.approx(q_mu, rel=1e-14)
        _assert_matches_frozen(res, frozen)

    @pytest.mark.parametrize("distance_km", [305, 328])
    def test_expected_key_rate_from_the_channel(self, distance_km):
        point, frozen = CHAIN_POINTS[f"{distance_km}km"]
        mu = point[0]
        res = expected_key_rate(ChannelSpec(distance_km=distance_km), mu,
                                m_slices=8, n_rounds=1e12, p_s=0.07)
        q_mu, e_b = _mp_gain_qber(distance_km, mu)
        assert res.q_mu == pytest.approx(float(q_mu), rel=1e-14)
        assert res.e_b == pytest.approx(float(e_b), rel=1e-13)
        assert res.n_mu == pytest.approx(point[6], rel=1e-15)
        _assert_matches_frozen(res, frozen)


REFERENCE_CURVES = Path(__file__).resolve().parent.parent / "benchmarks" / "reference_curves.json"


class TestRecordedCurves:
    """The benchmark's recorded curves still come out of the pipeline.

    The curves gate of the benchmark holds each scanned rate to the pipeline
    at its own (mu, p_s) within PIPELINE_RTOL = 1e-12 (benchmarks/workloads.py),
    and to the recorded optimum; a change to the chain's arithmetic that moves
    the pipeline past that tolerance fails it.  This reads the file only.
    """

    def test_every_keyed_point_within_pipeline_rtol(self):
        curves = json.loads(REFERENCE_CURVES.read_text())["curves"]
        budget = SecurityBudget()
        keyed, moved = 0, []
        for n_rounds, points in curves.items():
            for distance, (mu, p_s, rate) in points.items():
                if rate <= 0.0:
                    continue
                keyed += 1
                channel = ChannelSpec(distance_km=float(distance), alpha_db_per_km=0.168)
                pipe = expected_key_rate(channel, mu, m_slices=8, n_rounds=float(n_rounds),
                                         p_s=p_s, budget=budget).rate
                if not abs(rate - pipe) <= 1e-12 * abs(pipe):
                    moved.append((n_rounds, distance, rate, pipe))
        assert keyed == 1742
        assert moved == []


def _staged_rate(mu, m_slices, n_rounds, p_s, f, q_mu, e_b, n_mu, m_s, budget):
    """The chain composed from the public stage functions."""
    y0_bar = vacuum_yield_ub(m_s, p_s, n_rounds, mu, budget.eps)
    ep_m = phase_error_discrete(mu, m_slices, q_mu, y0_bar).ep_m
    if n_mu < 1.0 or not ep_m <= 1.0:  # the Kato lift is undefined
        ep_m_bar = max(0.5, ep_m)
    else:
        kato = kato_correction(n_mu, min(n_mu * ep_m, n_mu), budget.eps_ka)
        ep_m_bar = (n_mu * ep_m + kato.delta) / n_mu
    return key_length(n_mu, ep_m_bar, e_b, f, budget, n_rounds)[1]


def _outcome(call):
    try:
        return ("rate", call())
    except (DomainError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


_BAD = [math.nan, math.inf, -1.0, 0.0, 0.5, 1.0, 1e-300, 2e3]
_GOOD = dict(mu=1e-3, m_slices=8, n_rounds=1e11, p_s=0.07, f=1.16, q_mu=3e-6,
             e_b=0.01, n_mu=7e4, m_s=49.0)


class TestChecksOnce:
    @pytest.mark.parametrize("first,second", [
        (a, b) for i, a in enumerate(["mu", "m_slices", "p_s", "q_mu", "e_b", "n_mu", "m_s"])
        for b in ["mu", "m_slices", "p_s", "q_mu", "e_b", "n_mu", "m_s"][i + 1:]
    ])
    def test_same_error_as_the_stages_in_order(self, first, second):
        # finite_key_rate makes each stage's check once, before its kernels;
        # two bad inputs must raise what the first stage to see one raises.
        values = {k: _BAD + [_GOOD[k]] for k in _GOOD}
        values["m_slices"] = [1, 4, 6, 7, 8]
        budget = SecurityBudget()
        for a in values[first]:
            for b in values[second]:
                kw = dict(_GOOD, **{first: a, second: b})
                assert _outcome(lambda: finite_key_rate(**kw, budget=budget).rate) == \
                    _outcome(lambda: _staged_rate(**kw, budget=budget)), kw


_NON_FINITE = [math.nan, math.inf]


class TestNonFiniteInputs:
    """NaN and inf fail at the check of the first stage that reads them, by name."""

    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("name,match", [
        ("q_mu", "phase error: q_mu must be finite"),
        ("m_s", "vacuum_yield_ub: m_s must be finite"),
        ("n_mu", "kato_correction: n must be finite"),
        ("e_b", r"key_length: e_b must be in \[0, 1\]"),
    ])
    def test_finite_key_rate(self, name, match, value):
        # q_mu = inf once gave a positive rate: it made ep_m 0.
        kw = dict(_GOOD, **{name: value})
        with pytest.raises(DomainError, match=match):
            finite_key_rate(**kw, budget=SecurityBudget())

    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("call,match", [
        (lambda v: _continuous(1e-3, v, 1e-6), "phase error: q_mu must be finite"),
        (lambda v: phase_error_discrete(1e-3, 8, v, 1e-6), "phase error: q_mu must be finite"),
        (lambda v: deviation_bound(1e-3, 8, 0, v), "deviation_bound: q_mu must be finite"),
        (lambda v: vacuum_yield_ub(v, 0.07, 1e11, 1e-3, EPS),
         "vacuum_yield_ub: m_s must be finite"),
        (lambda v: kato_correction(v, 10.0, 1e-10), "kato_correction: n must be finite"),
        (lambda v: _lifted(v, 0.1, 1e-10), "kato_correction: n must be finite"),
        (lambda v: key_length(v, 0.1, 0.01, 1.16, SecurityBudget(), 1e11),
         "key_length: n_mu must be finite"),
        (lambda v: key_length(7e4, 0.1, v, 1.16, SecurityBudget(), 1e11),
         r"key_length: e_b must be in \[0, 1\]"),
        # n_rounds = inf once gave y0_bar = 0 and a rate of 0 per round.
        (lambda v: vacuum_yield_ub(49.0, 0.07, v, 1e-3, EPS),
         "vacuum_yield_ub: n_rounds must be finite"),
        (lambda v: key_length(7e4, 0.1, 0.01, 1.16, SecurityBudget(), v),
         "key_length: n_rounds must be finite"),
        (lambda v: key_length(7e4, 0.1, 0.01, v, SecurityBudget(), 1e11),
         "key_length: f must be finite and >= 1"),
        # Negated: NaN and -inf.  An inf phase error is a vacuous bound, not an error.
        (lambda v: _lifted(1e5, -v, 1e-10), r"kato_correction: lambda_n must be in \[0, n\]"),
        (lambda v: key_length(7e4, -v, 0.01, 1.16, SecurityBudget(), 1e11),
         "key_length: ep_m_bar must be >= 0"),
    ], ids=["phase_error_continuous.q_mu", "phase_error_discrete.q_mu",
            "deviation_bound.q_mu", "vacuum_yield_ub.m_s", "kato_correction.n",
            "phase_error_final.n_mu", "key_length.n_mu", "key_length.e_b",
            "vacuum_yield_ub.n_rounds", "key_length.n_rounds", "key_length.f",
            "phase_error_final.ep_m", "key_length.ep_m_bar"])
    def test_stage(self, call, match, value):
        with pytest.raises(DomainError, match=match):
            call(value)


# A valid value of every parameter of the public stage functions, by name.
_STAGE_ARGS = dict(
    x=10.0, x_star=10.0, eps=EPS, m_s=49.0, p_s=0.07, n_rounds=1e11, mu=1e-3,
    m_slices=8, k=0, q_mu=3e-6, y0_bar=1e-6, n=7e4, lambda_n=1e4, eps_ka=1e-10,
    n_mu=7e4, ep_m_bar=0.1, e_b=0.01, f=1.16, budget=SecurityBudget(),
)


# The names of pmqkd.__all__ the generated guard does not call, and why.
_UNGUARDED = {
    **dict.fromkeys(
        ["DomainError", "NoDataError", "PmqkdError", "SchemaError", "UndefinedRateError"],
        "an exception class, built from a message"),
    **dict.fromkeys(
        ["KatoCoefficients", "KeyRateResult", "PhaseErrorBreakdown", "PseudoFockWeight",
         "OptimizationResult"],
        "a result record built by the package from checked inputs; it holds NaN "
        "where a bound overflowed"),
    **dict.fromkeys(
        ["SearchBounds", "compose_epsilons", "derive_observables", "kato_epsilon",
         "parse_tally_csv", "tally_to_stats", "transmittance"],
        "no float or int parameter: it reads a record or a path"),
}

# Valid values by parameter name for the public callables, over _STAGE_ARGS.
_CHANNEL = ChannelSpec(total_loss_db=40.0)
_PUBLIC_ARGS = dict(
    _STAGE_ARGS, channel=_CHANNEL, spec=_CHANNEL, eta=1e-3, p_d=1e-8, e_d=0.01,
    eta_d=0.56, alpha_db_per_km=0.168, total_loss_db=40.0, seed=1, batch_size=10**6,
    loss_db=45.0, n_det=100, n_double=0, k=2, n_rounds=1e6,
)

# Valid values where the by-name one does not fit, per callable or per
# "callable.parameter" guarded.
_PUBLIC_OVERRIDES = {
    "ChannelSpec.distance_km": dict(total_loss_db=None, distance_km=100.0),
    # n_sifted is drawn from the matched clicks, and they from the n_det = 100 clicks.
    "ObservedTally": dict(m_s=5, n_sifted=50, seed=1, matched={(0, 0, 1): 60}),
    "load_bundled_record": dict(loss_db=45),
    "optimize": dict(fixed_p_s=0.07),
    "binary_entropy": dict(x=0.25),
}

# (callable, parameter, value) pairs accepted by design.
_ACCEPTED = {
    # An infinite phase error is a vacuous bound: it floors the key at 0.
    ("key_length", "ep_m_bar", math.inf),
}


def _public_numeric_parameters():
    """(name, [(param, "float" or "int"), ...]) for each guarded public callable."""
    out = []
    for name, func in _public_callables():
        params = []
        for param, spec in inspect.signature(func).parameters.items():
            kind = str(spec.annotation).split(" |")[0]
            if kind in ("float", "int"):
                params.append((param, kind))
        out.append((name, params))
    return out


def _public_callables():
    return [(name, getattr(pmqkd, name)) for name in sorted(pmqkd.__all__)
            if name not in _UNGUARDED]


def _public_kwargs(name, func, tmp_path, guarded):
    """A valid keyword call of a public callable, to guard one parameter in."""
    overrides = {**_PUBLIC_OVERRIDES.get(name, {}),
                 **_PUBLIC_OVERRIDES.get(f"{name}.{guarded}", {})}
    kw = {}
    for param, spec in inspect.signature(func).parameters.items():
        if param in overrides:
            kw[param] = overrides[param]
        elif param in _PUBLIC_ARGS:
            kw[param] = _PUBLIC_ARGS[param]
        elif param == "path":
            kw[param] = str(tmp_path / "tally.csv")
        elif param == "record":
            kw[param] = load_bundled_record(45)
        elif param == "tally":
            kw[param] = load_bundled_record(45).tally
        elif param == "params":
            kw[param] = ProtocolParams(mu=1e-3, m_slices=8, n_rounds=10**6, p_s=0.07,
                                       channel=_CHANNEL)
        elif spec.default is inspect.Parameter.empty:
            raise KeyError(f"no valid value for {name}.{param}")
    return kw


def _public_bad_values():
    """(name, param, value) for NaN, +-inf and -1 in each float or int
    parameter of each guarded public callable, and 2.5 in each int one."""
    cases = []
    for name, params in _public_numeric_parameters():
        for param, kind in params:
            values = [math.nan, math.inf, -math.inf, -1.0] + ([2.5] if kind == "int" else [])
            cases += [pytest.param(name, param, v, id=f"{name}.{param}={v}")
                      for v in values if (name, param, v) not in _ACCEPTED]
    return cases


def _stage_float_parameters():
    """(stage, parameter) for each float parameter of each public stage function.

    The stages are the public functions of pmqkd.security except the chain,
    finite_key_rate, whose messages name the stage that reads each input.
    """
    return [
        pytest.param(func, param, id=f"{name}.{param}")
        for name, func in sorted(vars(security).items())
        if not name.startswith("_") and inspect.isfunction(func)
        and func.__module__ == security.__name__ and func is not finite_key_rate
        for param, spec in inspect.signature(func).parameters.items()
        if spec.annotation == "float"
    ]


class TestNaNNamesTheParameter:
    """Generated from the signatures: NaN in any float parameter of a public
    stage is a DomainError that names the parameter."""

    def test_covers_every_stage(self):
        stages = {case.values[0].__name__ for case in _stage_float_parameters()}
        assert stages == {
            "chernoff_expected_ub", "chernoff_observed_ub", "vacuum_yield_ub",
            "phase_error_discrete", "deviation_bound", "kato_correction", "key_length",
        }

    @pytest.mark.parametrize("stage,name", _stage_float_parameters())
    def test_nan_rejected_by_name(self, stage, name):
        kw = {param: _STAGE_ARGS[param] for param in inspect.signature(stage).parameters}
        stage(**kw)  # the valid point passes
        with pytest.raises(DomainError, match=rf"\b{name} must"):
            stage(**dict(kw, **{name: math.nan}))

    def test_covers_the_public_api(self):
        # Every name of pmqkd.__all__ is guarded or set aside with a reason.
        guarded = {name for name, _ in _public_callables()}
        assert guarded.isdisjoint(_UNGUARDED)
        assert guarded | set(_UNGUARDED) == set(pmqkd.__all__)

    @pytest.mark.parametrize("name,param,value", _public_bad_values())
    def test_bad_value_rejected_by_name(self, name, param, value, tmp_path):
        func = getattr(pmqkd, name)
        kw = _public_kwargs(name, func, tmp_path, param)
        func(**kw)  # the valid point passes
        with pytest.raises(DomainError, match=rf"\b{param} must"):
            func(**dict(kw, **{param: value}))

    @pytest.mark.parametrize("name,param", [
        (name, param) for name, params in _public_numeric_parameters()
        for param, kind in params if kind == "int"
    ], ids=lambda v: v)
    def test_integral_float_accepted(self, name, param, tmp_path):
        # m_slices=8.0 is 8: an integral float is used as an int.
        func = getattr(pmqkd, name)
        kw = _public_kwargs(name, func, tmp_path, param)
        func(**dict(kw, **{param: float(kw[param])}))


@functools.cache
def _curve_optimum(n_rounds, distance_km):
    channel = ChannelSpec(distance_km=distance_km, alpha_db_per_km=0.168)
    return optimize(channel, n_rounds, 8, fixed_p_s=0.07).result


class TestRateNonIncreasingInMu:
    """At fixed counts a larger declared mu never raises the rate, so a mu
    declared low is the optimistic direction (docs/DECISIONS.md, "Which
    terms read mu")."""

    @given(loss=st.sampled_from((35, 40, 45)), low=st.floats(0.8, 1.25),
           step=st.floats(1e-6, 0.25))
    def test_bundled_records(self, loss, low, step):
        # reproduce reads mu in the chain and in the model Q as well
        record = load_bundled_record(loss)

        def rate(scale):
            tally = dataclasses.replace(record.tally, mu=record.tally.mu * scale)
            return reproduce_key_rate(dataclasses.replace(record, tally=tally)).rate

        assert rate(low * (1 + step)) <= rate(low)

    @given(n_rounds=st.sampled_from((1e10, 1e11, 1e12)),
           distance_km=st.sampled_from((50.0, 150.0, 250.0)),
           low=st.floats(0.8, 1.25), step=st.floats(1e-6, 0.25))
    def test_curve_optima(self, n_rounds, distance_km, low, step):
        # The observables of the optimum held fixed; only the declared mu moves.
        r = _curve_optimum(n_rounds, distance_km)

        def rate(scale):
            return finite_key_rate(
                mu=r.mu * scale, m_slices=r.m_slices, n_rounds=r.n_rounds, p_s=r.p_s,
                f=r.f, q_mu=r.q_mu, e_b=r.e_b, n_mu=r.n_mu, m_s=r.m_s, budget=r.budget,
            ).rate

        assert r.rate > 0
        assert rate(low * (1 + step)) <= rate(low)


class TestMoreErrorsNeverRaiseRate:
    """Never optimistic: more observed errors never raise the key rate."""

    @given(
        base=st.sampled_from([r for name, r in CHAIN_RESULTS if name.startswith("bundled")]),
        n_scale=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
        m_scale=st.floats(0.0, 3.0),
        dm=st.floats(0.0, 50.0),
        e_b=st.floats(0.0, 0.05),
        de=st.floats(0.0, 0.05),
    )
    def test_finite_key_rate_non_increasing(self, base, n_scale, m_scale, dm, e_b, de):
        # around the bundled records: n_mu scaled 1e-3 to 10, m_s up to 3x
        # its reconstructed value at that size
        n_mu = base.n_mu * n_scale
        m_s = base.m_s * n_scale * m_scale

        def rate(m_s, e_b):
            return finite_key_rate(
                mu=base.mu, m_slices=base.m_slices, n_rounds=base.n_rounds,
                p_s=base.p_s, f=base.f, q_mu=base.q_mu, e_b=e_b, n_mu=n_mu,
                m_s=m_s, budget=base.budget,
            ).rate

        assert rate(m_s + dm, e_b) <= rate(m_s, e_b)
        assert rate(m_s, e_b + de) <= rate(m_s, e_b)

    @given(
        loss=st.sampled_from((35, 40, 45)),
        pair=st.integers(0, 15),
        moved=st.integers(1, 1000),
        measured_m_s=st.booleans(),
    )
    def test_count_moved_to_wrong_detector(self, loss, pair, moved, measured_m_s):
        # with m_s reconstructed, the move raises E_b and m_s; with m_s
        # measured, it raises E_b alone
        record = load_bundled_record(loss)
        tally = record.tally
        if measured_m_s:
            tally = dataclasses.replace(tally, m_s=int(derive_observables(record).m_s))
        m = tally.m_slices
        a = pair % m
        b = a if pair < m else (a + m // 2) % m
        right, wrong = (1, 2) if a == b else (2, 1)
        k = min(moved, tally.matched.get((a, b, right), 0))
        matched = dict(tally.matched)
        matched[(a, b, right)] -= k
        matched[(a, b, wrong)] = matched.get((a, b, wrong), 0) + k
        before = reproduce_key_rate(dataclasses.replace(record, tally=tally))
        after = reproduce_key_rate(dataclasses.replace(
            record, tally=dataclasses.replace(tally, matched=matched)))
        assert after.rate <= before.rate


def _simulated_record(loss_db: int, seed: int) -> ExperimentRecord:
    """A simulator tally (m_s and n_sifted measured) at a bundled record's settings."""
    bundled = load_bundled_record(loss_db).tally
    params = ProtocolParams(
        mu=bundled.mu, m_slices=bundled.m_slices, n_rounds=bundled.n_rounds,
        p_s=bundled.p_s, channel=ChannelSpec(total_loss_db=loss_db),
    )
    return ExperimentRecord(loss_db=loss_db, tally=simulate(params, seed))


# The counts that stand in for a missing m_s or n_sifted are point estimates:
# m_s becomes E_b n_s, and n_sifted becomes the matched total times (1 - p_s).
# A measured count on the favourable side of its estimate raises the rate
# when it is dropped, in about half of all simulated tallies.
_POINT_ESTIMATES = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a missing m_s or n_sifted is replaced by a point "
           "estimate, not by a bound")


class TestLessInformationNeverRaisesRate:
    """Never optimistic: removing information from a tally never raises the rate."""

    @pytest.mark.parametrize("field", [
        pytest.param("m_s", marks=_POINT_ESTIMATES),
        pytest.param("n_sifted", marks=_POINT_ESTIMATES),
    ])
    @given(loss=st.sampled_from((35, 40, 45)), seed=st.integers(0, 2**32 - 1))
    def test_dropping_a_measured_count(self, field, loss, seed):
        record = _simulated_record(loss, seed)
        dropped = dataclasses.replace(record.tally, **{field: None})
        after = reproduce_key_rate(dataclasses.replace(record, tally=dropped))
        assert after.rate <= reproduce_key_rate(record).rate

    @pytest.mark.parametrize("counts_known", [
        True,
        # an empty tally with an unknown m_s makes the merged m_s unknown
        pytest.param(False, marks=_POINT_ESTIMATES),
    ])
    @given(loss=st.sampled_from((35, 40, 45)), seed=st.integers(0, 2**32 - 1))
    def test_merge_with_empty_tally(self, counts_known, loss, seed):
        record = _simulated_record(loss, seed)
        tally = record.tally
        known = 0 if counts_known else None
        empty = ObservedTally(m_slices=tally.m_slices, n_rounds=0, mu=tally.mu,
                              p_s=tally.p_s, m_s=known, n_sifted=known)
        before = reproduce_key_rate(record).rate
        for merged in (tally.merge(empty), empty.merge(tally)):
            after = reproduce_key_rate(dataclasses.replace(record, tally=merged))
            assert after.rate <= before


class TestKatoCap:
    """n is capped at KATO_N_MAX, below which every intermediate of the Kato
    coefficients is finite; above it the lift once returned delta = NaN."""

    def test_cap_is_below_the_derived_limit(self):
        # The largest intermediate, n^2 L (9 lambda (n - lambda) + 2 n L), is
        # largest at lambda = n/2 and at the largest L = ln(1/eps_ka).
        limit = (sys.float_info.max / (2.25 * -math.log(5e-324))) ** 0.25
        assert KATO_N_MAX <= limit < 1.01 * KATO_N_MAX

    def test_edge_is_finite(self):
        coeffs = kato_correction(KATO_N_MAX, KATO_N_MAX / 2, 5e-324)
        assert all(math.isfinite(v) for v in coeffs)
        assert kato_epsilon(coeffs) == 5e-324

    @pytest.mark.parametrize("eps_ka", [5e-324, 1e-300, 1e-10, 0.5, 1 - 2.0 ** -53])
    def test_finite_for_every_lambda(self, eps_ka):
        for i in range(101):
            coeffs = kato_correction(KATO_N_MAX, KATO_N_MAX * i / 100, eps_ka)
            assert all(math.isfinite(v) for v in coeffs), (i, coeffs)

    @pytest.mark.parametrize("n", [math.nextafter(KATO_N_MAX, math.inf), 1e100])
    @pytest.mark.parametrize("call", [
        lambda n: kato_correction(n, n / 2, 1e-10),
        lambda n: _lifted(n, 0.1, 1e-10),
        lambda n: finite_key_rate(**dict(_GOOD, n_mu=n), budget=SecurityBudget()),
    ], ids=["kato_correction", "lift", "finite_key_rate"])
    def test_beyond_the_cap_refused(self, call, n):
        with pytest.raises(DomainError) as exc:
            call(n)
        assert str(exc.value) == (
            f"kato_correction: n must be finite and in [1, 1.8e+76], got {n}")
