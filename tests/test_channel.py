"""Detection-model tests: closed forms against high-precision oracles and a
Monte Carlo cross-check."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmqkd.channel import ChannelSpec, expected_sifted, gain, qber, transmittance
from pmqkd.errors import DomainError, UndefinedRateError

mp.mp.dps = 50


def oracle_gain(mu, eta, p_d):
    mu, eta, p_d = map(mp.mpf, (mu, eta, p_d))
    return float((1 - p_d) * (1 - (1 - 2 * p_d) * mp.e ** (-mu * eta)))


def oracle_qber(mu, eta, p_d, e_d):
    mu, eta, p_d, e_d = map(mp.mpf, (mu, eta, p_d, e_d))
    x = mp.e ** (-mu * eta)
    q = (1 - p_d) * (1 - (1 - 2 * p_d) * x)
    num = e_d * (1 - p_d) * (1 - (1 - p_d) * x) + (1 - e_d) * p_d * (1 - p_d) * x
    return float(num / q)


class TestChannelSpec:
    def test_requires_exactly_one_loss_form(self):
        with pytest.raises(DomainError):
            ChannelSpec()
        with pytest.raises(DomainError):
            ChannelSpec(total_loss_db=10, distance_km=10)

    def test_distance_conversion(self):
        spec = ChannelSpec(distance_km=100, alpha_db_per_km=0.168)
        assert spec.loss_db() == pytest.approx(16.8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta_d": 0.0, "total_loss_db": 10},
            {"eta_d": 1.5, "total_loss_db": 10},
            {"p_d": 1.0, "total_loss_db": 10},
            {"e_d": 0.6, "total_loss_db": 10},
            {"total_loss_db": -1},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(DomainError):
            ChannelSpec(**kwargs)

    @pytest.mark.parametrize(
        "name,shape", [("total_loss_db", "finite and >= 0"),
                       ("distance_km", "finite and >= 0"),
                       ("alpha_db_per_km", "finite and > 0"), ("eta_d", "in (0, 1]"),
                       ("p_d", "in [0, 1)"), ("e_d", "in [0, 0.5]")],
        ids=["total_loss_db", "distance_km", "alpha_db_per_km", "eta_d", "p_d", "e_d"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields(self, name, shape, value):
        kwargs = {"distance_km": 100.0} if name == "distance_km" else {"total_loss_db": 10.0}
        kwargs[name] = value
        with pytest.raises(DomainError) as exc:
            ChannelSpec(**kwargs)
        assert str(exc.value) == f"ChannelSpec: {name} must be {shape}, got {value}"


class TestTransmittance:
    def test_lossless(self):
        assert transmittance(ChannelSpec(eta_d=0.56, total_loss_db=0)) == 0.56

    def test_ten_db_per_arm(self):
        assert transmittance(
            ChannelSpec(eta_d=1.0, total_loss_db=20)
        ) == pytest.approx(0.1, rel=1e-14)

    def test_45db(self):
        # frozen: 0.56 * 10^-2.25 = 0.0031491114210659548502...
        eta = transmittance(ChannelSpec(eta_d=0.56, total_loss_db=45))
        assert eta == pytest.approx(3.1491114210659549e-3, rel=1e-14)

    def test_strictly_decreasing_in_loss(self):
        losses = np.linspace(0, 60, 200)
        etas = [
            transmittance(ChannelSpec(total_loss_db=float(l))) for l in losses
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))


class TestGain:
    def test_mu_zero(self):
        p_d = 1e-6
        assert gain(0.0, 0.5, p_d) == pytest.approx((1 - p_d) * 2 * p_d, rel=1e-12)

    def test_small_signal_high_precision(self):
        # frozen: 1 - e^-1e-6 = 9.99999500000166666e-7 (mpmath, 50 digits)
        q = gain(1e-3, 1e-3, 0.0)
        assert q == pytest.approx(9.99999500000166666e-7, rel=1e-12)

    def test_saturation(self):
        p_d = 1e-8
        assert gain(1e9, 1.0, p_d) == pytest.approx(1 - p_d, rel=1e-12)

    def test_in_unit_interval(self):
        for mu in (0.0, 1e-4, 1.0, 100.0):
            for p_d in (0.0, 1e-8, 0.3):
                assert 0.0 <= gain(mu, 0.5, p_d) <= 1.0

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_against_oracle(self, mu, eta, p_d):
        assert gain(mu, eta, p_d) == pytest.approx(
            oracle_gain(mu, eta, p_d), rel=1e-12, abs=1e-300
        )

    def test_monotone_in_mu_eta_pd(self):
        mus = np.linspace(0, 0.5, 1000)
        qs = [gain(float(m), 0.3, 1e-8) for m in mus]
        assert all(a <= b + 1e-18 for a, b in zip(qs, qs[1:]))
        etas = np.linspace(1e-4, 1.0, 1000)
        qs = [gain(1e-3, float(e), 1e-8) for e in etas]
        assert all(a <= b + 1e-18 for a, b in zip(qs, qs[1:]))
        pds = np.linspace(0, 0.4, 1000)
        qs = [gain(1e-3, 0.3, float(p)) for p in pds]
        assert all(a <= b + 1e-18 for a, b in zip(qs, qs[1:]))


class TestQber:
    def test_dark_only_is_random(self):
        assert qber(0.0, 0.5, 1e-6, 0.01) == 0.5

    def test_no_darks_gives_misalignment(self):
        assert qber(1e-3, 0.5, 0.0, 0.013) == 0.013

    def test_undefined_when_gain_zero(self):
        with pytest.raises(UndefinedRateError):
            qber(0.0, 0.5, 0.0, 0.01)

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-4, max_value=1.0),
        st.floats(min_value=1e-12, max_value=0.3),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_against_oracle_and_range(self, mu, eta, p_d, e_d):
        e_b = qber(mu, eta, p_d, e_d)
        assert e_b == pytest.approx(oracle_qber(mu, eta, p_d, e_d), rel=1e-11)
        assert 0.0 <= e_b <= 0.5 + 1e-15

    @pytest.mark.parametrize("eta,p_d,match", [
        (5.0, 0.9, r"qber: eta must be in \(0, 1\]"),
        (0.0, 1e-6, r"qber: eta must be in \(0, 1\]"),
        (math.nan, 1e-6, r"qber: eta must be in \(0, 1\]"),
        (0.5, 1.0, r"qber: p_d must be in \[0, 1\)"),
        (0.5, -1e-6, r"qber: p_d must be in \[0, 1\)"),
        (0.5, math.nan, r"qber: p_d must be in \[0, 1\)"),
    ])
    def test_domain_matches_gain(self, eta, p_d, match):
        # qber(1e-3, 5.0, 0.9, 0.01) once returned 0.4986 where gain raised.
        with pytest.raises(DomainError, match=match.replace("qber", "gain")):
            gain(1e-3, eta, p_d)
        with pytest.raises(DomainError, match=match):
            qber(1e-3, eta, p_d, 0.01)

    def test_limits(self):
        # signal-dominated regime approaches e_d; dark-dominated approaches 1/2
        assert qber(0.1, 1.0, 1e-12, 0.01) == pytest.approx(0.01, rel=1e-6)
        assert qber(1e-12, 1e-4, 1e-3, 0.01) == pytest.approx(0.5, rel=1e-6)


class TestExpectedSifted:
    def test_all_sampled(self):
        assert expected_sifted(1e-5, 1e10, 8, 1.0) == 0.0

    def test_reference_point(self):
        # 0.25 * 3.95e-6 * 1e11 * 0.93 = 91837.5 (plain arithmetic)
        n = expected_sifted(3.95e-6, 1e11, 8, 0.07)
        assert n == pytest.approx(0.25 * 3.95e-6 * 1e11 * 0.93, rel=1e-12)
        assert n == pytest.approx(9.18e4, rel=1e-2)

    def test_doubling_m_halves(self):
        n8 = expected_sifted(1e-5, 1e10, 8, 0.07)
        n16 = expected_sifted(1e-5, 1e10, 16, 0.07)
        assert n16 == pytest.approx(n8 / 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_sifted(1e-5, 1e10, 1, 0.07)
        with pytest.raises(DomainError):
            expected_sifted(1e-5, 1e10, 8, 1.5)

    @pytest.mark.parametrize("q_mu,n_rounds,name", [
        (math.nan, 1e10, "q_mu"),     # once NaN
        (-1e-5, 1e10, "q_mu"),        # once -23250
        (math.inf, 1e10, "q_mu"),
        (1e-5, math.inf, "n_rounds"),  # once inf
        (1e-5, math.nan, "n_rounds"),
    ])
    def test_bad_gain_or_rounds_named(self, q_mu, n_rounds, name):
        with pytest.raises(DomainError, match=rf"expected_sifted: {name} must be finite"):
            expected_sifted(q_mu, n_rounds, 8, 0.07)


class TestMonteCarloCrossCheck:
    def test_qber_within_3_sigma(self):
        # closed forms vs the protocol simulator at the reference channel
        from pmqkd.simulator import ProtocolParams, simulate, tally_to_stats

        spec = ChannelSpec(total_loss_db=20)
        mu = 3.2e-3
        n_rounds = 10_000_000
        params = ProtocolParams(
            mu=mu, m_slices=8, n_rounds=n_rounds, p_s=0.07, channel=spec
        )
        tally = simulate(params, seed=2024)
        q_emp, e_b_emp, _ = tally_to_stats(tally)
        eta = transmittance(spec)
        q = gain(mu, eta, spec.p_d)
        e_b = qber(mu, eta, spec.p_d, spec.e_d)
        sd_q = math.sqrt(q * (1 - q) / n_rounds)
        assert abs(q_emp - q) <= 3 * sd_q
        n_matched = tally.total_matched()
        sd_e = math.sqrt(e_b * (1 - e_b) / n_matched)
        assert abs(e_b_emp - e_b) <= 3 * sd_e
