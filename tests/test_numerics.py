"""Scalar kernel tests.

Expected values marked as frozen were computed with mpmath at 60 significant
digits (see the oracle helpers below); the oracles are kept in the test
module so they stay independent of the implementation under test.
"""

import math
import random
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from pmqkd.channel import gain, qber
from pmqkd.errors import DomainError
from pmqkd.numerics import (
    MU_MAX,
    _check_range,
    _even_tails,
    _residue_series,
    binary_entropy,
    pseudo_fock_weight,
    pseudo_fock_weight_ub,
)

mp.mp.dps = 60


def oracle_entropy(x: float) -> float:
    xm = mp.mpf(x)
    if xm in (0, 1):
        return 0.0
    return float(-xm * mp.log(xm, 2) - (1 - xm) * mp.log(1 - xm, 2))


def oracle_poisson(mu: float, k: int) -> float:
    mum = mp.mpf(mu)
    return float(mum**k * mp.e**(-mum) / mp.factorial(k))


def oracle_pseudo_fock(mu: float, m: int, k: int, terms: int = 100) -> float:
    """Brute-force partial sum of the residue-class series at 60 digits."""
    mum = mp.mpf(mu)
    total = mp.mpf(0)
    for l in range(terms):
        n = l * m + k
        total += mum**n * mp.e**(-mum) / mp.factorial(n)
    return float(total)


def oracle_series(mu: float, start: int, step: int) -> mp.mpf:
    """sum_{l>=0} e^-mu mu^n / n! over n = start + l*step at 60 digits,
    until a term past mu is below 1e-62 of the sum."""
    mum, floor = mp.mpf(mu), mp.mpf(10) ** -62
    mu_step = mum**step
    term = mp.exp(-mum) * mum**start / mp.factorial(start)
    total = mp.mpf(0)
    n = start
    while True:
        total += term
        if n > mu and term < total * floor:
            return total
        term *= mu_step / math.perm(n + step, step)
        n += step


def mu_grid(seed: int, count: int) -> list[float]:
    """count mu values in [1e-12, MU_MAX], half log-spaced and half drawn
    log-uniformly, plus the ends and 0.5, 1 and 642."""
    rng = random.Random(seed)
    top = math.log10(MU_MAX)  # 10 ** top rounds above it, so clip
    half = count // 2
    mus = [min(10 ** (-12 + (top + 12) * i / (half - 1)), MU_MAX) for i in range(half)]
    mus += [min(10 ** rng.uniform(-12, top), MU_MAX) for _ in range(count - half)]
    return [*mus, 1e-12, 0.5, 1.0, 642.0, MU_MAX]


class TestBinaryEntropy:
    def test_symmetry_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter_value(self):
        # frozen: oracle_entropy(0.25) = 0.81127812445913286391...
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591329, rel=1e-14)
        assert binary_entropy(0.25) == pytest.approx(oracle_entropy(0.25), rel=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0, -1e-9])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            binary_entropy(x)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range_and_symmetry(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert abs(h - binary_entropy(1.0 - x)) <= 1e-14

    def test_concavity_on_grid(self):
        xs = [i / 1000 for i in range(1001)]
        for x, y in zip(xs[:-1], xs[1:]):
            mid = binary_entropy((x + y) / 2)
            avg = (binary_entropy(x) + binary_entropy(y)) / 2
            assert mid >= avg - 1e-12


class TestPseudoFockWeight:
    def test_vacuum_only(self):
        assert pseudo_fock_weight(0.0, 8, 0).weight == 1.0
        for k in range(1, 8):
            assert pseudo_fock_weight(0.0, 8, k).weight == 0.0

    @pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 0.5, 1.0])
    @pytest.mark.parametrize("m", [6, 8, 16])
    def test_normalization(self, mu, m):
        total = math.fsum(pseudo_fock_weight(mu, m, k).weight for k in range(m))
        assert abs(total - 1.0) <= 1e-12

    def test_against_series_oracle(self):
        # frozen: oracle_pseudo_fock(0.5, 8, 2) = 0.075816332627305340146...
        w = pseudo_fock_weight(0.5, 8, 2).weight
        assert w == pytest.approx(0.07581633262730534, rel=1e-13)
        assert w == pytest.approx(oracle_pseudo_fock(0.5, 8, 2), rel=1e-13)

    def test_poisson_limit_large_m(self):
        for mu in (1e-3, 0.05, 0.1):
            for k in range(5):
                diff = abs(
                    pseudo_fock_weight(mu, 32, k).weight - oracle_poisson(mu, k)
                )
                assert diff < 1e-12

    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.sampled_from([2, 4, 6, 8, 16]),
        st.integers(min_value=0, max_value=15),
    )
    def test_dominates_poisson_term(self, mu, m, k):
        # the series adds nonnegative terms on top of the leading Poisson one
        if k >= m:
            k = k % m
        w = pseudo_fock_weight(mu, m, k).weight
        assert w >= oracle_poisson(mu, k) - 1e-18

    @pytest.mark.parametrize("mu,m,k", [(1.0, 1, 0), (1.0, 8, 8), (1.0, 8, -1), (-0.5, 8, 0),
                                        (1.0, 65, 0)])
    def test_domain(self, mu, m, k):
        with pytest.raises(DomainError):
            pseudo_fock_weight(mu, m, k)

    def test_never_below_and_within_1e12_of_60_digits(self):
        # The weight is its series rounded up by the recurrence's error bound.
        for mu in mu_grid(23, 200):
            for m in (6, 8):
                for k in range(m):
                    exact = oracle_series(mu, k, m)
                    got = pseudo_fock_weight(mu, m, k).weight
                    assert exact <= got <= exact * (1 + mp.mpf(1e-12)), (mu, m, k)

    def test_most_slices_at_the_largest_mu(self):
        # mu^M and the denominators stay finite at M = 64 up to MU_MAX.
        total = math.fsum(pseudo_fock_weight(MU_MAX, 64, k).weight for k in range(64))
        assert abs(total - 1.0) <= 1e-12


class TestPseudoFockWeightUb:
    def test_mu_zero(self):
        assert pseudo_fock_weight_ub(0.0, 8, 0) == 1.0
        assert pseudo_fock_weight_ub(0.0, 8, 2) == 0.0

    def test_equals_closed_forms_at_moderate_mu(self):
        # away from the cancellation regime the tail equals the closed forms
        mu = 0.5
        e1, e2 = math.exp(-mu), math.exp(-2 * mu)
        assert pseudo_fock_weight_ub(mu, 8, 0) == pytest.approx(
            (1 + e2) / 2, rel=1e-13
        )
        assert pseudo_fock_weight_ub(mu, 8, 2) == pytest.approx(
            (1 + e2 - 2 * e1) / 2, rel=1e-12
        )
        assert pseudo_fock_weight_ub(mu, 8, 4) == pytest.approx(
            (1 + e2 - 2 * e1 - mu * mu * e1) / 2, rel=1e-10
        )
        assert pseudo_fock_weight_ub(mu, 8, 6) == pytest.approx(
            (1 + e2 - 2 * e1 - mu * mu * e1 - 2 * mu**4 * e1 / 24) / 2, rel=1e-8
        )

    @pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 0.5])
    @pytest.mark.parametrize("m", [6, 8, 16])
    def test_dominates_series(self, mu, m):
        for k in (0, 2, 4, 6):
            if m < k + 2:
                continue
            ub = pseudo_fock_weight_ub(mu, m, k)
            assert ub >= pseudo_fock_weight(mu, m, k).weight - 1e-16

    def test_dominates_high_precision_series(self):
        # guard against float cancellation hiding a genuine violation
        for mu in (1e-4, 1e-3, 1e-2, 0.5):
            for m in (6, 8, 16):
                for k in (0, 2, 4, 6):
                    if m < k + 2:
                        continue
                    assert pseudo_fock_weight_ub(mu, m, k) >= oracle_pseudo_fock(
                        mu, m, k
                    ) * (1 - 1e-12)

    def test_equals_step_two_series_exactly(self):
        # The k = 4 and 6 tails, whose closed forms cancel, are the step-2
        # series to the last bit, also where the terms run past n = 170.
        mus = [10 ** (-6 + 5 * i / 199) for i in range(200)]
        for mu in mus + [0.5, 1.0, 3.0, 10.0, 40.0, 150.0, 300.0, 400.0, MU_MAX]:
            for k in (4, 6):
                assert pseudo_fock_weight_ub(mu, 8, k) == _residue_series(mu, k, 2), (mu, k)

    def test_closed_forms_within_four_ulps_of_60_digits(self):
        # k = 0 and 2 are (1 + e^-2mu) / 2 and expm1(-mu)^2 / 2, which do not
        # cancel: each lies within 4 x 2^-52 of the exact tail over the whole
        # domain of mu.
        rng = random.Random(21)
        top = math.log10(MU_MAX)  # 10 ** top rounds above it, so clip
        mus = [min(10 ** (-12 + (top + 12) * i / 399), MU_MAX) for i in range(400)]
        mus += [min(10 ** rng.uniform(-12, top), MU_MAX) for _ in range(400)]
        for mu in [*mus, 1e-12, 0.5, 1.0, MU_MAX]:
            mum = mp.mpf(mu)
            exact = {0: (1 + mp.exp(-2 * mum)) / 2, 2: mp.expm1(-mum) ** 2 / 2}
            for m in (6, 8):
                for k in (0, 2):
                    got = pseudo_fock_weight_ub(mu, m, k)
                    assert abs(got / exact[k] - 1) <= 4 * 2.0 ** -52, (mu, m, k)

    def test_series_tails_never_below_60_digits(self):
        # P_ub(4) and P_ub(6) are the step-2 series rounded up by the
        # recurrence's error bound: never below the exact tail, within 8 ulps
        # (of 2^-52) of it over the curves' mu range, and within 1e-12
        # anywhere.  The log-domain series they replaced came out below the
        # tail at 318 and 471 of 800 mu values, and 106 ulps off at 1e-6..0.1.
        for mu in mu_grid(22, 800):
            for k in (4, 6):
                exact = oracle_series(mu, k, 2)
                got = pseudo_fock_weight_ub(mu, 8, k)
                rel = (mp.mpf(got) - exact) / exact
                assert rel >= 0, (mu, k, float(rel))
                assert rel <= 1e-12, (mu, k, float(rel))
                if 1e-6 <= mu <= 0.1:
                    assert rel <= 8 * 2.0 ** -52, (mu, k, float(rel) / 2.0 ** -52)

    @pytest.mark.parametrize("m,k", [(8, 1), (8, 3), (8, 8), (7, 0), (6, 6), (4, 4)])
    def test_domain(self, m, k):
        with pytest.raises(DomainError):
            pseudo_fock_weight_ub(1e-3, m, k)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
@pytest.mark.parametrize("func,args", [
    (pseudo_fock_weight, (8, 0)),
    (pseudo_fock_weight_ub, (8, 0)),
    (gain, (0.1, 1e-8)),
    (qber, (0.1, 1e-8, 0.01)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_non_finite_mu_rejected(func, args, mu):
    # NaN once sent the residue series into an endless loop
    with pytest.raises(DomainError, match="mu must be finite"):
        func(mu, *args)


@pytest.mark.parametrize("call", [
    "pseudo_fock_weight({mu}, 8, 0)",
    "pseudo_fock_weight_ub({mu}, 8, 0)",
])
@pytest.mark.parametrize("mu", ["800.0", "1e12"])
def test_large_mu_rejected_within_a_second(call, mu):
    # Past mu ~ 745 the leading terms underflow and the series once stepped
    # ~mu/2 times through zeros, so each case runs in its own process under
    # a time limit.
    code = (
        "import time\n"
        "from pmqkd.errors import DomainError\n"
        "from pmqkd.numerics import pseudo_fock_weight, pseudo_fock_weight_ub\n"
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


def test_largest_mu_is_still_summed():
    assert MU_MAX == 700.0
    # k = 0 and 2 are closed forms, exactly 1/2 once e^-mu is below an ulp.
    assert pseudo_fock_weight_ub(MU_MAX, 8, 0) == pseudo_fock_weight_ub(MU_MAX, 8, 2) == 0.5
    for k in (4, 6):
        assert pseudo_fock_weight_ub(MU_MAX, 8, k) == _residue_series(MU_MAX, k, 2)
    assert pseudo_fock_weight(MU_MAX, 8, 3).weight == _residue_series(MU_MAX, 3, 8)


class TestLogFactorialTable:
    """The even tails once came from one pass over a log-factorial table;
    the kernel is now numerics._even_tails."""

    @pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.1, 10.0, 150.0, 400.0, MU_MAX])
    def test_even_tails_match_the_series(self, mu):
        # From mu ~ 150 the terms run past n = 170. k = 4 and 6 are the
        # step-2 series to the last bit; k = 0 and 2 are closed forms within
        # 4 ulps of the 60-digit tails, and within 1e-12 of the series,
        # which drifts by a few hundred ulps at large mu.
        tails = _even_tails(mu)
        series = [_residue_series(mu, k, 2) for k in (0, 2, 4, 6)]
        assert list(tails[2:]) == series[2:]
        mum = mp.mpf(mu)
        exact = [(1 + mp.exp(-2 * mum)) / 2, mp.expm1(-mum) ** 2 / 2]
        for got, ref, ser in zip(tails[:2], exact, series[:2]):
            assert abs(got / ref - 1) <= 4 * 2.0 ** -52, (mu, got, ref)
            assert abs(got / ser - 1) <= 1e-12, (mu, got, ser)


class TestIntegralK:
    """k, and M, follow numerics._require_integer's rule: an integral float is
    used as an int, and anything else is a DomainError that names the
    parameter."""

    @pytest.mark.parametrize("func", [pseudo_fock_weight_ub, pseudo_fock_weight],
                             ids=lambda f: f.__name__)
    def test_integral_float_is_the_int(self, func):
        # pseudo_fock_weight_ub(1e-3, 8, 2.0) once raised TypeError
        assert func(1e-3, 8, 2.0) == func(1e-3, 8, 2)
        assert func(1e-3, 8.0, 2) == func(1e-3, 8, 2)

    @pytest.mark.parametrize("func", [pseudo_fock_weight_ub, pseudo_fock_weight],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    def test_non_integral_k_rejected(self, func, k):
        # pseudo_fock_weight(1e-3, 8, 2.5) once returned a weight, 9.5e-9
        with pytest.raises(DomainError, match=r"\bk must be an integer"):
            func(1e-3, 8, k)

    @pytest.mark.parametrize("func", [pseudo_fock_weight_ub, pseudo_fock_weight],
                             ids=lambda f: f.__name__)
    def test_non_integral_m_slices_rejected(self, func):
        with pytest.raises(DomainError, match=r"\bm_slices must be an integer"):
            func(1e-3, 8.5, 2)


class TestCheckRange:
    """numerics._check_range: the one range rule, and the text it writes."""

    @pytest.mark.parametrize("hi,value", [
        (hi, value) for hi in (1.0, math.inf) for value in (math.nan, -math.inf, math.inf, -1.0)
    ] + [(1.0, 2.0)])
    def test_refused_outside_and_nan(self, hi, value):
        with pytest.raises(DomainError, match=r"^s: x must be .*, got "):
            _check_range("s", "x", value, 0.0, hi)

    @pytest.mark.parametrize("lo_open,hi_open,inside,outside,text", [
        (False, True, [0.0, 0.5], [1.0], "in [0, 1)"),
        (True, True, [0.5], [0.0, 1.0], "in (0, 1)"),
        (True, False, [0.5, 1.0], [0.0], "in (0, 1]"),
        (False, False, [0.0, 1.0], [1.5], "in [0, 1]"),
    ], ids=["[0, 1)", "(0, 1)", "(0, 1]", "[0, 1]"])
    def test_each_end_open_or_closed(self, lo_open, hi_open, inside, outside, text):
        for value in inside:
            _check_range("s", "x", value, 0.0, 1.0, lo_open=lo_open, hi_open=hi_open)
        for value in outside:
            with pytest.raises(DomainError) as exc:
                _check_range("s", "x", value, 0.0, 1.0, lo_open=lo_open, hi_open=hi_open)
            assert str(exc.value) == f"s: x must be {text}, got {value}"

    @pytest.mark.parametrize("lo_open,value,text", [
        (False, -0.5, "s: x must be finite and >= 0, got -0.5"),
        (True, 0.0, "s: x must be finite and > 0, got 0.0"),
        (False, math.inf, "s: x must be finite and >= 0, got inf"),
    ], ids=[">= 0", "> 0", "inf"])
    def test_unbounded_reads_finite(self, lo_open, value, text):
        _check_range("s", "x", 1e300, 0.0, lo_open=lo_open)
        with pytest.raises(DomainError) as exc:
            _check_range("s", "x", value, 0.0, lo_open=lo_open)
        assert str(exc.value) == text

    def test_bounds_written_by_g(self):
        with pytest.raises(DomainError) as exc:
            _check_range("s", "n", 1e100, 1, 1.8e76, hi_open=False, finite=True)
        assert str(exc.value) == "s: n must be finite and in [1, 1.8e+76], got 1e+100"


class TestEvenTailsRead:
    """Each caller computes only the even tails it reads."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        from pmqkd import numerics
        calls = []
        real = numerics._residue_series

        def counted(mu, start, step):
            calls.append(start)
            return real(mu, start, step)
        monkeypatch.setattr(numerics, "_residue_series", counted)
        return calls

    @pytest.mark.parametrize("m,starts", [(4, []), (6, [4]), (8, [4, 6])])
    def test_m_slices_reads_its_tails(self, series_calls, m, starts):
        assert len(_even_tails(1e-3, m)) == m // 2
        assert series_calls == starts

    @pytest.mark.parametrize("k,starts", [(0, []), (2, []), (4, [4]), (6, [6])])
    def test_weight_ub_reads_one_tail(self, series_calls, k, starts):
        pseudo_fock_weight_ub(1e-3, 8, k)
        assert series_calls == starts

    @pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.1, 10.0, MU_MAX])
    def test_same_values_as_all_four(self, mu):
        tails = _even_tails(mu)
        assert _even_tails(mu, 6) == tails[:3]
        assert _even_tails(mu, 4) == tails[:2]
        assert tails[2:] == (_residue_series(mu, 4, 2), _residue_series(mu, 6, 2))
        for m in (8, 10, 16):
            for k in range(0, min(m - 1, 7), 2):
                assert pseudo_fock_weight_ub(mu, m, k) == tails[k // 2]
