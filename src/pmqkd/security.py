"""Finite-key bound chain.

Chernoff conversions between observed and expected counts, the vacuum-yield
upper bound, the discrete-phase phase-error rate with its even-photon terms
and residue-class deviations, the Kato concentration correction lifting the
analysis to coherent attacks, and the final key-length formula with its
failure-probability composition.

Each bound has one public entry and one implementation, a private kernel
that computes it on checked inputs.  Each chain input has one validity rule,
a ``_check_*`` function that takes the name of the stage reporting it.  The
public stage functions call the rules of the inputs they read and then their
kernel; :func:`finite_key_rate` calls each rule once, with the stages'
messages and in the order the stages would reach them, and then the same
kernels.  So a chain evaluation computes the Chernoff parameter
beta = ln(1/eps) and e^-mu once each, and builds one breakdown.

Every operation is a pure function of its arguments: a full key-rate
evaluation is a value-in/value-out computation that can run in parallel
across parameter grid points.

A chain evaluation returns three audit records, :class:`KeyRateResult`,
:class:`PhaseErrorBreakdown` and :class:`KatoCoefficients`.  They are
built on every evaluation, thousands of times per curve, so they are
NamedTuples built positionally: as immutable and picklable as a frozen
dataclass at a fraction of the construction cost, and serialised through
``KeyRateResult.to_dict``.  :class:`SecurityBudget`, built once per command,
stays a frozen dataclass with its checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

from . import defaults
from .errors import DomainError
from .numerics import _check_range, _even_tails, _require_integer, _require_mu, binary_entropy

# sqrt(k! / (M+k)!) for each even k < M: a deviation factor over mu^(M/2).
_FACTORIAL_ROOTS = {
    m: tuple(math.sqrt(math.factorial(k) / math.factorial(m + k)) for k in range(0, m, 2))
    for m in defaults.SUPPORTED_M_SLICES
}

# Largest trial count at which every intermediate of _kato is finite, for any
# lambda in [0, n] and eps_ka down to 5e-324 (docs/DECISIONS.md, "One range rule").
KATO_N_MAX = 1.8e76


@dataclass(frozen=True)
class SecurityBudget:
    """Failure probabilities and bit costs of the postprocessing steps.

    eps is charged once per Chernoff application (the chain applies the
    bound twice, hence the 2*eps term below); xi and xi_prime are the
    privacy-amplification surplus and error-verification bit counts.

    Derived quantities:
        eps_sec = sqrt(2) * sqrt(2 eps + 2^-xi)
        eps_cor = 2^-xi_prime
        eps_tot = eps_sec + eps_cor + eps_ka
    """

    eps: float = defaults.EPS_CHERNOFF
    eps_ka: float = defaults.EPS_KATO
    xi: float = defaults.XI
    xi_prime: float = defaults.XI_PRIME

    def __post_init__(self):
        _check_probability("SecurityBudget", "eps", self.eps)
        _check_probability("SecurityBudget", "eps_ka", self.eps_ka)
        for name in ("xi", "xi_prime"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(
                    f"SecurityBudget: {name} must be finite and positive, got {value}"
                )

    @property
    def eps_sec(self) -> float:
        return math.sqrt(2.0) * math.sqrt(2.0 * self.eps + 2.0 ** (-self.xi))

    @property
    def eps_cor(self) -> float:
        return 2.0 ** (-self.xi_prime)

    @property
    def eps_tot(self) -> float:
        return self.eps_sec + self.eps_cor + self.eps_ka


def compose_epsilons(budget: SecurityBudget) -> tuple[float, float, float]:
    """Return (eps_sec, eps_cor, eps_tot) for the given budget."""
    return budget.eps_sec, budget.eps_cor, budget.eps_tot


def _beta(eps: float) -> float:
    return math.log(1.0 / _check_probability("Chernoff bound", "eps", eps))


def _expected_ub(x: float, beta: float) -> float:
    return x + beta + math.sqrt(2.0 * beta * x + beta * beta)


def _observed_ub(x_star: float, beta: float) -> float:
    return x_star + beta / 2.0 + math.sqrt(2.0 * beta * x_star + beta * beta / 4.0)


def _check_nonnegative(stage: str, name: str, value: float) -> None:
    if not value >= 0.0:  # NaN too
        raise DomainError(f"{stage}: {name} must be >= 0, got {value}")


def _check_finite_nonnegative(stage: str, name: str, value: float) -> None:
    _check_nonnegative(stage, name, value)
    if value == math.inf:
        raise DomainError(f"{stage}: {name} must be finite, got {value}")


def _check_rounds(stage: str, n_rounds: float) -> None:
    if not math.isfinite(n_rounds):
        raise DomainError(f"{stage}: n_rounds must be finite, got {n_rounds}")
    if n_rounds <= 0:
        raise DomainError(f"{stage}: n_rounds must be positive, got {n_rounds}")


def _check_probability(stage: str, name: str, value: float) -> float:
    """The one rule for a probability in (0, 1): the value as a float."""
    _check_range(stage, name, value, 0.0, 1.0, lo_open=True)
    return float(value)


def _check_slices(stage: str, m_slices) -> int:
    """The one rule for M: a slice count the chain's closed forms cover, as an
    int (8.0 is 8), or a DomainError naming that domain.  The chain, the
    tally, its file and the CLI all read M through it."""
    if m_slices not in defaults.SUPPORTED_M_SLICES:
        domain = " or ".join(map(str, defaults.SUPPORTED_M_SLICES))
        raise DomainError(f"{stage}: m_slices must be {domain}, got {m_slices}")
    return int(m_slices)


def _check_efficiency(stage: str, f: float) -> None:
    # An f below the Shannon limit of 1 would overstate the key.
    if not (math.isfinite(f) and f >= 1.0):
        raise DomainError(
            f"{stage}: f must be finite and >= 1 (the Shannon limit), got {f}"
        )


def chernoff_expected_ub(x: float, eps: float) -> float:
    """Upper bound on an expected value given an observed count x.

    phi(x) = x + beta + sqrt(2 beta x + beta^2) with beta = ln(1/eps).
    """
    _check_finite_nonnegative("chernoff_expected_ub", "x", x)
    return _expected_ub(x, _beta(eps))


def chernoff_observed_ub(x_star: float, eps: float) -> float:
    """Upper bound on an observed count given an expected value x*.

    Phi(x) = x + beta/2 + sqrt(2 beta x + beta^2 / 4).
    """
    _check_finite_nonnegative("chernoff_observed_ub", "x_star", x_star)
    return _observed_ub(x_star, _beta(eps))


def _check_sampled(m_s: float, p_s: float) -> None:
    _check_range("vacuum_yield_ub", "m_s", m_s, 0.0)
    _check_probability("vacuum_yield_ub", "p_s", p_s)


def _vacuum_yield(m_s: float, p_s: float, n_rounds: float, e_mu: float,
                  beta: float) -> float:
    """vacuum_yield_ub on checked inputs, with e_mu = e^-mu and beta = ln(1/eps)."""
    m_exp = (1.0 - p_s) / p_s * _expected_ub(m_s, beta)
    n0_obs = _observed_ub(2.0 * m_exp, beta)
    return min(n0_obs / (n_rounds * (1.0 - p_s) * e_mu), 1.0)


def vacuum_yield_ub(
    m_s: float, p_s: float, n_rounds: float, mu: float, eps: float
) -> float:
    """Upper bound on the vacuum yield from the sampled error count.

    Chain: the observed sampled errors m_s are lifted to an expected bound,
    scaled from the test fraction to the key fraction, doubled (vacuum
    clicks are random, so errors are half of them), converted back to an
    observed bound, and normalized by N (1-p_s) e^-mu.  Worst case: every
    error is attributed to vacuum.  Result is clamped to <= 1.
    """
    _check_sampled(m_s, p_s)
    _check_rounds("vacuum_yield_ub", n_rounds)
    _require_mu("vacuum_yield_ub", mu)  # e^-mu underflows to 0 past mu ~ 745
    return _vacuum_yield(m_s, p_s, n_rounds, math.exp(-mu), _beta(eps))


def _even_photon_terms(
    mu: float, e_mu: float, q_mu: float, y0_bar: float
) -> tuple[float, float]:
    """(vacuum, multiphoton) terms of the continuous-randomization bound.

    E_p <= e^-mu Y0 / Q + (e^-2mu + 1 - 2 e^-mu) / (2 Q), taking the worst
    case of unit yield for every even photon number >= 2.  On checked
    inputs, with e_mu = e^-mu.
    """
    vacuum = e_mu * y0_bar / q_mu
    multi = (math.exp(-2.0 * mu) + 1.0 - 2.0 * e_mu) / (2.0 * q_mu)
    return vacuum, multi


def _deviations(mu: float, m_slices: int, q_mu: float) -> tuple[float, ...]:
    """delta_k = (P_ub(k) / Q) * (mu^(M/2) sqrt(k! / (M+k)!)) for each even k < M.

    In order of k, and zeros at mu = 0.  P_ub(k) is
    pseudo_fock_weight_ub(mu, M, k).  Needs mu in [0, MU_MAX], an int M in
    {6, 8} and a finite Q > 0; callers validate.
    """
    if mu == 0.0:
        return (0.0,) * (m_slices // 2)
    power = mu ** (m_slices // 2)
    return tuple([
        (weight_ub / q_mu) * (power * root)
        for weight_ub, root in zip(_even_tails(mu, m_slices), _FACTORIAL_ROOTS[m_slices])
    ])


def deviation_bound(mu: float, m_slices: int, k: int, q_mu: float) -> float:
    """Discretization penalty for the even residue class k.

    delta_k <= (P_ub(k) / Q) * sqrt(k! mu^M / (M+k)!), with P_ub the
    closed-form residue-weight bound.  Supported for M in {6, 8} and even
    k < M, matching the cases the closed-form bounds cover.
    """
    m_slices = _check_slices("deviation_bound", m_slices)
    k = _require_integer("deviation_bound", "k", k)
    if k % 2 != 0 or not 0 <= k < m_slices:
        raise DomainError(
            f"deviation_bound: k must be even with 0 <= k < m_slices, got k={k}"
        )
    _check_range("deviation_bound", "q_mu", q_mu, 0.0, lo_open=True)
    _require_mu("deviation_bound", mu)
    return _deviations(mu, m_slices, q_mu)[k // 2]


class PhaseErrorBreakdown(NamedTuple):
    """Terms composing the discrete-phase phase-error rate.

    ep_m = vacuum_term + multiphoton_term + sum(deviations); ep_m_bar adds
    the Kato correction and is capped at 0.5 before entropy evaluation.
    """

    vacuum_term: float
    multiphoton_term: float
    deviations: tuple[float, ...]
    ep_m: float
    kato_delta: float = 0.0
    ep_m_bar: float = float("nan")


def _phase_error_terms(
    mu: float, e_mu: float, m_slices: int, q_mu: float, y0_bar: float
) -> tuple[float, float, tuple[float, ...], float]:
    """(vacuum, multiphoton, deviations, ep_m) of the discrete-phase bound.

    On checked inputs, with e_mu = e^-mu.
    """
    vacuum, multi = _even_photon_terms(mu, e_mu, q_mu, y0_bar)
    deviations = _deviations(mu, m_slices, q_mu)
    return vacuum, multi, deviations, vacuum + multi + sum(deviations)


def phase_error_discrete(
    mu: float, m_slices: int, q_mu: float, y0_bar: float
) -> PhaseErrorBreakdown:
    """Phase error rate with M-slice discrete randomization (no Kato term).

    Adds the residue-class deviations for k in {0, 2, ..., M-2} to the
    continuous-randomization bound, whose two terms the breakdown reports as
    vacuum_term and multiphoton_term.  The result is not clamped here; the
    key length caps it before entropy evaluation.
    """
    m_slices = _check_slices("phase_error_discrete", m_slices)
    _require_mu("phase_error_discrete", mu)
    _check_range("phase error", "q_mu", q_mu, 0.0, lo_open=True)
    _check_finite_nonnegative("phase_error_discrete", "y0_bar", y0_bar)
    return PhaseErrorBreakdown(
        *_phase_error_terms(mu, math.exp(-mu), m_slices, q_mu, y0_bar))


class KatoCoefficients(NamedTuple):
    """Coefficients of the Kato concentration bound, kept for audit.

    The (a, b) pair saturates the bound's failure probability at eps_ka:
    exp(-2 (b^2 - a^2) / (1 + 4a / (3 sqrt(n)))^2) = eps_ka, with a chosen
    to minimize the correction delta = [b + a (2 L/n - 1)] sqrt(n).
    """

    a: float
    b: float
    a1: float
    n: float
    lambda_n: float
    eps_ka: float
    delta: float


def kato_correction(n: float, lambda_n: float, eps_ka: float) -> KatoCoefficients:
    """Concentration correction for a dependent Bernoulli sum.

    n is the number of trials, lambda_n the (predicted) number of successes;
    returns the additive correction delta bounding the sum of conditional
    success probabilities above lambda_n, together with its coefficients.
    """
    _check_range("kato_correction", "n", n, 1.0, KATO_N_MAX, hi_open=False, finite=True)
    _check_successes(n, lambda_n)
    _check_probability("kato_correction", "eps_ka", eps_ka)
    return _kato(n, lambda_n, eps_ka)


def _check_successes(n: float, lambda_n: float) -> None:
    if not 0.0 <= lambda_n <= n:
        raise DomainError(
            f"kato_correction: lambda_n must be in [0, n], got {lambda_n} (n={n})"
        )


def _kato(n: float, lambda_n: float, eps_ka: float) -> KatoCoefficients:
    """kato_correction on checked inputs."""
    log_e = math.log(eps_ka)  # negative
    sqrt_n = math.sqrt(n)
    rad1 = -(n * n) * log_e * (9.0 * lambda_n * (n - lambda_n) - 2.0 * n * log_e)
    if rad1 < 0:
        raise ArithmeticError("kato_correction: negative radicand in a1")
    a1 = math.sqrt(rad1)
    num = 3.0 * (
        72.0 * sqrt_n * lambda_n * (n - lambda_n) * log_e
        - 16.0 * n * sqrt_n * log_e * log_e
        + 9.0 * math.sqrt(2.0) * (n - 2.0 * lambda_n) * a1
    )
    den = 4.0 * (9.0 * n - 8.0 * log_e) * (
        9.0 * lambda_n * (n - lambda_n) - 2.0 * n * log_e
    )
    a = num / den
    rad2 = 18.0 * a * a * n - (16.0 * a * a + 24.0 * a * sqrt_n + 9.0 * n) * log_e
    if rad2 < 0:
        raise ArithmeticError("kato_correction: negative radicand in b")
    b = math.sqrt(rad2) / (3.0 * math.sqrt(2.0 * n))
    delta = (b + a * (2.0 * lambda_n / n - 1.0)) * sqrt_n
    return KatoCoefficients(a, b, a1, n, lambda_n, eps_ka, delta)


def kato_epsilon(coeffs: KatoCoefficients) -> float:
    """Failure probability implied by (a, b): the bound's right-hand side."""
    a, b, n = coeffs.a, coeffs.b, coeffs.n
    return math.exp(
        -2.0 * (b * b - a * a) / (1.0 + 4.0 * a / (3.0 * math.sqrt(n))) ** 2
    )


def _kato_lift(n_mu: float, ep_m: float, eps_ka: float) -> tuple[KatoCoefficients, float]:
    """Kato coefficients at lambda = n ep (at most n), and the lifted ep_bar.

    ep_bar = (n ep + delta(n, n ep, eps_ka)) / n.  Makes kato_correction's
    checks of n and lambda; the caller checks eps_ka.
    """
    lambda_n = min(n_mu * ep_m, n_mu)
    _check_range("kato_correction", "n", n_mu, 1.0, KATO_N_MAX, hi_open=False, finite=True)
    _check_successes(n_mu, lambda_n)
    coeffs = _kato(n_mu, lambda_n, eps_ka)
    return coeffs, (n_mu * ep_m + coeffs.delta) / n_mu


def key_length(
    n_mu: float,
    ep_m_bar: float,
    e_b: float,
    f: float,
    budget: SecurityBudget,
    n_rounds: float,
) -> tuple[float, float]:
    """Extractable key length and rate.

    ell = n [1 - H(min(ep_bar, 0.5)) - f H(min(E_b, 0.5))] - xi - xi', floored
    at 0; the rate is ell / N.
    """
    _check_key_inputs(n_mu, e_b)
    _check_nonnegative("key_length", "ep_m_bar", ep_m_bar)
    _check_efficiency("key_length", f)
    _check_rounds("key_length", n_rounds)
    return _key_length(n_mu, ep_m_bar, e_b, f, budget, n_rounds)


def _check_key_inputs(n_mu: float, e_b: float) -> None:
    _check_range("key_length", "n_mu", n_mu, 0.0)
    _check_range("key_length", "e_b", e_b, 0.0, 1.0, hi_open=False)


def _key_length(
    n_mu: float,
    ep_m_bar: float,
    e_b: float,
    f: float,
    budget: SecurityBudget,
    n_rounds: float,
) -> tuple[float, float]:
    """key_length on checked inputs."""
    ep = min(ep_m_bar, 0.5)
    eb = min(e_b, 0.5)
    ell = n_mu * (1.0 - binary_entropy(ep) - f * binary_entropy(eb))
    ell -= budget.xi + budget.xi_prime
    ell = max(0.0, ell)
    return ell, ell / n_rounds


class KeyRateResult(NamedTuple):
    """Full audit record of one key-rate evaluation."""

    ell: float
    rate: float
    n_rounds: float
    n_mu: float
    e_b: float
    m_s: float
    mu: float
    m_slices: int
    p_s: float
    f: float
    q_mu: float
    y0_bar: float
    breakdown: PhaseErrorBreakdown
    kato: KatoCoefficients | None
    budget: SecurityBudget
    m_s_reconstructed: bool = False
    q_source: str = "closed-form"

    @property
    def ep_m(self) -> float:
        return self.breakdown.ep_m

    @property
    def ep_m_bar(self) -> float:
        return self.breakdown.ep_m_bar

    def to_dict(self) -> dict:
        """The fields in order, the nested records as dicts, then the derived values."""
        d = self._asdict()
        d["breakdown"] = self.breakdown._asdict()
        d["kato"] = None if self.kato is None else self.kato._asdict()
        d["budget"] = asdict(self.budget)
        d["eps_sec"] = self.budget.eps_sec
        d["eps_cor"] = self.budget.eps_cor
        d["eps_tot"] = self.budget.eps_tot
        d["ep_m"] = self.ep_m
        d["ep_m_bar"] = self.ep_m_bar
        return d


def finite_key_rate(
    *,
    mu: float,
    m_slices: int,
    n_rounds: float,
    p_s: float,
    f: float,
    q_mu: float,
    e_b: float,
    n_mu: float,
    m_s: float,
    budget: SecurityBudget,
) -> KeyRateResult:
    """Run the full bound chain on a set of observables.

    The observables (q_mu, e_b, n_mu, m_s) may come from closed forms, from
    a Monte Carlo tally, or from an ingested dataset; the chain itself does
    not care.  Every call checks every input and computes every term.  Only
    the Kato lift is skipped, where it is undefined: fewer than one sifted
    bit (n_mu < 1) or a phase-error bound beyond 1 (lambda past n).  There
    the lift is replaced by ep_m_bar = max(0.5, ep_m), which is 0.5 for a
    NaN ep_m too, so the key length is floored at 0 whatever the budget.
    An n_rounds that is not finite and positive, and an error-correction
    efficiency f below the Shannon limit of 1, are rejected first, under the
    chain's own name.
    """
    _check_rounds("finite_key_rate", n_rounds)
    _check_efficiency("finite_key_rate", f)
    # The stage functions' checks, each once and in the order the stages
    # would make them (a SecurityBudget has checked eps and eps_ka).
    _check_sampled(m_s, p_s)
    _require_mu("vacuum_yield_ub", mu)
    beta = math.log(1.0 / budget.eps)
    m_slices = _check_slices("phase_error_discrete", m_slices)
    _check_range("phase error", "q_mu", q_mu, 0.0, lo_open=True)
    e_mu = math.exp(-mu)
    y0_bar = _vacuum_yield(m_s, p_s, n_rounds, e_mu, beta)
    terms = _phase_error_terms(mu, e_mu, m_slices, q_mu, y0_bar)
    ep_m = terms[-1]
    if n_mu < 1.0 or not ep_m <= 1.0:
        # The lift is undefined; no key is extractable.  A NaN n_mu goes on
        # to the lift's check, and a NaN ep_m (an overflowed bound) is past 1.
        kato, kato_delta, ep_m_bar = None, 0.0, max(0.5, ep_m)
    else:
        kato, ep_m_bar = _kato_lift(n_mu, ep_m, budget.eps_ka)
        kato_delta = kato.delta
    breakdown = PhaseErrorBreakdown(*terms, kato_delta, ep_m_bar)
    _check_key_inputs(n_mu, e_b)
    ell, rate = _key_length(n_mu, ep_m_bar, e_b, f, budget, n_rounds)
    return KeyRateResult(
        ell, rate, n_rounds, n_mu, e_b, m_s, mu, m_slices, p_s, f, q_mu, y0_bar,
        breakdown, kato, budget,
    )
