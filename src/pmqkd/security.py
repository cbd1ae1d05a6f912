"""Finite-key bound chain.

Chernoff conversions between observed and expected counts, the vacuum-yield
upper bound, continuous and discrete-phase phase-error rates, the Kato
concentration correction lifting the analysis to coherent attacks, and the
final key-length formula with its failure-probability composition.

Each bound has one implementation: the public stage functions and the full
chain in :func:`finite_key_rate` share the even-photon terms and the Kato
lift.  The Chernoff parameter is beta = ln(1/eps).

All operations are pure functions of their arguments; a full key-rate
evaluation is a value-in/value-out computation that can run in parallel
across parameter grid points.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from . import defaults
from .errors import DomainError, NoDataError
from .numerics import binary_entropy, pseudo_fock_weight_ub


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
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"SecurityBudget: eps must be in (0, 1), got {self.eps}")
        if not 0.0 < self.eps_ka < 1.0:
            raise DomainError(
                f"SecurityBudget: eps_ka must be in (0, 1), got {self.eps_ka}"
            )
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
    if not 0.0 < eps < 1.0:
        raise DomainError(f"Chernoff bound: eps must be in (0, 1), got {eps}")
    return math.log(1.0 / eps)


def chernoff_expected_ub(x: float, eps: float) -> float:
    """Upper bound on an expected value given an observed count x.

    phi(x) = x + beta + sqrt(2 beta x + beta^2) with beta = ln(1/eps).
    """
    if x < 0:
        raise DomainError(f"chernoff_expected_ub: x must be >= 0, got {x}")
    beta = _beta(eps)
    return x + beta + math.sqrt(2.0 * beta * x + beta * beta)


def chernoff_observed_ub(x_star: float, eps: float) -> float:
    """Upper bound on an observed count given an expected value x*.

    Phi(x) = x + beta/2 + sqrt(2 beta x + beta^2 / 4).
    """
    if x_star < 0:
        raise DomainError(f"chernoff_observed_ub: x_star must be >= 0, got {x_star}")
    beta = _beta(eps)
    return x_star + beta / 2.0 + math.sqrt(2.0 * beta * x_star + beta * beta / 4.0)


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
    if m_s < 0:
        raise DomainError(f"vacuum_yield_ub: m_s must be >= 0, got {m_s}")
    if not 0.0 < p_s < 1.0:
        raise DomainError(f"vacuum_yield_ub: p_s must be in (0, 1), got {p_s}")
    if n_rounds <= 0:
        raise DomainError("vacuum_yield_ub: n_rounds must be positive")
    if mu < 0:
        raise DomainError(f"vacuum_yield_ub: mu must be >= 0, got {mu}")
    m_s_exp = chernoff_expected_ub(m_s, eps)
    m_exp = (1.0 - p_s) / p_s * m_s_exp
    n0_exp = 2.0 * m_exp
    n0_obs = chernoff_observed_ub(n0_exp, eps)
    y0 = n0_obs / (n_rounds * (1.0 - p_s) * math.exp(-mu))
    return min(y0, 1.0)


def _even_photon_terms(mu: float, q_mu: float, y0_bar: float) -> tuple[float, float]:
    """(vacuum, multiphoton) terms of the continuous-randomization bound."""
    if q_mu <= 0:
        raise DomainError(f"phase error: q_mu must be > 0, got {q_mu}")
    vacuum = math.exp(-mu) * y0_bar / q_mu
    multi = (math.exp(-2.0 * mu) + 1.0 - 2.0 * math.exp(-mu)) / (2.0 * q_mu)
    return vacuum, multi


def phase_error_continuous(mu: float, q_mu: float, y0_bar: float) -> float:
    """Phase error rate under continuous phase randomization.

    E_p <= e^-mu Y0 / Q + (e^-2mu + 1 - 2 e^-mu) / (2 Q), taking the worst
    case of unit yield for every even photon number >= 2.  The result is not
    clamped here; callers cap it before entropy evaluation.
    """
    vacuum, multi = _even_photon_terms(mu, q_mu, y0_bar)
    return vacuum + multi


def deviation_bound(mu: float, m_slices: int, k: int, q_mu: float) -> float:
    """Discretization penalty for the even residue class k.

    delta_k <= (P_ub(k) / Q) * sqrt(k! mu^M / (M+k)!), with P_ub the
    closed-form residue-weight bound.  Supported for M in {6, 8} and even
    k < M, matching the cases the closed-form bounds cover.
    """
    if m_slices not in (6, 8):
        raise DomainError(
            f"deviation_bound: m_slices must be 6 or 8, got {m_slices}"
        )
    if k % 2 != 0 or not 0 <= k < m_slices:
        raise DomainError(
            f"deviation_bound: k must be even with 0 <= k < m_slices, got k={k}"
        )
    if q_mu <= 0:
        raise DomainError(f"deviation_bound: q_mu must be > 0, got {q_mu}")
    if mu < 0:
        raise DomainError(f"deviation_bound: mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    weight_ub = pseudo_fock_weight_ub(mu, m_slices, k)
    log_factor = 0.5 * (
        math.lgamma(k + 1) + m_slices * math.log(mu) - math.lgamma(m_slices + k + 1)
    )
    return (weight_ub / q_mu) * math.exp(log_factor)


@dataclass(frozen=True)
class PhaseErrorBreakdown:
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


def phase_error_discrete(
    mu: float, m_slices: int, q_mu: float, y0_bar: float
) -> PhaseErrorBreakdown:
    """Phase error rate with M-slice discrete randomization (no Kato term).

    Adds the residue-class deviations for k in {0, 2, ..., M-2} to the
    continuous-randomization bound.
    """
    if m_slices not in (6, 8):
        raise DomainError(
            f"phase_error_discrete: m_slices must be 6 or 8, got {m_slices}"
        )
    vacuum, multi = _even_photon_terms(mu, q_mu, y0_bar)
    deviations = tuple(
        deviation_bound(mu, m_slices, k, q_mu) for k in range(0, m_slices, 2)
    )
    ep_m = vacuum + multi + sum(deviations)
    return PhaseErrorBreakdown(
        vacuum_term=vacuum,
        multiphoton_term=multi,
        deviations=deviations,
        ep_m=ep_m,
    )


@dataclass(frozen=True)
class KatoCoefficients:
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
    if n < 1:
        raise DomainError(f"kato_correction: n must be >= 1, got {n}")
    if not 0.0 <= lambda_n <= n:
        raise DomainError(
            f"kato_correction: lambda_n must be in [0, n], got {lambda_n} (n={n})"
        )
    if not 0.0 < eps_ka < 1.0:
        raise DomainError(f"kato_correction: eps_ka must be in (0, 1), got {eps_ka}")
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
    return KatoCoefficients(
        a=a, b=b, a1=a1, n=n, lambda_n=lambda_n, eps_ka=eps_ka, delta=delta
    )


def kato_epsilon(coeffs: KatoCoefficients) -> float:
    """Failure probability implied by (a, b): the bound's right-hand side."""
    a, b, n = coeffs.a, coeffs.b, coeffs.n
    return math.exp(
        -2.0 * (b * b - a * a) / (1.0 + 4.0 * a / (3.0 * math.sqrt(n))) ** 2
    )


def _kato_lift(
    n_mu: float, ep_m: float, eps_ka: float
) -> tuple[KatoCoefficients, float]:
    """Kato coefficients at lambda = n ep (at most n), and the lifted ep_bar."""
    coeffs = kato_correction(n_mu, min(n_mu * ep_m, n_mu), eps_ka)
    return coeffs, (n_mu * ep_m + coeffs.delta) / n_mu


def phase_error_final(n_mu: float, ep_m: float, eps_ka: float) -> float:
    """Lift the phase error rate to cover coherent attacks.

    ep_bar = (n ep + delta(n, n ep, eps_ka)) / n.  Downstream entropy
    evaluation caps the result at 0.5.
    """
    if n_mu < 1:
        raise NoDataError(f"phase_error_final: need n_mu >= 1, got {n_mu}")
    if ep_m < 0:
        raise DomainError(f"phase_error_final: ep_m must be >= 0, got {ep_m}")
    return _kato_lift(n_mu, ep_m, eps_ka)[1]


def key_length(
    n_mu: float,
    ep_m_bar: float,
    e_b: float,
    f: float,
    budget: SecurityBudget,
    n_rounds: float,
) -> tuple[float, float]:
    """Extractable key length and rate.

    ell = n [1 - H(min(ep_bar, 0.5)) - f H(E_b)] - xi - xi', floored at 0;
    the rate is ell / N.
    """
    if n_mu < 0:
        raise DomainError(f"key_length: n_mu must be >= 0, got {n_mu}")
    if n_rounds <= 0:
        raise DomainError("key_length: n_rounds must be positive")
    ep = min(ep_m_bar, 0.5)
    eb = min(e_b, 0.5)
    ell = n_mu * (1.0 - binary_entropy(ep) - f * binary_entropy(eb))
    ell -= budget.xi + budget.xi_prime
    ell = max(0.0, ell)
    return ell, ell / n_rounds


@dataclass(frozen=True)
class KeyRateResult:
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
        d = asdict(self)
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
    m_s_reconstructed: bool = False,
    q_source: str = "closed-form",
) -> KeyRateResult:
    """Run the full bound chain on a set of observables.

    The observables (q_mu, e_b, n_mu, m_s) may come from closed forms, from
    a Monte Carlo tally, or from an ingested dataset; the chain itself does
    not care.  Degenerate inputs (no sifted data, or a phase error bound
    beyond 1) short-circuit to a zero-rate result with the breakdown kept
    for audit.  An error-correction efficiency f below the Shannon limit of
    1 would overstate the key, so it is rejected, as is a non-finite n_rounds.
    """
    if not math.isfinite(n_rounds):
        raise DomainError(f"finite_key_rate: n_rounds must be finite, got {n_rounds}")
    if not (math.isfinite(f) and f >= 1.0):
        raise DomainError(
            f"finite_key_rate: f must be finite and >= 1 (the Shannon limit), got {f}"
        )
    kato = None
    if n_mu < 1:
        y0_bar, ell, rate = 0.0, 0.0, 0.0
        breakdown = PhaseErrorBreakdown(0.0, 0.0, (), 0.0, 0.0, 0.5)
    else:
        y0_bar = vacuum_yield_ub(m_s, p_s, n_rounds, mu, budget.eps)
        breakdown = phase_error_discrete(mu, m_slices, q_mu, y0_bar)
        if breakdown.ep_m <= 1.0:
            kato, ep_m_bar = _kato_lift(n_mu, breakdown.ep_m, budget.eps_ka)
            breakdown = replace(breakdown, kato_delta=kato.delta, ep_m_bar=ep_m_bar)
        else:
            # No key is extractable; the Kato lift is undefined past lambda = n.
            breakdown = replace(breakdown, ep_m_bar=breakdown.ep_m)
        ell, rate = key_length(n_mu, breakdown.ep_m_bar, e_b, f, budget, n_rounds)
    return KeyRateResult(
        ell=ell, rate=rate, n_rounds=n_rounds, n_mu=n_mu, e_b=e_b, m_s=m_s,
        mu=mu, m_slices=m_slices, p_s=p_s, f=f, q_mu=q_mu, y0_bar=y0_bar,
        breakdown=breakdown, kato=kato, budget=budget,
        m_s_reconstructed=m_s_reconstructed, q_source=q_source,
    )
