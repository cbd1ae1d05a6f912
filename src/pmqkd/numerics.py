"""Numerically stable scalar kernels.

Binary entropy, Poisson photon-number weights, and the residue-class weights
P(k) = sum_l mu^(lM+k) e^-mu / (lM+k)!  that describe a weak coherent pulse
under M-slice discrete phase randomization, together with their closed-form
upper bounds for even k.

All functions are pure and reentrant.  Factorial ratios go through log-gamma
so nothing overflows past k ~ 170, and series are truncated only once a term
drops below 1e-18 of the running sum (terms are positive and eventually
decreasing, so the discarded tail is bounded by a geometric remainder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Relative size at which a series term is considered exhausted.
_REL_TERM_FLOOR = 1e-18

# Largest intensity the series are summed at.  They start at n = 0, whose
# term e^-mu is a normal double only up to mu ~ 708; beyond it the leading
# terms underflow to 0 and the loop steps ~mu/2 times before a term counts.
MU_MAX = 700.0

def binary_entropy(x: float) -> float:
    """Shannon entropy H(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    The endpoints use the limit convention 0*log2(0) = 0 and return an exact
    0.0 rather than an epsilon-clamped approximation.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy: x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _require_mu(func: str, mu: float) -> None:
    """Reject a mu the series cannot sum: NaN, infinite, negative or above MU_MAX.

    A NaN once sent the series into an endless loop, and a large finite mu
    into one of ~mu/2 steps.
    """
    if not 0.0 <= mu <= MU_MAX:
        raise DomainError(f"{func}: mu must be finite and in [0, {MU_MAX:g}], got {mu}")


def _require_integer(func: str, name: str, value: float) -> int:
    """An integral value as an int (8.0 is 8); 2.5, NaN or inf is a DomainError."""
    if not (math.isfinite(value) and int(value) == value):
        raise DomainError(f"{func}: {name} must be an integer, got {value}")
    return int(value)


def poisson_pmf(mu: float, k: int) -> float:
    """Poisson weight e^-mu mu^k / k!, evaluated in the log domain.

    Exact at k = 0 by construction (returns e^-mu directly).
    """
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"poisson_pmf: mu must be finite and >= 0, got {mu}")
    k = _require_integer("poisson_pmf", "k", k)
    if k < 0:
        raise DomainError(f"poisson_pmf: k must be a nonnegative integer, got {k}")
    if k == 0:
        return math.exp(-mu)
    if mu == 0.0:
        return 0.0
    return math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))


@dataclass(frozen=True)
class PseudoFockWeight:
    """Weight of the residue class k mod M in a phase-randomized pulse.

    For fixed (mu, m_slices) the weights over k = 0 .. M-1 sum to one, and
    each weight dominates the plain Poisson term of the same k.
    """

    mu: float
    m_slices: int
    k: int
    weight: float


def _residue_series(mu: float, start: int, step: int) -> float:
    """sum_{l>=0} mu^(start + l*step) e^-mu / (start + l*step)!.

    Positive terms only; truncated once a term falls below 1e-18 of the
    running sum.
    """
    log_mu = math.log(mu)
    total = 0.0
    n = start
    while True:
        term = math.exp(-mu + n * log_mu - math.lgamma(n + 1))
        total += term
        if total > 0.0 and term < _REL_TERM_FLOOR * total:
            break
        if term == 0.0 and n > mu:
            break  # below double range; remaining terms are smaller still
        n += step
    return total


def _even_tails(mu: float) -> tuple[float, float, float, float]:
    """The even Poisson tails sum_{n >= k, n even} mu^n e^-mu / n! for k = 0, 2, 4, 6.

    k = 0 and k = 2 have closed forms without cancellation, (1 + e^-2mu) / 2
    and expm1(-mu)^2 / 2; k = 4 and 6, whose closed forms cancel, are
    _residue_series(mu, k, 2).  Needs a finite mu > 0; callers validate.
    """
    return (
        0.5 * (1.0 + math.exp(-2.0 * mu)),
        0.5 * math.expm1(-mu) ** 2,
        _residue_series(mu, 4, 2),
        _residue_series(mu, 6, 2),
    )


def pseudo_fock_weight(mu: float, m_slices: int, k: int) -> PseudoFockWeight:
    """Series weight sum_{l>=0} mu^(lM+k) e^-mu / (lM+k)!.

    Truncates when a term falls below 1e-18 of the running sum.
    """
    _require_mu("pseudo_fock_weight", mu)
    m_slices = _require_integer("pseudo_fock_weight", "m_slices", m_slices)
    k = _require_integer("pseudo_fock_weight", "k", k)
    if m_slices < 2:
        raise DomainError(f"pseudo_fock_weight: m_slices must be >= 2, got {m_slices}")
    if not 0 <= k < m_slices:
        raise DomainError(
            f"pseudo_fock_weight: k must satisfy 0 <= k < m_slices, got k={k}, M={m_slices}"
        )
    if mu == 0.0:
        return PseudoFockWeight(mu, m_slices, k, 1.0 if k == 0 else 0.0)
    return PseudoFockWeight(mu, m_slices, k, _residue_series(mu, k, m_slices))


def pseudo_fock_weight_ub(mu: float, m_slices: int, k: int) -> float:
    """Closed-form upper bound on pseudo_fock_weight(mu, m_slices, k).weight.

    Relaxing the index set lM + k to all even integers >= k (valid for even
    k and even M) gives the even Poisson tail, whose closed forms are
        k = 0: (1 + e^-2mu) / 2
        k = 2: (1 + e^-2mu - 2 e^-mu) / 2 = expm1(-mu)^2 / 2
        k = 4: (1 + e^-2mu - 2 e^-mu - mu^2 e^-mu) / 2
        k = 6: (1 + e^-2mu - 2 e^-mu - mu^2 e^-mu - 2 mu^4 e^-mu / 4!) / 2.
    k = 0 and 2 are evaluated in closed form (k = 2 in its expm1 form), which
    cancels nothing.  The k = 4 and 6 forms cancel catastrophically in doubles
    once the tail is below ~1e-13, which would break the dominance guarantee,
    so those tails are evaluated as their positive term series.

    Supported for k in {0, 2, 4, 6} with even m_slices >= k + 2; the step-2
    relaxation requires every index lM + k to be even.
    """
    _require_mu("pseudo_fock_weight_ub", mu)
    m_slices = _require_integer("pseudo_fock_weight_ub", "m_slices", m_slices)
    k = _require_integer("pseudo_fock_weight_ub", "k", k)
    if m_slices % 2 != 0:
        raise DomainError(
            f"pseudo_fock_weight_ub: m_slices must be even, got {m_slices}"
        )
    if k not in (0, 2, 4, 6):
        raise DomainError(
            f"pseudo_fock_weight_ub: only k in {{0, 2, 4, 6}} is supported, got {k}"
        )
    if m_slices < k + 2:
        raise DomainError(
            f"pseudo_fock_weight_ub: need m_slices >= k + 2, got M={m_slices}, k={k}"
        )
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    return _even_tails(mu)[k // 2]
