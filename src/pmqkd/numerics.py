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

# ln n! for n = 0 .. 170 (170! is the largest factorial a double holds).
# Each entry is math.lgamma(n + 1), so a lookup gives the same double.
_LOG_FACTORIAL = tuple(math.lgamma(n + 1) for n in range(171))


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


def poisson_pmf(mu: float, k: int) -> float:
    """Poisson weight e^-mu mu^k / k!, evaluated in the log domain.

    Exact at k = 0 by construction (returns e^-mu directly).
    """
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"poisson_pmf: mu must be finite and >= 0, got {mu}")
    if k < 0 or int(k) != k:
        raise DomainError(f"poisson_pmf: k must be a nonnegative integer, got {k}")
    k = int(k)
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


def _even_poisson_tails(mu: float) -> tuple[float, float, float, float]:
    """The even Poisson tails sum_{n >= k, n even} mu^n e^-mu / n! for k = 0, 2, 4, 6.

    Each tail is bit-identical to _residue_series(mu, k, 2): the same terms,
    summed in the same order and cut by the same two rules.  One pass
    computes each term once and adds it to every tail that has begun.  A
    smaller k has the larger running sum, so the tails close in order of k.
    Needs a finite mu > 0; callers validate.
    """
    log_mu = math.log(mu)
    tails: list[float] = []
    open_sums: list[float] = []  # running sums of the tails from k = 2 * len(tails)
    n = 0
    while True:
        log_n_fact = _LOG_FACTORIAL[n] if n <= 170 else math.lgamma(n + 1)
        term = math.exp(-mu + n * log_mu - log_n_fact)
        if n <= 6:
            open_sums.append(0.0)  # the tail from k = n begins with this term
        for i in range(len(open_sums)):
            open_sums[i] += term
        while open_sums and (
            (open_sums[0] > 0.0 and term < _REL_TERM_FLOOR * open_sums[0])
            or (term == 0.0 and n > mu)
        ):
            tails.append(open_sums.pop(0))
        if n >= 6 and not open_sums:
            return tuple(tails)
        n += 2


def pseudo_fock_weight(mu: float, m_slices: int, k: int) -> PseudoFockWeight:
    """Series weight sum_{l>=0} mu^(lM+k) e^-mu / (lM+k)!.

    Truncates when a term falls below 1e-18 of the running sum.
    """
    _require_mu("pseudo_fock_weight", mu)
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
        k = 2: (1 + e^-2mu - 2 e^-mu) / 2
        k = 4: (1 + e^-2mu - 2 e^-mu - mu^2 e^-mu) / 2
        k = 6: (1 + e^-2mu - 2 e^-mu - mu^2 e^-mu - 2 mu^4 e^-mu / 4!) / 2.
    Those alternating forms cancel catastrophically in doubles once the tail
    is below ~1e-13, which would break the dominance guarantee, so the tail
    is evaluated as its positive term series instead (identical value).

    Supported for k in {0, 2, 4, 6} with even m_slices >= k + 2; the step-2
    relaxation requires every index lM + k to be even.
    """
    _require_mu("pseudo_fock_weight_ub", mu)
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
    return _even_poisson_tails(mu)[k // 2]
