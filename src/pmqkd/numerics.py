"""Numerically stable scalar kernels.

Binary entropy and the residue-class weights
P(k) = sum_l mu^(lM+k) e^-mu / (lM+k)!  that describe a weak coherent pulse
under M-slice discrete phase randomization, together with their closed-form
upper bounds for even k.

All functions are pure and reentrant.  The residue series run a ratio
recurrence from their first term, are truncated once a term drops below 1e-18 of the
running sum with the rest bounded by a geometric remainder, and are rounded
up by their own error bound, so none comes out below its exact value.
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

# Largest number of phase slices pseudo_fock_weight sums over: mu^M and the
# denominators (n+1)...(n+M) of the series stay finite up to MU_MAX.
_SLICES_MAX = 64

# Unit roundoff of a double, and its smallest subnormal.
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = 2.0 ** -1074


def binary_entropy(x: float) -> float:
    """Shannon entropy H(x) = -x log2 x - (1-x) log2 (1-x), in bits.

    The endpoints use the limit convention 0*log2(0) = 0 and return an exact
    0.0 rather than an epsilon-clamped approximation.
    """
    _check_range("binary_entropy", "x", x, 0.0, 1.0, hi_open=False)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_range(stage: str, name: str, value: float, lo: float, hi: float = math.inf,
                 lo_open: bool = False, hi_open: bool = True, finite: bool = False) -> None:
    """The one range rule: a DomainError naming stage and name unless lo <= value < hi,
    each end open or closed as lo_open and hi_open say; NaN fails every comparison.

    A bounded range reads "in [lo, hi)", after "finite and " if finite is set,
    and an unbounded one "finite and >= lo", each bound by :g.
    """
    if (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi):
        return
    if hi == math.inf:
        shape = f"finite and {'>' if lo_open else '>='} {lo:g}"
    else:
        shape = (f"{'finite and ' if finite else ''}in {'(' if lo_open else '['}{lo:g}, "
                 f"{hi:g}{')' if hi_open else ']'}")
    raise DomainError(f"{stage}: {name} must be {shape}, got {value}")


def _require_mu(func: str, mu: float) -> None:
    """Reject a mu the series cannot sum: NaN, infinite, negative or above MU_MAX.

    A NaN once sent the series into an endless loop, and a large finite mu
    into one of ~mu/2 steps.
    """
    _check_range(func, "mu", mu, 0.0, MU_MAX, hi_open=False, finite=True)


def _require_integer(func: str, name: str, value: float) -> int:
    """An integral value as an int (8.0 is 8); 2.5, NaN or inf is a DomainError."""
    if not (math.isfinite(value) and int(value) == value):
        raise DomainError(f"{func}: {name} must be an integer, got {value}")
    return int(value)


def _require_count(func: str, name: str, value: float, least: int = 0) -> int:
    """An integer >= least, by _require_integer's rule for an integral float."""
    if type(value) is not int:  # the counts of every tally a batch builds are ints
        value = _require_integer(func, name, value)
    if value < least:
        raise DomainError(f"{func}: {name} must be >= {least}, got {value}")
    return value


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
    """An upper bound on sum_{l>=0} e^-mu mu^n / n! over n = start + l*step.

    The first term is e^-mu mu^start / start!; e^-mu is a normal double up to
    MU_MAX, so no exp argument grows with n.  Each next term is the last one
    times mu^step / ((n+1)...(n+step)), a ratio that falls with n, so past
    the largest term what is left after a term is at most term * r / (1 - r)
    in its ratio r.  The sum stops once that geometric remainder is below
    1e-18 of the sum, and adds it.  The later terms are summed apart from the
    first, so at small mu, where the first dominates, their additions cost
    nothing.

    The sum is rounded up by the recurrence's own error bound, in units of
    u = 2^-53.  exp and pow add at most 2u each and every other operation at
    most u: the first term carries 7u, each step 5u more (pow's mu^step, the
    integer denominator's conversion, a division and a product), the
    remainder at most 12u more (its ratio is below ~0.6 where the sum
    stops), and each addition u of the partial sum.  One u goes to adding
    the first term, one to adding the bound, and one covers the terms in
    u^2.  Results below the normal range carry at most 2^-1074 per
    operation on top.

    Needs a finite mu > 0 and start, step <= _SLICES_MAX; callers validate.
    """
    mu_step = mu ** step
    first = math.exp(-mu) * mu ** start / math.factorial(start)
    rest = 0.0
    term = first
    n = start
    while term > 0.0:
        n += step
        ratio = mu_step / math.perm(n, step)  # (n-step+1)...n
        term *= ratio
        rest += term
        left = term * ratio  # what is left after term is at most left / (1 - ratio)
        if left < _REL_TERM_FLOOR * (first + rest) * (1.0 - ratio):
            rest += left / (1.0 - ratio)
            break
    # Roundings per later term, with the additions into rest.
    roundings = 20.0 + 6.0 * ((n - start) // step)
    total = first + rest
    bound = 10.0 * first + (roundings + 3.0) * rest
    return total + _UNIT_ROUNDOFF * bound + roundings * _TINY


def _even_tails(mu: float, m_slices: int = 8) -> tuple[float, ...]:
    """The even Poisson tails sum_{n >= k, n even} mu^n e^-mu / n! for each even
    k < m_slices, 4, 6 or 8: the tails M slices read, and no other.

    k = 0 and k = 2 have closed forms without cancellation, (1 + e^-2mu) / 2
    and expm1(-mu)^2 / 2; k = 4 and 6, whose closed forms cancel, are
    _residue_series(mu, k, 2).  Needs a finite mu > 0; callers validate.
    """
    t0 = 0.5 * (1.0 + math.exp(-2.0 * mu))
    t2 = 0.5 * math.expm1(-mu) ** 2
    if m_slices == 8:
        return (t0, t2, _residue_series(mu, 4, 2), _residue_series(mu, 6, 2))
    if m_slices == 6:
        return (t0, t2, _residue_series(mu, 4, 2))
    return (t0, t2)


def pseudo_fock_weight(mu: float, m_slices: int, k: int) -> PseudoFockWeight:
    """Series weight sum_{l>=0} mu^(lM+k) e^-mu / (lM+k)!.

    Summed by _residue_series, so never below the exact weight and within
    ~1e-12 of it; m_slices may be at most 64.
    """
    _require_mu("pseudo_fock_weight", mu)
    m_slices = _require_integer("pseudo_fock_weight", "m_slices", m_slices)
    k = _require_integer("pseudo_fock_weight", "k", k)
    _check_range("pseudo_fock_weight", "m_slices", m_slices, 2, _SLICES_MAX, hi_open=False)
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
    so those tails are evaluated as their positive term series, rounded up
    by _residue_series.

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
        raise DomainError(f"pseudo_fock_weight_ub: k must be 0, 2, 4 or 6, got {k}")
    if m_slices < k + 2:
        raise DomainError(
            f"pseudo_fock_weight_ub: need m_slices >= k + 2, got M={m_slices}, k={k}"
        )
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    # One tail: a series for k = 4 or 6, else the closed forms of M = 4.
    return _residue_series(mu, k, 2) if k >= 4 else _even_tails(mu, 4)[k // 2]
