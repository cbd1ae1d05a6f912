"""Derivative-free maximization of the key rate over (mu, p_s).

A fixed log-grid pre-scan guarantees a floor on solution quality, and a
golden-section search from the best grid point refines it.  At a fixed p_s
(the tabletop runs, ``scan`` and ``deviation``) the search runs on log10(mu)
between the best grid point's two neighbours, down to a bracket width of
1e-9.  The co-optimization of mu and p_s (``--optimize-ps``) nests two such
searches: an outer one on p_s between the best grid p_s's neighbours, down
to ``PS_TOL``, whose value at each p_s is an inner one on log10(mu)
between the best grid mu's neighbours, down to ``CO_LOG_MU_TOL``; with the
grid and the default bounds it costs at most 738 chain evaluations.  When
the best grid point lies on a ``SearchBounds`` edge, its bracket is clipped
there and the co-optimization evaluates that edge too, since the
short-range optima sit on mu = 0.1 or p_s = 0.01.  Everything is
deterministic.  The best candidate is re-evaluated through the full
pipeline, and ``OptimizationResult.result`` is that evaluation's
``KeyRateResult``: the rate, the per-term breakdown and the optimum
(mu_opt, p_s_opt, rate_opt) all read off it.  When no grid point yields a
key, ``result`` is the grid's own evaluation at the point reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .channel import ChannelSpec
from .errors import DomainError
from .pipeline import expected_key_rate
from .security import KeyRateResult, SecurityBudget

GRID_SHAPE = (50, 10)  # (mu points, p_s points) of the guaranteed pre-scan
LOG_MU_TOL = 1e-9      # bracket width, in log10(mu), where the 1-D search stops
PS_TOL = 1e-4          # co-optimization: bracket width where the p_s search stops
CO_LOG_MU_TOL = 1e-3   # co-optimization: the same for its inner log10(mu) search
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchBounds:
    mu: tuple[float, float] = defaults.MU_BOUNDS
    p_s: tuple[float, float] = defaults.P_S_BOUNDS

    def __post_init__(self):
        if not 0 < self.mu[0] < self.mu[1] < math.inf:
            raise DomainError(f"SearchBounds: bad mu bounds {self.mu}")
        if not 0 < self.p_s[0] < self.p_s[1] < 1:
            raise DomainError(f"SearchBounds: bad p_s bounds {self.p_s}")


@dataclass(frozen=True)
class OptimizationResult:
    """The chain evaluation at the optimum, and every (mu, p_s, rate) tried."""

    result: KeyRateResult
    trace: list[tuple[float, float, float]]

    @property
    def mu_opt(self) -> float:
        return self.result.mu

    @property
    def p_s_opt(self) -> float:
        return self.result.p_s

    @property
    def rate_opt(self) -> float:
        return self.result.rate

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    @property
    def feasible(self) -> bool:
        return self.rate_opt > 0.0


def optimize(
    channel: ChannelSpec,
    n_rounds: float,
    m_slices: int,
    budget: SecurityBudget | None = None,
    bounds: SearchBounds | None = None,
    f: float = defaults.F_EC,
    fixed_p_s: float | None = None,
    seed: int = 0,
) -> OptimizationResult:
    """Maximize the finite-key rate at a fixed channel and budget.

    With ``fixed_p_s`` the search runs over mu only (the tabletop runs pin
    the sampling fraction); otherwise mu and p_s are co-optimized.  The
    result is never worse than the best point of the grid pre-scan.  The
    search is deterministic; ``seed`` is accepted for compatibility and has
    no effect.
    """
    if budget is None:
        budget = SecurityBudget()
    if bounds is None:
        bounds = SearchBounds()
    if fixed_p_s is not None and not 0.0 < fixed_p_s < 1.0:
        raise DomainError(f"optimize: fixed_p_s must be in (0, 1), got {fixed_p_s}")

    trace: list[tuple[float, float, float]] = []

    def chain(mu: float, p_s: float) -> KeyRateResult:
        return expected_key_rate(
            channel, mu, m_slices=m_slices, n_rounds=n_rounds, p_s=p_s,
            f=f, budget=budget,
        )

    def evaluate(mu: float, p_s: float) -> KeyRateResult:
        """One search evaluation, recorded in the trace."""
        res = chain(mu, p_s)
        trace.append((mu, p_s, res.rate))
        return res

    mu_grid = np.logspace(
        math.log10(bounds.mu[0]), math.log10(bounds.mu[1]), GRID_SHAPE[0]
    )
    if fixed_p_s is not None:
        ps_grid = np.array([fixed_p_s])
    else:
        ps_grid = np.linspace(bounds.p_s[0], bounds.p_s[1], GRID_SHAPE[1])

    best_i, best_j, best = 0, 0, None
    for i, mu in enumerate(mu_grid):
        for j, p_s in enumerate(ps_grid):
            res = evaluate(float(mu), float(p_s))
            # strict: the first maximum in grid order
            if best is None or res.rate > best.rate:
                best_i, best_j, best = i, j, res

    if best.rate <= 0.0:
        # Nothing on the grid yields a key; refinement from a flat zero
        # plateau has no gradient to follow, so report infeasibility.
        return OptimizationResult(result=best, trace=trace)

    mu_lo, mu_hi, mu_ends = _bracket([math.log10(mu) for mu in mu_grid], best_i)
    if fixed_p_s is not None:
        # The grid has already evaluated a clipped end at this p_s.
        _golden_section_max(lambda x: evaluate(10.0 ** x, fixed_p_s).rate,
                            mu_lo, mu_hi, LOG_MU_TOL)
    else:
        def best_over_mu(p_s: float) -> float:
            return _golden_section_max(lambda x: evaluate(10.0 ** x, p_s).rate,
                                       mu_lo, mu_hi, CO_LOG_MU_TOL, mu_ends)

        ps_lo, ps_hi, ps_ends = _bracket([float(p) for p in ps_grid], best_j)
        _golden_section_max(best_over_mu, ps_lo, ps_hi, PS_TOL, ps_ends)

    # The trace holds the grid, so its best point is never below best.rate.
    cand_mu, cand_ps, _ = max(trace, key=lambda t: t[2])
    return OptimizationResult(result=chain(cand_mu, cand_ps), trace=trace)


def _bracket(grid: list[float], k: int) -> tuple[float, float, tuple[float, ...]]:
    """The neighbours of grid[k], clipped at the grid ends, and the clipped end.

    At short distances the optimum sits on a bound (mu = 0.1, p_s = 0.01),
    which a golden-section search only approaches; a search whose bracket is
    clipped there evaluates that end as well.
    """
    last = len(grid) - 1
    ends = (grid[k],) if k in (0, last) else ()
    return grid[max(k - 1, 0)], grid[min(k + 1, last)], ends


def _golden_section_max(rate_of, lo: float, hi: float, tol: float,
                        ends: tuple = ()) -> float:
    """Narrow [lo, hi] around a maximum of rate_of down to a width of tol.

    The points in ``ends`` are evaluated once first.  Each step keeps the
    sub-bracket on the side of the larger of the two interior values (the
    lower side on a tie) and costs one evaluation, so the larger interior
    value never leaves the bracket.  Returns the largest value seen; callers
    that need the point read it off their trace.
    """
    end_rates = [rate_of(x) for x in ends]
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = rate_of(c), rate_of(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = rate_of(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = rate_of(d)
    return max(fc, fd, *end_rates)
