"""Derivative-free maximization of the key rate over (mu, p_s).

A fixed log-grid pre-scan guarantees a floor on solution quality, and a
local search from the best grid point refines it.  At a fixed p_s (the
tabletop runs, ``scan`` and ``deviation``) the search is a golden-section
search on log10(mu) between the best grid point's two neighbours, run down
to a bracket width of 1e-9.  Only the co-optimization of mu and p_s
(``--optimize-ps``) uses Nelder-Mead, which is why ``scipy.optimize`` is
imported on that path alone.  Both steps are deterministic.  The best
candidate is always re-evaluated through the full pipeline before being
returned, so ``rate_opt`` is exactly the pipeline value at
(mu_opt, p_s_opt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .channel import ChannelSpec
from .errors import DomainError
from .pipeline import expected_key_rate
from .security import SecurityBudget

GRID_SHAPE = (50, 10)  # (mu points, p_s points) of the guaranteed pre-scan
LOG_MU_TOL = 1e-9      # bracket width, in log10(mu), where the 1-D search stops
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchBounds:
    mu: tuple[float, float] = defaults.MU_BOUNDS
    p_s: tuple[float, float] = defaults.P_S_BOUNDS

    def __post_init__(self):
        if not 0 < self.mu[0] < self.mu[1]:
            raise DomainError(f"SearchBounds: bad mu bounds {self.mu}")
        if not 0 < self.p_s[0] < self.p_s[1] < 1:
            raise DomainError(f"SearchBounds: bad p_s bounds {self.p_s}")


@dataclass
class OptimizationResult:
    mu_opt: float
    p_s_opt: float
    rate_opt: float
    evaluations: int
    trace: list[tuple[float, float, float]] = field(default_factory=list)
    feasible: bool = True


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

    def rate_at(mu: float, p_s: float) -> float:
        r = expected_key_rate(
            channel, mu, m_slices=m_slices, n_rounds=n_rounds, p_s=p_s,
            f=f, budget=budget,
        ).rate
        trace.append((mu, p_s, r))
        return r

    mu_grid = np.logspace(
        math.log10(bounds.mu[0]), math.log10(bounds.mu[1]), GRID_SHAPE[0]
    )
    if fixed_p_s is not None:
        ps_grid = np.array([fixed_p_s])
    else:
        ps_grid = np.linspace(bounds.p_s[0], bounds.p_s[1], GRID_SHAPE[1])

    best_i, best_ps, best_rate = 0, ps_grid[0], -1.0
    for i, mu in enumerate(mu_grid):
        for p_s in ps_grid:
            r = rate_at(float(mu), float(p_s))
            if r > best_rate:  # strict: the first maximum in grid order
                best_i, best_ps, best_rate = i, float(p_s), r
    best_mu = float(mu_grid[best_i])

    if best_rate <= 0.0:
        # Nothing on the grid yields a key; refinement from a flat zero
        # plateau has no gradient to follow, so report infeasibility.
        return OptimizationResult(
            mu_opt=best_mu, p_s_opt=best_ps, rate_opt=0.0,
            evaluations=len(trace), trace=trace, feasible=False,
        )

    if fixed_p_s is not None:
        # The bracket is clipped at the grid ends: at short distances the
        # optimum sits on the upper bound of mu.
        lo = math.log10(mu_grid[max(best_i - 1, 0)])
        hi = math.log10(mu_grid[min(best_i + 1, len(mu_grid) - 1)])
        _golden_section_max(lambda x: rate_at(10.0 ** x, fixed_p_s), lo, hi)
    else:
        _nelder_mead(rate_at, best_mu, best_ps, bounds)

    # The trace holds the grid, so its best point is never below best_rate.
    cand_mu, cand_ps, _ = max(trace, key=lambda t: t[2])
    final = expected_key_rate(
        channel, cand_mu, m_slices=m_slices, n_rounds=n_rounds, p_s=cand_ps,
        f=f, budget=budget,
    ).rate
    return OptimizationResult(
        mu_opt=cand_mu, p_s_opt=cand_ps, rate_opt=final,
        evaluations=len(trace), trace=trace, feasible=final > 0.0,
    )


def _golden_section_max(rate_of, lo: float, hi: float) -> None:
    """Narrow [lo, hi] around a maximum of rate_of down to LOG_MU_TOL.

    Each step keeps the sub-bracket on the side of the larger of the two
    interior values (the lower side on a tie) and costs one evaluation.  The
    caller reads the best point off its trace, so nothing is returned.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = rate_of(c), rate_of(d)
    while hi - lo > LOG_MU_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = rate_of(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = rate_of(d)


def _nelder_mead(rate_at, mu0: float, p_s0: float, bounds: SearchBounds) -> None:
    """Co-optimize (log10 mu, p_s) from a start point, clipped to the bounds."""
    lo_mu, hi_mu = math.log10(bounds.mu[0]), math.log10(bounds.mu[1])

    def neg_rate(vec) -> float:
        mu = 10.0 ** float(np.clip(vec[0], lo_mu, hi_mu))
        p_s = float(np.clip(vec[1], bounds.p_s[0], bounds.p_s[1]))
        return -rate_at(mu, p_s)

    # Imported here, not at module level: scipy.optimize adds ~50 MB and
    # ~0.6 s to a process, and only the co-optimization needs it.
    from scipy import optimize as sciopt

    sciopt.minimize(
        neg_rate, [math.log10(mu0), p_s0], method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 400},
    )
