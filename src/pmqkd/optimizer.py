"""Derivative-free maximization of the key rate over (mu, p_s).

A fixed log-grid pre-scan guarantees a floor on solution quality, and a
Nelder-Mead search from the best grid point refines it.  Both steps are
deterministic.  The best candidate is always re-evaluated through the full
pipeline before being returned, so ``rate_opt`` is exactly the pipeline
value at (mu_opt, p_s_opt).
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

    best_mu, best_ps, best_rate = mu_grid[0], ps_grid[0], -1.0
    for mu in mu_grid:
        for p_s in ps_grid:
            r = rate_at(float(mu), float(p_s))
            if r > best_rate:
                best_mu, best_ps, best_rate = float(mu), float(p_s), r

    if best_rate <= 0.0:
        # Nothing on the grid yields a key; refinement from a flat zero
        # plateau has no gradient to follow, so report infeasibility.
        return OptimizationResult(
            mu_opt=best_mu, p_s_opt=best_ps, rate_opt=0.0,
            evaluations=len(trace), trace=trace, feasible=False,
        )

    lo_mu, hi_mu = math.log10(bounds.mu[0]), math.log10(bounds.mu[1])

    def neg_rate(vec) -> float:
        mu = 10.0 ** float(np.clip(vec[0], lo_mu, hi_mu))
        if fixed_p_s is not None:
            p_s = fixed_p_s
        else:
            p_s = float(np.clip(vec[1], bounds.p_s[0], bounds.p_s[1]))
        return -rate_at(mu, p_s)

    # Imported here, not at module level: scipy.optimize adds ~50 MB and
    # ~0.6 s to every process that imports the CLI, and most commands never
    # optimize.
    from scipy import optimize as sciopt

    start = [math.log10(best_mu)]
    if fixed_p_s is None:
        start.append(best_ps)
    sciopt.minimize(
        neg_rate, start, method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 400},
    )

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
