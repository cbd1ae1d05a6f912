"""Derivative-free maximization of the key rate over (mu, p_s).

A pre-scan of a fixed grid (50 log-spaced mu values, times 10 p_s values
when p_s is co-optimized) finds a starting point, and a bounded Brent search
from it refines it: parabolic steps through the three best points, with
golden-section steps where a parabola does not fit (the scheme of scipy's
``fminbound``, in pure Python).  Each p_s row of the grid is scanned at
every other mu and the last one, and then climbed from its best point to a
strictly better neighbour until neither neighbour is better; a row where
none of those points yields a key is evaluated in full, so feasibility is
still decided on the whole grid.  On a row that rises to one maximum and
falls, the climb ends on the grid's own maximum; on any row it is never
below the best of the points scanned.  A fixed-p_s call given the result at
a neighbouring point (each point of ``scan`` after the first) skips
the scan: it climbs from the grid point nearest that result's
mu_opt, and scans as above only when that result or the climb has no key.
On a row with one maximum it ends where the scan would; on a row with two
it may end on the lower one (docs/DECISIONS.md, "Scans climb from the
previous point").  At a fixed p_s (the tabletop runs and
``scan``) the refinement runs on log10(mu) between the
best grid point's two neighbours, to an absolute tolerance of
``LOG_MU_TOL``.  The co-optimization of mu and p_s (``--optimize-ps``)
nests two such searches: an outer one on p_s between the best grid p_s's
neighbours, to ``PS_TOL``, whose value at each p_s is an inner one on
log10(mu) between the best grid mu's neighbours, to ``CO_LOG_MU_TOL``.
When the best grid point lies on a ``SearchBounds`` edge, its bracket is
clipped there and the co-optimization evaluates that edge too, since the
short-range optima sit on mu = 0.1 or p_s = 0.01.  Everything is
deterministic; docs/DECISIONS.md has the evaluation counts.  The best
candidate is re-evaluated through the full pipeline, and
``OptimizationResult.result`` is that evaluation's ``KeyRateResult``: the
rate, the per-term breakdown and the optimum (mu_opt, p_s_opt, rate_opt)
all read off it.  When no grid point yields a key, ``result`` is the grid's
own evaluation at the point reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import defaults
from .channel import ChannelSpec
from .errors import DomainError
from .numerics import MU_MAX, _require_count
from .pipeline import expected_key_rate
from .security import KeyRateResult, SecurityBudget, _check_probability

GRID_SHAPE = (50, 10)  # (mu points, p_s points) of the pre-scan
LOG_MU_TOL = 1e-9      # absolute tolerance, in log10(mu), of the 1-D search
PS_TOL = 1e-4          # co-optimization: absolute tolerance of the p_s search
CO_LOG_MU_TOL = 3e-4   # co-optimization: the same for its inner log10(mu) search
_GOLDEN_MEAN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, a share of the bracket
_SQRT_EPS = math.sqrt(2.2e-16)  # relative resolution of a search point, as in fminbound


@dataclass(frozen=True)
class SearchBounds:
    mu: tuple[float, float] = defaults.MU_BOUNDS
    p_s: tuple[float, float] = defaults.P_S_BOUNDS

    def __post_init__(self):
        if not 0 < self.mu[0] < self.mu[1] <= MU_MAX:
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
    *,
    previous: OptimizationResult | None = None,
) -> OptimizationResult:
    """Maximize the finite-key rate at a fixed channel and budget.

    With ``fixed_p_s`` the search runs over mu only (the tabletop runs pin
    the sampling fraction); otherwise mu and p_s are co-optimized.  The
    search is deterministic; ``seed`` is accepted for compatibility and has
    no effect.

    ``previous`` is the result at a neighbouring point, such as the last
    point of a scan.  When it has a key and p_s is fixed, the mu row is
    climbed from the grid point nearest its mu_opt instead of pre-scanned;
    a climb that ends without a key falls back to the pre-scan.  Without
    ``previous`` (a cold call) the result is never worse than the best grid
    point the pre-scan evaluated; with it, never worse than the grid point
    the climb ends on.
    """
    if budget is None:
        budget = SecurityBudget()
    if bounds is None:
        bounds = SearchBounds()
    if fixed_p_s is not None:
        _check_probability("optimize", "fixed_p_s", fixed_p_s)
    _require_count("optimize", "seed", seed)

    trace: list[tuple[float, float, float]] = []

    def evaluate(mu: float, p_s: float) -> KeyRateResult:
        """One search evaluation, recorded in the trace."""
        res = expected_key_rate(channel, mu, m_slices, n_rounds, p_s, f, budget)
        trace.append((mu, p_s, res.rate))
        return res

    mu_grid, ps_grid = _grid(bounds, fixed_p_s)
    log_mu_grid = [math.log10(mu) for mu in mu_grid]
    start = None
    if fixed_p_s is not None and previous is not None and previous.feasible:
        log_mu = math.log10(previous.mu_opt)
        start = min(range(len(mu_grid)), key=lambda i: abs(log_mu_grid[i] - log_mu))
    best_i, best_j, best = 0, 0, None
    for j, p_s in enumerate(ps_grid):
        i, res = _row_max(lambda i: evaluate(mu_grid[i], p_s), len(mu_grid), start)
        # strict: the first row, in p_s order, with the largest maximum
        if best is None or res.rate > best.rate:
            best_i, best_j, best = i, j, res

    if best.rate <= 0.0:
        # Nothing on the grid yields a key; refinement from a flat zero
        # plateau has no gradient to follow, so report infeasibility.
        return OptimizationResult(result=best, trace=trace)

    mu_lo, mu_hi, mu_ends = _bracket(log_mu_grid, best_i)
    if fixed_p_s is not None:
        # The grid has already evaluated a clipped end at this p_s.
        _brent_max(lambda x: evaluate(10.0 ** x, fixed_p_s).rate,
                   mu_lo, mu_hi, LOG_MU_TOL)
    else:
        def best_over_mu(p_s: float) -> float:
            return _brent_max(lambda x: evaluate(10.0 ** x, p_s).rate,
                              mu_lo, mu_hi, CO_LOG_MU_TOL, mu_ends)

        ps_lo, ps_hi, ps_ends = _bracket(ps_grid, best_j)
        _brent_max(best_over_mu, ps_lo, ps_hi, PS_TOL, ps_ends)

    # The trace holds the best grid point, so its best is never below best.rate.
    cand_mu, cand_ps, _ = max(trace, key=lambda t: t[2])
    return OptimizationResult(
        result=expected_key_rate(channel, cand_mu, m_slices, n_rounds, cand_ps, f, budget),
        trace=trace,
    )


def _grid(bounds: SearchBounds, fixed_p_s: float | None) -> tuple[list[float], list[float]]:
    """The pre-scan's mu values (log-spaced) and p_s values (the fixed one, or evenly spaced).

    The mu values use Python's pow, as at the search points (see
    docs/DECISIONS.md).
    """
    mu_grid = [10.0 ** x for x in _linspace(math.log10(bounds.mu[0]),
                                            math.log10(bounds.mu[1]), GRID_SHAPE[0])]
    if fixed_p_s is not None:
        return mu_grid, [float(fixed_p_s)]
    return mu_grid, _linspace(bounds.p_s[0], bounds.p_s[1], GRID_SHAPE[1])


def _row_max(evaluate_at, n: int, start: int | None = None) -> tuple[int, KeyRateResult]:
    """The index and evaluation of a grid row's maximum, from every other point.

    evaluate_at(i) evaluates the row at index i.  From ``start``, when given,
    the search steps to the better of its two neighbours while that is
    strictly better; if it ends on a key, that is the result.  Otherwise the
    even indices and the last one are evaluated; if none of them yields a
    key, so is the rest of the row.  From the first maximum, in index order,
    of the points evaluated, the search then climbs in the same way.  On a
    row that rises to one maximum and then falls, either climb ends on the
    row's first maximum; on any row, the climb after the scan is never
    below the best of the points scanned.
    """
    seen: dict[int, KeyRateResult] = {}

    def at(i: int) -> KeyRateResult:
        if i not in seen:
            seen[i] = evaluate_at(i)
        return seen[i]

    def climb(best: int) -> int:
        while True:
            here = at(best).rate
            # the lower neighbour wins a tie, as the first maximum in index order
            step = max((k for k in (best - 1, best + 1) if 0 <= k < n),
                       key=lambda k: at(k).rate)
            if not at(step).rate > here:
                return best
            best = step

    if start is not None:
        best = climb(start)
        if seen[best].rate > 0.0:
            return best, seen[best]
    for i in dict.fromkeys([*range(0, n, 2), n - 1]):
        at(i)
    if not any(res.rate > 0.0 for res in seen.values()):
        for i in range(n):
            at(i)
    best = climb(max(sorted(seen), key=lambda i: seen[i].rate))
    return best, seen[best]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, as numpy.linspace computes them."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _bracket(grid: list[float], k: int) -> tuple[float, float, tuple[float, ...]]:
    """The neighbours of grid[k], clipped at the grid ends, and the clipped end.

    At short distances the optimum sits on a bound (mu = 0.1, p_s = 0.01),
    which a bracketed search only approaches; a search whose bracket is
    clipped there evaluates that end as well.
    """
    last = len(grid) - 1
    ends = (grid[k],) if k in (0, last) else ()
    return grid[max(k - 1, 0)], grid[min(k + 1, last)], ends


def _brent_max(rate_of, lo: float, hi: float, tol: float,
               ends: tuple = ()) -> float:
    """Maximize rate_of on [lo, hi] by Brent's bounded method (scipy's fminbound).

    The points in ``ends`` are evaluated once first.  Each step fits a
    parabola through the three best points and steps to its vertex when
    that lies inside the bracket and moves less than half the step before
    last; otherwise it takes a golden-section step into the larger side.
    No step is shorter than tol1 = tol / 3 + sqrt(eps) |x|, and the search
    stops once the best point lies within 2 tol1 of the bracket's ends.
    Returns the largest value seen (a tie moves the best point, as in
    fminbound); callers that need the point read it off their trace.
    """
    end_rates = [rate_of(x) for x in ends]
    a, b = lo, hi
    xf = a + _GOLDEN_MEAN * (b - a)
    fx = rate_of(xf)
    nfc, fnfc = xf, fx     # second-best point
    fulc, ffulc = xf, fx   # third-best point
    rat = e = 0.0          # the last step and the one before it
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # A parabola through (xf, fx), (nfc, fnfc) and (fulc, ffulc);
            # the signs are those of minimizing -rate_of.
            r = (xf - nfc) * (ffulc - fx)
            q = (xf - fulc) * (fnfc - fx)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        x = xf + (max(abs(rat), tol1) if rat >= 0.0 else -max(abs(rat), tol1))
        fu = rate_of(x)
        if fu >= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu >= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu >= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
    return max([fx, *end_rates])
