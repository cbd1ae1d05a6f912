"""Analytic key-rate pipeline: closed-form channel model into the bound chain.

Used by the CLI and the optimizer for simulation-mode
evaluations; ingestion-mode evaluations live in :mod:`pmqkd.ingest`.
"""

from __future__ import annotations

from . import defaults
from .channel import (
    ChannelSpec,
    _check_gain_args,
    _expected_sifted,
    _gain_qber,
    transmittance,
)
from .security import (
    KeyRateResult,
    SecurityBudget,
    _check_probability,
    _check_slices,
    finite_key_rate,
)


def expected_key_rate(
    channel: ChannelSpec,
    mu: float,
    m_slices: int = defaults.M_SLICES,
    n_rounds: float = defaults.N_ROUNDS,
    p_s: float = defaults.P_S,
    f: float = defaults.F_EC,
    budget: SecurityBudget | None = None,
) -> KeyRateResult:
    """Evaluate the finite-key rate from the closed-form detection model.

    The sampled error count enters as its expectation E_b * n_s with
    n_s = n_mu p_s / (1 - p_s); nothing is rounded, so rate curves stay
    smooth in the parameters.  p_s must lie in (0, 1): the expected sampled
    errors divide by 1 - p_s, and the vacuum bound by p_s.
    """
    _check_probability("expected_key_rate", "p_s", p_s)
    if budget is None:
        budget = SecurityBudget()
    eta = transmittance(channel)
    # The checks of gain; the ChannelSpec has checked e_d, which is all that
    # qber checks beyond them.
    _check_gain_args(mu, eta, channel.p_d)
    q_mu, e_b = _gain_qber(mu, eta, channel.p_d, channel.e_d)
    # The chain's rule for M, ahead of the division by M; the chain checks
    # n_rounds, and p_s is checked above.
    m_slices = _check_slices("phase_error_discrete", m_slices)
    n_mu = _expected_sifted(q_mu, n_rounds, m_slices, p_s)
    m_s = e_b * n_mu * p_s / (1.0 - p_s)
    return finite_key_rate(
        mu=mu,
        m_slices=m_slices,
        n_rounds=n_rounds,
        p_s=p_s,
        f=f,
        q_mu=q_mu,
        e_b=e_b,
        n_mu=n_mu,
        m_s=m_s,
        budget=budget,
    )
