"""The chain's asymptotic reference rate, a ceiling for the finite-key rate.

At fixed (mu, p_s, M) the finite-key chain must not rate above the same chain
with no finite-size term: no Chernoff margins, no Kato lift and no xi terms,
with the channel model's own vacuum yield Y0 = 2 p_d (1 - p_d) in place of
the bound sampled from the test rounds.  It is built from the chain's
private kernels, so it moves with them.
"""

import math

from pmqkd.channel import ChannelSpec, _expected_sifted, _gain_qber, transmittance
from pmqkd.numerics import binary_entropy
from pmqkd.security import _phase_error_terms


def reference_rate(*, mu: float, m_slices: int, n_rounds: float, f: float, q_mu: float,
                   e_b: float, n_mu: float, p_d: float) -> float:
    """n_mu / N [1 - H(ep) - f H(E_b)], floored at 0, with ep the discrete-phase
    bound at Y0 = 2 p_d (1 - p_d), each entropy argument capped at 1/2."""
    y0 = 2.0 * p_d * (1.0 - p_d)
    ep = _phase_error_terms(mu, math.exp(-mu), m_slices, q_mu, y0)[-1]
    bits = 1.0 - binary_entropy(min(ep, 0.5)) - f * binary_entropy(min(e_b, 0.5))
    return max(0.0, n_mu / n_rounds * bits)


def model_reference_rate(channel: ChannelSpec, mu: float, m_slices: int, n_rounds: float,
                         p_s: float, f: float) -> float:
    """reference_rate at the channel model's Q, E_b and expected sifted size,
    the observables expected_key_rate rates."""
    q_mu, e_b = _gain_qber(mu, transmittance(channel), channel.p_d, channel.e_d)
    return reference_rate(mu=mu, m_slices=m_slices, n_rounds=n_rounds, f=f, q_mu=q_mu,
                          e_b=e_b, n_mu=_expected_sifted(q_mu, n_rounds, m_slices, p_s),
                          p_d=channel.p_d)
