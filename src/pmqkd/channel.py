"""Closed-form detection model.

Transmittance, total gain, QBER and the expected sifted-key size for a
symmetric two-arm interference link: the quoted channel loss (in dB) splits
evenly between the two arms, and ``eta`` is the single-arm transmittance
times the detector efficiency.  Intensities are symmetric, mu_a = mu_b =
mu/2, so formulas are written in the total intensity mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import defaults
from .errors import DomainError, UndefinedRateError
from .numerics import _check_range, _require_count


@dataclass(frozen=True)
class ChannelSpec:
    """Physical channel and detector parameters.

    Exactly one of ``total_loss_db`` and ``distance_km`` must be given; a
    distance is converted at ``alpha_db_per_km``.
    """

    eta_d: float = defaults.ETA_D
    p_d: float = defaults.P_D
    e_d: float = defaults.E_D
    total_loss_db: float | None = None
    distance_km: float | None = None
    alpha_db_per_km: float = defaults.ALPHA_DB_PER_KM

    def __post_init__(self):
        for name in ("eta_d", "p_d", "e_d", "total_loss_db", "distance_km",
                     "alpha_db_per_km"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"ChannelSpec: {name} must be finite, got {value}")
        if (self.total_loss_db is None) == (self.distance_km is None):
            raise DomainError(
                "ChannelSpec: exactly one of total_loss_db / distance_km required"
            )
        _check_range("ChannelSpec", "eta_d", self.eta_d, 0.0, 1.0, lo_open=True, hi_open=False)
        _check_range("ChannelSpec", "p_d", self.p_d, 0.0, 1.0)
        _check_range("ChannelSpec", "e_d", self.e_d, 0.0, 0.5, hi_open=False)
        if self.alpha_db_per_km <= 0:
            raise DomainError("ChannelSpec: alpha_db_per_km must be positive")
        for name in ("total_loss_db", "distance_km"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise DomainError(f"ChannelSpec: {name} must be >= 0, got {value}")

    def loss_db(self) -> float:
        """Total channel attenuation in dB (excludes detector efficiency)."""
        if self.total_loss_db is not None:
            return self.total_loss_db
        return self.alpha_db_per_km * self.distance_km


def transmittance(spec: ChannelSpec) -> float:
    """Single-arm transmittance times detector efficiency.

    eta = eta_d * 10^(-(loss_db / 2) / 10); each arm carries half the loss.
    """
    return spec.eta_d * 10.0 ** (-(spec.loss_db() / 2.0) / 10.0)


def _check_gain_args(mu: float, eta: float, p_d: float, stage: str = "gain") -> None:
    _check_range(stage, "mu", mu, 0.0)
    _check_range(stage, "eta", eta, 0.0, 1.0, lo_open=True, hi_open=False)
    _check_range(stage, "p_d", p_d, 0.0, 1.0)


def _gain_qber(mu: float, eta: float, p_d: float, e_d: float) -> tuple[float, float]:
    """(Q, E_b) from one expm1 and one denominator; the inputs are checked.

    Raises UndefinedRateError where Q is zero (mu eta = 0 and p_d = 0).
    """
    s = -math.expm1(-mu * eta)  # 1 - e^(-mu eta)
    denom = s + 2.0 * p_d * (1.0 - s)  # Q / (1 - p_d)
    if denom <= 0.0:
        raise UndefinedRateError("qber: gain is zero (mu = 0 and p_d = 0)")
    num = e_d * (s + p_d * (1.0 - s)) + (1.0 - e_d) * p_d * (1.0 - s)
    return (1.0 - p_d) * denom, num / denom


def gain(mu: float, eta: float, p_d: float) -> float:
    """Total gain Q: probability that a round yields a single-detector click.

    Q = (1 - p_d) * [1 - (1 - 2 p_d) e^(-mu eta)], computed through expm1 so
    the small mu*eta regime keeps full relative precision.
    """
    _check_gain_args(mu, eta, p_d)
    try:
        return _gain_qber(mu, eta, p_d, 0.0)[0]
    except UndefinedRateError:
        return 0.0  # no clicks at all


def qber(mu: float, eta: float, p_d: float, e_d: float) -> float:
    """Bit error rate among sifted rounds.

    E_b = [e_d (1-p_d) (1 - (1-p_d) e^(-mu eta))
           + (1-e_d) p_d (1-p_d) e^(-mu eta)] / Q.
    The common (1-p_d) factor is cancelled analytically, which makes the
    p_d = 0 limit return e_d exactly and the mu = 0 limit return 1/2.
    """
    _check_range("qber", "e_d", e_d, 0.0, 0.5, hi_open=False)
    _check_gain_args(mu, eta, p_d, "qber")
    return _gain_qber(mu, eta, p_d, e_d)[1]


def _expected_sifted(q_mu: float, n_rounds: float, m_slices: int, p_s: float) -> float:
    return (2.0 / m_slices) * q_mu * n_rounds * (1.0 - p_s)


def expected_sifted(q_mu: float, n_rounds: float, m_slices: int, p_s: float) -> float:
    """Expected sifted-key size n = (2/M) * Q * N * (1 - p_s).

    Returned as a real expectation, not rounded.  It takes any M >= 2,
    p_s in [0, 1] and finite Q, N >= 0, a wider domain than the chain's.
    """
    _check_range("expected_sifted", "q_mu", q_mu, 0.0)
    m_slices = _require_count("expected_sifted", "m_slices", m_slices, least=2)
    _check_range("expected_sifted", "p_s", p_s, 0.0, 1.0, hi_open=False)
    _check_range("expected_sifted", "n_rounds", n_rounds, 0.0)
    return _expected_sifted(q_mu, n_rounds, m_slices, p_s)
