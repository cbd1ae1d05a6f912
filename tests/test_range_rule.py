"""The exact text of every refusal that numerics._check_range writes.

One row per site that states a range: the stage, the field, the interval and
the value refused, byte for byte.  The rows reach each site through a public
entry, or the private rule that owns it, so they read the same on any version
of the package that keeps these messages.
"""

import math

import pytest

from pmqkd.channel import ChannelSpec, expected_sifted, gain, qber
from pmqkd.errors import DomainError
from pmqkd.ingest import ExperimentRecord, ObservedTally
from pmqkd.numerics import binary_entropy, pseudo_fock_weight
from pmqkd.security import (
    SecurityBudget,
    deviation_bound,
    finite_key_rate,
    key_length,
    phase_error_discrete,
    vacuum_yield_ub,
)

_GOOD = dict(mu=1e-3, m_slices=8, n_rounds=1e11, p_s=0.07, f=1.16, q_mu=3e-6,
             e_b=0.01, n_mu=7e4, m_s=49.0, budget=SecurityBudget())


def _tally(mu):
    return ObservedTally(m_slices=8, n_rounds=10**6, mu=mu, p_s=0.07, n_det=10)


_SITES = [
    # numerics
    ("binary_entropy.x", lambda: binary_entropy(1.5),
     "binary_entropy: x must be in [0, 1], got 1.5"),
    ("pseudo_fock_weight.m_slices", lambda: pseudo_fock_weight(1e-3, 65, 0),
     "pseudo_fock_weight: m_slices must be in [2, 64], got 65"),
    ("_require_mu", lambda: pseudo_fock_weight(math.nan, 8, 0),
     "pseudo_fock_weight: mu must be finite and in [0, 700], got nan"),
    # channel
    ("ChannelSpec.eta_d", lambda: ChannelSpec(eta_d=0.0, total_loss_db=40.0),
     "ChannelSpec: eta_d must be in (0, 1], got 0.0"),
    ("ChannelSpec.p_d", lambda: ChannelSpec(p_d=1.0, total_loss_db=40.0),
     "ChannelSpec: p_d must be in [0, 1), got 1.0"),
    ("ChannelSpec.e_d", lambda: ChannelSpec(e_d=0.75, total_loss_db=40.0),
     "ChannelSpec: e_d must be in [0, 0.5], got 0.75"),
    ("gain.mu", lambda: gain(math.inf, 1e-2, 1e-8),
     "gain: mu must be finite and >= 0, got inf"),
    ("gain.eta", lambda: gain(1e-3, 0.0, 1e-8),
     "gain: eta must be in (0, 1], got 0.0"),
    ("gain.p_d", lambda: gain(1e-3, 1e-2, -1e-8),
     "gain: p_d must be in [0, 1), got -1e-08"),
    ("qber.e_d", lambda: qber(1e-3, 1e-2, 1e-8, math.nan),
     "qber: e_d must be in [0, 0.5], got nan"),
    ("expected_sifted.q_mu", lambda: expected_sifted(-1.0, 1e11, 8, 0.07),
     "expected_sifted: q_mu must be finite and >= 0, got -1.0"),
    ("expected_sifted.p_s", lambda: expected_sifted(3e-6, 1e11, 8, 1.5),
     "expected_sifted: p_s must be in [0, 1], got 1.5"),
    ("expected_sifted.n_rounds", lambda: expected_sifted(3e-6, math.inf, 8, 0.07),
     "expected_sifted: n_rounds must be finite and >= 0, got inf"),
    # security
    ("_check_probability", lambda: SecurityBudget(eps=1.0),
     "SecurityBudget: eps must be in (0, 1), got 1.0"),
    ("vacuum_yield_ub.m_s", lambda: vacuum_yield_ub(-1.0, 0.07, 1e11, 1e-3, 1e-10),
     "vacuum_yield_ub: m_s must be finite and >= 0, got -1.0"),
    ("phase_error_discrete.q_mu", lambda: phase_error_discrete(1e-3, 8, 0.0, 1e-6),
     "phase error: q_mu must be finite and > 0, got 0.0"),
    ("finite_key_rate.q_mu", lambda: finite_key_rate(**dict(_GOOD, q_mu=math.inf)),
     "phase error: q_mu must be finite and > 0, got inf"),
    ("deviation_bound.q_mu", lambda: deviation_bound(1e-3, 8, 0, -3e-6),
     "deviation_bound: q_mu must be finite and > 0, got -3e-06"),
    ("key_length.n_mu",
     lambda: key_length(-1.0, 0.1, 0.01, 1.16, SecurityBudget(), 1e11),
     "key_length: n_mu must be finite and >= 0, got -1.0"),
    ("key_length.e_b",
     lambda: key_length(7e4, 0.1, 1.5, 1.16, SecurityBudget(), 1e11),
     "key_length: e_b must be in [0, 1], got 1.5"),
    # ingest
    ("_check_loss", lambda: ExperimentRecord(loss_db=0.0, tally=_tally(1e-3)),
     "ExperimentRecord: loss_db must be finite and > 0, got 0.0"),
    ("_check_measured_mu", lambda: ExperimentRecord(loss_db=45.0, tally=_tally(0.0)),
     "ExperimentRecord: mu must be finite and > 0, got 0.0"),
]


@pytest.mark.parametrize("call,message", [row[1:] for row in _SITES],
                         ids=[row[0] for row in _SITES])
def test_refusal_text_is_pinned(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
