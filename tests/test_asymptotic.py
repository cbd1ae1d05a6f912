"""The finite-key rate never exceeds its own asymptotic limit.

reference_rate.py builds the limit from the chain's kernels with no
finite-size term.  At the N = 1e12 curve's far end the chain rates above it.
As far as is known the cause is the vacuum term, e^-mu y0_bar / Q, which
falls below the model's own vacuum share once dark counts dominate E_b
(docs/DECISIONS.md, criterion 3a).
"""

import json
from pathlib import Path

import pytest
from reference_rate import model_reference_rate, reference_rate

from pmqkd import defaults
from pmqkd.channel import ChannelSpec
from pmqkd.ingest import (
    ExperimentRecord, derive_observables, load_bundled_record, reproduce_key_rate)
from pmqkd.optimizer import optimize
from pmqkd.security import SecurityBudget
from pmqkd.simulator import ProtocolParams, simulate

REFERENCE_CURVES = Path(__file__).resolve().parent.parent / "benchmarks" / "reference_curves.json"

_BEYOND = ("the chain rates above its asymptotic reference at N = 1e12 from 303.5 km on "
           "(51 keyed curve points; 16/20 tallies at 305 km, 20/20 at 320 km)")


def _tally_reference(record: ExperimentRecord, result) -> float:
    """reference_rate at the record's own observables and the Q reproduce takes."""
    obs = derive_observables(record)
    return reference_rate(mu=result.mu, m_slices=result.m_slices, n_rounds=result.n_rounds,
                          f=result.f, q_mu=result.q_mu, e_b=obs.e_b, n_mu=obs.n_mu,
                          p_d=defaults.P_D)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_BEYOND)
def test_recorded_curves_within_reference():
    curves = json.loads(REFERENCE_CURVES.read_text())["curves"]
    keyed, above = 0, []
    for n_rounds, points in curves.items():
        for distance, (mu, p_s, rate) in points.items():
            if rate <= 0.0:
                continue
            keyed += 1
            channel = ChannelSpec(distance_km=float(distance), alpha_db_per_km=0.168)
            ref = model_reference_rate(channel, mu, 8, float(n_rounds), p_s, defaults.F_EC)
            if rate > ref:
                above.append((n_rounds, distance, rate / ref if ref else float("inf")))
    assert keyed == 1742
    assert above == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_BEYOND)
def test_simulated_tallies_within_reference():
    # 20 tallies each at 305 and 320 km, N = 1e12, M = 8, p_s = 0.07, at the
    # fixed-p_s optimum mu; reproduce rates each from its counts.
    budget = SecurityBudget()
    above = []
    for distance in (305.0, 320.0):
        channel = ChannelSpec(distance_km=distance, alpha_db_per_km=0.168)
        mu = optimize(channel, 1e12, 8, fixed_p_s=0.07, budget=budget).mu_opt
        params = ProtocolParams(mu=mu, m_slices=8, n_rounds=10**12, p_s=0.07, channel=channel)
        for seed in range(1, 21):
            record = ExperimentRecord(loss_db=channel.loss_db(), tally=simulate(params, seed))
            result = reproduce_key_rate(record, budget)
            if result.rate > _tally_reference(record, result):
                above.append((distance, seed))
    assert above == []


@pytest.mark.parametrize("loss_db", sorted(defaults.BUNDLED_TALLIES))
def test_bundled_records_within_reference(loss_db):
    record = load_bundled_record(loss_db)
    result = reproduce_key_rate(record)
    assert 0.0 < result.rate < _tally_reference(record, result)
