"""Coverage of the chain's statistical steps against the simulator's truth.

Each case draws simulator tallies over a seed range fixed before its first
run, applies one bound at eps = 1e-2, and counts the seeds where the bound
misses the exact expectation that ``simulator._outcome_probabilities``
gives.  A valid bound misses with probability at most eps, so the miss
count is held to a one-sided exact binomial test at that rate.
"""

import math

import numpy as np
import pytest

from pmqkd.channel import ChannelSpec
from pmqkd.security import chernoff_expected_ub, chernoff_observed_ub
from pmqkd.simulator import ProtocolParams, _outcome_probabilities, simulate

EPS = 1e-2
# The test fails when so many misses have probability below this under a
# miss rate of EPS.
ALPHA = 1e-3
SEEDS = 2000


def binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in the log domain."""
    if k <= 0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * log_p + (n - i) * log_q)
        for i in range(k, n + 1)
    )


def assert_covers(misses: int, seeds: int) -> None:
    p_value = binomial_sf(misses, seeds, EPS)
    assert p_value >= ALPHA, f"{misses} misses in {seeds} seeds, p = {p_value:.2e}"


def _expected(params, in_test, errors_only):
    """N times the probability of the matched single clicks of one kind."""
    m = params.m_slices
    probs = _outcome_probabilities(params)
    block = probs[in_test * 4 * m:(in_test + 1) * 4 * m].reshape(2 * m, 2)
    if errors_only:  # D2 at delta = 0 (first m pairs), D1 at delta = pi
        return params.n_rounds * (block[:m, 1].sum() + block[m:, 0].sum())
    return params.n_rounds * block.sum()


class TestBinomialTail:
    def test_against_direct_sums(self):
        assert binomial_sf(0, 10, 0.3) == 1.0
        assert binomial_sf(10, 10, 0.3) == pytest.approx(0.3**10, rel=1e-12)
        direct = sum(math.comb(20, i) * 0.01**i * 0.99 ** (20 - i) for i in range(2, 21))
        assert binomial_sf(2, 20, 0.01) == pytest.approx(direct, rel=1e-12)


def test_phi_covers_the_expected_sampled_errors():
    # phi lifts the observed sampled errors m_s to an upper bound on their
    # expectation, at the bundled 40 dB settings.
    params = ProtocolParams(mu=1.5e-3, m_slices=8, n_rounds=10**11, p_s=0.07,
                            channel=ChannelSpec(total_loss_db=40.0))
    truth = _expected(params, in_test=1, errors_only=True)
    misses = sum(chernoff_expected_ub(simulate(params, seed).m_s, EPS) < truth
                 for seed in range(10_000, 10_000 + SEEDS))
    assert_covers(misses, SEEDS)


def test_Phi_covers_the_observed_vacuum_clicks():
    # With mu = 0 every click is a vacuum (dark-count) click.  Phi bounds the
    # sifted key-round clicks observed from their exact expectation.
    params = ProtocolParams(mu=0.0, m_slices=8, n_rounds=10**11, p_s=0.07,
                            channel=ChannelSpec(total_loss_db=40.0))
    truth = _expected(params, in_test=0, errors_only=False)
    bound = chernoff_observed_ub(truth, EPS)
    misses = sum(simulate(params, seed).n_sifted > bound
                 for seed in range(20_000, 20_000 + SEEDS))
    assert_covers(misses, SEEDS)


def test_truths_match_the_tallies_on_average():
    # The expectations the cases hold the bounds to are the simulator's own.
    params = ProtocolParams(mu=1.5e-3, m_slices=8, n_rounds=10**11, p_s=0.07,
                            channel=ChannelSpec(total_loss_db=40.0))
    tallies = [simulate(params, seed) for seed in range(30_000, 30_200)]
    for got, truth in [
        (np.mean([t.m_s for t in tallies]), _expected(params, 1, True)),
        (np.mean([t.n_sifted for t in tallies]), _expected(params, 0, False)),
    ]:
        assert abs(got - truth) <= 5 * math.sqrt(truth / len(tallies))
