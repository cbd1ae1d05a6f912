"""Count-level Monte Carlo emulation of the protocol rounds.

A round draws random phase slices and key bits for both senders, feeds the
resulting interference pattern through a two-detector click model (dark
counts and misalignment included), keeps single-click rounds, sifts on
matching announced phases, applies the deterministic flip rule, and samples
test rounds.  Rounds are i.i.d. given the parameters and every tally field
is a sum of counts over a fixed set of outcomes, so a batch of rounds is one
multinomial draw over those outcomes, with exactly the distribution of the
round-by-round process:

* a single click, per matched phase pair, detector and in-test or not
  (8 M outcomes);
* a single click on an unmatched pair;
* a double click;
* no click.

Misalignment is never reported, so it is folded into the click
probabilities.  The cost of a draw does not depend on the number of rounds.
The tally's key order and error rule are :mod:`ingest`'s.

Rounds are processed in fixed-size batches.  The random stream of batch i is
derived from the counter-based key (seed, i) and batch boundaries depend
only on the round count, so the tally is a function of (params, seed,
batch_size) alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .channel import ChannelSpec, transmittance
from .errors import DomainError
from .ingest import (  # noqa: F401  (the tally's names, re-exported)
    ObservedTally, _is_error, _ordered_keys, tally_to_stats, write_tally_csv)
from .numerics import _require_count, _require_mu
from .security import _check_probability, _check_slices

DEFAULT_BATCH_SIZE = 10**10


@dataclass(frozen=True)
class ProtocolParams:
    """Everything a protocol run needs: source, channel and sampling."""

    mu: float
    m_slices: int
    n_rounds: int
    p_s: float
    channel: ChannelSpec

    def __post_init__(self):
        # Stored as the types the code computes with: an integral float such
        # as 8.0 as an int, a numpy float as a Python float.
        object.__setattr__(self, "mu", float(self.mu))
        _require_mu("ProtocolParams", self.mu)
        object.__setattr__(self, "m_slices", _check_slices("ProtocolParams", self.m_slices))
        object.__setattr__(self, "p_s", _check_probability("ProtocolParams", "p_s", self.p_s))
        object.__setattr__(self, "n_rounds", _require_count(
            "ProtocolParams", "n_rounds", self.n_rounds, least=1))


def _outcome_probabilities(params: ProtocolParams) -> np.ndarray:
    """Probabilities of the outcomes a round can contribute to a tally.

    Entry (in_test * 4 M + j) is a single click with the j-th key of
    :func:`_ordered_keys`, in a sifted round (in_test = 0) or a test round
    (in_test = 1).  The single clicks on
    unmatched pairs, the double clicks and, last, no click follow.  No
    click takes the remainder, so the rare outcomes are drawn against
    conditional probabilities free of cancellation.
    """
    import numpy as np  # only sampling needs numpy; tallies and CSVs do not

    m = params.m_slices
    channel = params.channel
    x = params.mu * transmittance(channel)
    cos = np.cos(2.0 * np.pi * np.arange(m) / m)  # indexed by delta slice
    # log P(port stays dark): no dark count and no photon at that port
    log_dark1 = math.log1p(-channel.p_d) - x * (1.0 + cos) / 2.0
    log_dark2 = math.log1p(-channel.p_d) - x * (1.0 - cos) / 2.0
    click1, click2 = -np.expm1(log_dark1), -np.expm1(log_dark2)
    only1, only2 = click1 * np.exp(log_dark2), click2 * np.exp(log_dark1)
    # Misalignment swaps the interference ports; announcements are unaffected.
    e_d = channel.e_d
    single = np.stack([(1.0 - e_d) * only1 + e_d * only2,
                       (1.0 - e_d) * only2 + e_d * only1], axis=1)
    half = m // 2
    keys = np.array(_ordered_keys(m))
    # Each key's click: its pair's delta slice, its detector.
    matched = np.multiply.outer([1.0 - params.p_s, params.p_s],
                                single[(keys[:, 1] - keys[:, 0]) % m, keys[:, 2] - 1] / (m * m))
    unmatched = np.delete(single, [0, half], axis=0).sum() / m
    double = (click1 * click2).sum() / m
    probs = np.concatenate([matched.ravel(), [unmatched, double, 0.0]])
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    return probs


def _rekey(bit_generator, seed: int, batch_index: int) -> None:
    """Set a Philox generator to the stream of key (seed, batch_index) at counter 0,
    the state a fresh ``Philox(key=[seed, batch_index])`` starts in."""
    import numpy as np

    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, batch_index], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _simulate_batch(params: ProtocolParams, probs: np.ndarray, keys: tuple,
                    test_errors: operator.itemgetter, rng: np.random.Generator,
                    seed: int, batch_index: int, batch_rounds: int) -> ObservedTally:
    """One batch: a multinomial draw on the stream of (seed, batch_index).

    keys are :func:`_ordered_keys`, and test_errors picks the test-round
    outcomes of the error keys from the draw.
    """
    m = params.m_slices
    _rekey(rng.bit_generator, seed, batch_index)
    counts = rng.multinomial(batch_rounds, probs).tolist()
    # Sifted rounds, then test rounds, each indexed by key.
    sifted, test = counts[: 4 * m], counts[4 * m: 8 * m]
    per_det = [a + b for a, b in zip(sifted, test)]
    m_s = sum(test_errors(counts))
    return ObservedTally(
        m_slices=m,
        n_rounds=batch_rounds,
        mu=params.mu,
        p_s=params.p_s,
        n_det=sum(per_det) + counts[8 * m],
        n_double=counts[8 * m + 1],
        matched={key: count for key, count in zip(keys, per_det) if count},
        m_s=m_s,
        n_sifted=sum(sifted),
        seed=seed,
    )


def simulate(
    params: ProtocolParams,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ObservedTally:
    """Run the protocol for params.n_rounds rounds.

    Deterministic for fixed (params, seed, batch_size).  Batches are drawn
    in this process, one after another, each from one Philox generator
    re-keyed to (seed, batch index).
    """
    import numpy as np

    seed = _require_count("simulate", "seed", seed)
    if seed >= 2**64:  # a Philox key word
        raise DomainError(f"simulate: seed must be < 2**64, got {seed}")
    batch_size = _require_count("simulate", "batch_size", batch_size, least=1)
    n = int(params.n_rounds)
    probs = _outcome_probabilities(params)
    keys = _ordered_keys(params.m_slices)
    test_errors = operator.itemgetter(
        *(len(keys) + j for j, key in enumerate(keys) if _is_error(key)))
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed before each draw
    total = _simulate_batch(params, probs, keys, test_errors, rng, seed, 0, min(batch_size, n))
    for i in range(1, (n + batch_size - 1) // batch_size):
        total = total.merge(_simulate_batch(params, probs, keys, test_errors, rng, seed, i,
                                            min(batch_size, n - i * batch_size)))
    return total

