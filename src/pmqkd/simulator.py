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

Rounds are processed in fixed-size batches.  The random stream of batch i is
derived from the counter-based key (seed, i) and batch boundaries depend
only on the round count, so the tally is a function of (params, seed,
batch_size) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelSpec, transmittance
from .errors import DomainError, NoDataError
from .ingest import ObservedTally, _matched_pairs, write_tally_csv  # noqa: F401
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

    Entry ((in_test * 2 M + j) * 2 + det - 1) is a single click on detector
    det for the j-th pair of :func:`_matched_pairs`, in a sifted round
    (in_test = 0) or a test round (in_test = 1).  The single clicks on
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
    deltas = np.repeat([0, half], m)  # delta of each matched pair
    matched = np.multiply.outer([1.0 - params.p_s, params.p_s],
                                single[deltas] / (m * m))
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


def _simulate_batch(params: ProtocolParams, probs: np.ndarray, keys: list,
                    rng: np.random.Generator, seed: int, batch_index: int,
                    batch_rounds: int) -> ObservedTally:
    """One batch: a multinomial draw on the stream of (seed, batch_index).

    keys are the (a, b, detector) of each matched single click, in the order
    of :func:`_outcome_probabilities`.
    """
    m = params.m_slices
    _rekey(rng.bit_generator, seed, batch_index)
    counts = rng.multinomial(batch_rounds, probs).tolist()
    # Sifted rounds, then test rounds, each indexed by (pair, detector).
    sifted, test = counts[: 4 * m], counts[4 * m: 8 * m]
    per_det = [a + b for a, b in zip(sifted, test)]
    # Errors are D2 clicks at delta = 0 (first m pairs), D1 clicks at delta = pi.
    m_s = sum(test[1: 2 * m: 2]) + sum(test[2 * m:: 2])
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
    keys = [(a, b, det) for a, b in _matched_pairs(params.m_slices) for det in (1, 2)]
    rng = np.random.Generator(np.random.Philox(0))  # re-keyed before each draw
    total = _simulate_batch(params, probs, keys, rng, seed, 0, min(batch_size, n))
    for i in range(1, (n + batch_size - 1) // batch_size):
        total = total.merge(_simulate_batch(
            params, probs, keys, rng, seed, i, min(batch_size, n - i * batch_size)))
    return total


def tally_to_stats(tally: ObservedTally) -> tuple[float, float, float]:
    """Empirical (gain, QBER, sifted size) from a tally.

    Q = valid clicks / rounds, E_b = wrong-detector fraction of matched
    clicks, and the sifted size is :meth:`ObservedTally.sifted_size`, the
    n_mu that ingest derives from the same tally.  The tally's rules run
    first, for fields set after it was built.
    """
    tally._check("tally_to_stats")
    if tally.n_det == 0:
        raise NoDataError("tally_to_stats: tally has no valid detections")
    total_matched = tally.total_matched()
    if total_matched == 0:
        raise NoDataError("tally_to_stats: tally has no matched detections")
    q_emp = tally.n_det / tally.n_rounds
    e_b_emp = tally.error_count() / total_matched
    return q_emp, e_b_emp, tally.sifted_size()
