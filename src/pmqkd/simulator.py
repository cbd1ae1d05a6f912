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

import functools
import math
from dataclasses import dataclass, field

from .channel import ChannelSpec, transmittance
from .errors import DomainError, NoDataError
from .numerics import _require_count

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
        for name in ("mu", "p_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"ProtocolParams: {name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.mu < 0:
            raise DomainError(f"ProtocolParams: mu must be >= 0, got {self.mu}")
        m = _require_count("ProtocolParams", "m_slices", self.m_slices)
        if m < 2 or m % 2 != 0:
            raise DomainError(f"ProtocolParams: m_slices must be an even integer >= 2, got {m}")
        object.__setattr__(self, "m_slices", m)
        if not 0.0 < self.p_s < 1.0:
            raise DomainError(f"ProtocolParams: p_s must be in (0, 1), got {self.p_s}")
        object.__setattr__(self, "n_rounds", _require_count(
            "ProtocolParams", "n_rounds", self.n_rounds, least=1))


@dataclass
class ObservedTally:
    """Detector counts accumulated over a run.

    ``matched`` maps (phase_a, phase_b, detector) to a count, where phases
    are slice indices (multiples of 2 pi / M) of the total modulated phase
    of a matched pair and detector is 1 or 2; the constructor refuses any
    other key, and a count that is not an integer >= 0.
    ``counts_include_test`` is the counting convention: True when the
    matched counts include the rounds later drawn into the test sample, so
    n_sifted + sampled-out = sum(matched), as in every simulated tally;
    False when they are the post-sampling sifted key alone, as in the
    transcribed tables.

    ``m_s`` and ``n_sifted`` are None when the dataset does not carry them
    (transcribed tables); the simulator always fills them in.
    """

    m_slices: int
    n_rounds: int
    mu: float
    p_s: float
    n_det: int = 0
    n_double: int = 0
    matched: dict[tuple[int, int, int], int] = field(default_factory=dict)
    m_s: int | None = None
    n_sifted: int | None = None
    seed: int | None = None
    counts_include_test: bool = True

    def __post_init__(self):
        # The counts are integers: an integral float such as 1e11 is stored as
        # an int.  mu and p_s are stored as Python floats.
        self.m_slices = _require_count("ObservedTally", "m_slices", self.m_slices, least=2)
        self.n_rounds = _require_count("ObservedTally", "n_rounds", self.n_rounds)
        if not 0.0 <= self.mu < math.inf:
            raise DomainError(f"ObservedTally: mu must be finite and >= 0, got {self.mu}")
        if not 0.0 < self.p_s < 1.0:
            raise DomainError(f"ObservedTally: p_s must be in (0, 1), got {self.p_s}")
        self.mu, self.p_s = float(self.mu), float(self.p_s)
        self.n_det = _require_count("ObservedTally", "n_det", self.n_det)
        self.n_double = _require_count("ObservedTally", "n_double", self.n_double)
        for name in ("m_s", "n_sifted", "seed"):  # None when unknown
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _require_count("ObservedTally", name, value))
        valid = _matched_keys(self.m_slices)
        for key, count in self.matched.items():
            if key not in valid:
                if not _is_matched_key(key, self.m_slices):
                    raise DomainError(
                        f"ObservedTally: matched key {key} must be a matched phase pair "
                        f"at m_slices={self.m_slices} and detector 1 or 2")
                valid.add(key)
            if type(count) is not int or count < 0:
                _require_count("ObservedTally", f"matched[{key}]", count)

    def total_matched(self) -> int:
        return sum(self.matched.values())

    def sifted_size(self) -> float:
        """The sifted size n_mu, by the one rule every reader of a tally uses.

        The declared n_sifted when known; else the matched total, less its
        expected test share p_s when the counts include the test sample.
        """
        if self.n_sifted is not None:
            return float(self.n_sifted)
        return self.total_matched() * (1.0 - self.p_s if self.counts_include_test else 1.0)

    def error_count(self) -> int:
        """Wrong-detector clicks: D2 at phase difference 0, D1 at pi."""
        half = self.m_slices // 2
        total = 0
        for (a, b, det), count in self.matched.items():
            delta = (a - b) % self.m_slices
            if (delta == 0 and det == 2) or (delta == half and det == 1):
                total += count
        return total

    def merge(self, other: "ObservedTally") -> "ObservedTally":
        """Combine two batch tallies; associative and commutative.

        Both must share M, mu, p_s and the counting convention.  An m_s or
        n_sifted unknown on either side stays unknown: a partial count must
        not pass for a measured total.  The seed is kept only when both
        share it: no one seed reproduces a merge of two streams.
        """
        differ = [k for k in ("m_slices", "mu", "p_s", "counts_include_test")
                  if getattr(self, k) != getattr(other, k)]
        if differ:
            raise DomainError(f"ObservedTally.merge: tallies differ in {', '.join(differ)}")
        merged = dict(self.matched)
        for key, count in other.matched.items():
            merged[key] = merged.get(key, 0) + count
        return ObservedTally(
            self.m_slices,
            self.n_rounds + other.n_rounds,
            self.mu,
            self.p_s,
            self.n_det + other.n_det,
            self.n_double + other.n_double,
            merged,
            _sum_known(self.m_s, other.m_s),
            _sum_known(self.n_sifted, other.n_sifted),
            self.seed if self.seed == other.seed else None,
            self.counts_include_test,
        )


def _sum_known(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


def _matched_pairs(m: int) -> list[tuple[int, int]]:
    """Matched phase pairs in canonical order: all delta = 0, then delta = pi."""
    return [(a, (a + offset) % m) for offset in (0, m // 2) for a in range(m)]


def _is_matched_key(key, m: int) -> bool:
    """Whether key equals a (phase_a, phase_b, detector) a tally at M = m may count.

    Equal as dict keys are, so the answer does not depend on which equal
    key :func:`_matched_keys` met first.
    """
    try:
        a = int(key[0])
    except (TypeError, ValueError, OverflowError, IndexError):
        return False
    b = (a + m // 2) % m
    return 0 <= a < m and key in {(a, a, 1), (a, a, 2), (a, b, 1), (a, b, 2)}


@functools.cache
def _matched_keys(m: int) -> set[tuple[int, int, int]]:
    """The keys at M = m that :func:`_is_matched_key` has passed so far.

    Each key is checked once per M and then found by one lookup.  The set is
    filled as keys occur, not built whole, so a large declared M costs
    nothing; it never holds more than the 4 M valid keys.
    """
    return set()


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
    n_mu that ingest derives from the same tally.
    """
    if tally.n_det == 0:
        raise NoDataError("tally_to_stats: tally has no valid detections")
    total_matched = tally.total_matched()
    if total_matched == 0:
        raise NoDataError("tally_to_stats: tally has no matched detections")
    q_emp = tally.n_det / tally.n_rounds
    e_b_emp = tally.error_count() / total_matched
    return q_emp, e_b_emp, tally.sifted_size()


def write_tally_csv(tally: ObservedTally, path: str, loss_db: float) -> None:
    """Serialize a tally in the ingestible CSV schema (bit-exact counts).

    The metadata lines follow the parser's table, ``pmqkd.ingest._METADATA``:
    each known value once, in the table's order, a flag as its lower-case
    word (true/false) and any other value as its repr.  A value the parser
    would refuse raises a DomainError naming its key before the file is
    opened.  Rows are emitted in canonical order (all delta = 0 pairs, then
    all delta = pi pairs), so equal tallies produce byte-identical files,
    and :func:`pmqkd.ingest.parse_tally_csv` reads a file back to an equal
    tally, its counting convention included.
    """
    from .ingest import _FIELD, _METADATA, parse_flag  # ingest imports this module

    lines = []
    for key, (rule, _) in _METADATA.items():
        value = loss_db if key == "loss_db" else getattr(tally, _FIELD.get(key, key))
        if value is None:  # unknown
            continue
        text = str(value).lower() if rule is parse_flag else repr(value)
        try:
            rule(text)
        except ValueError as exc:
            raise DomainError(f"write_tally_csv: {key} must be {exc}, got {text}") from None
        lines.append(f"# {key}={text}")
    lines.append("phase_a,phase_b,d1_count,d2_count")
    for a, b in _matched_pairs(tally.m_slices):
        d1 = tally.matched.get((a, b, 1), 0)
        d2 = tally.matched.get((a, b, 2), 0)
        lines.append(f"{a},{b},{d1},{d2}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
