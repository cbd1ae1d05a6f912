"""The detector tally, its CSV file, and reproduction from it.

:class:`ObservedTally` holds the counts the simulator draws and the bundled
datasets carry; :func:`write_tally_csv` and :func:`parse_tally_csv` are the
two ends of its file.  Every rule of the tally, its key order and error
rule too, is stated here.  The observables derived from a tally (QBER, sifted
size, reconstructed sampled error count) feed the security chain.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources

from . import defaults
from .channel import ChannelSpec, gain, transmittance
from .errors import DomainError, NoDataError, SchemaError
from .numerics import _check_range, _require_count, _require_mu
from .security import (
    KeyRateResult, SecurityBudget, _check_probability, _check_slices, finite_key_rate)


@dataclass
class ObservedTally:
    """Detector counts accumulated over a run.

    ``matched`` maps (phase_a, phase_b, detector) to a count, where phases
    are slice indices (multiples of 2 pi / M) of the total modulated phase of
    a matched pair and detector is 1 or 2; the constructor refuses any other
    key, a count that is not an integer >= 0, and counts out of the order
    N >= n_det >= matched total >= n_sifted.  M, mu and p_s must lie in the
    bound chain's domains, so every tally can be rated.
    ``counts_include_test``, a bool, is the counting convention: True when the
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
        self._check("ObservedTally")

    def _check(self, stage: str) -> None:
        """The one statement of the tally's rules, for the constructor and for
        every reader of a tally changed since: a DomainError names stage and
        the field.  A count is stored as an int (1e11 too), mu and p_s as
        floats, the flag as a bool.  The sifted key is drawn from the matched
        clicks, and they from the valid clicks of the rounds sent."""
        self.m_slices = _check_slices(stage, self.m_slices)
        self.n_rounds = _require_count(stage, "n_rounds", self.n_rounds)
        _require_mu(stage, self.mu)
        self.mu, self.p_s = float(self.mu), _check_probability(stage, "p_s", self.p_s)
        self.n_det = _require_count(stage, "n_det", self.n_det)
        self.n_double = _require_count(stage, "n_double", self.n_double)
        for name in ("m_s", "n_sifted", "seed"):  # None when unknown
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _require_count(stage, name, value))
        valid = _matched_keys(self.m_slices)
        for key, count in self.matched.items():
            if key not in valid:
                raise DomainError(
                    f"{stage}: matched key {key} must be a matched phase pair "
                    f"at m_slices={self.m_slices} and detector 1 or 2")
            if type(count) is not int or count < 0:  # a bool too, which the file cannot hold
                self.matched[key] = _require_count(stage, f"matched[{key}]", count)
        flag = self.counts_include_test
        numpy = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
        if not (type(flag) is bool or numpy and isinstance(flag, numpy.bool_)):
            raise DomainError(f"{stage}: counts_include_test must be a bool, got {flag!r}")
        self.counts_include_test = bool(flag)
        total = self.total_matched()
        if not self.n_rounds >= self.n_det >= total >= (self.n_sifted or 0):
            raise DomainError(
                f"{stage}: counts must satisfy N >= n_det >= matched total >= n_sifted, "
                f"got N={self.n_rounds}, n_det={self.n_det}, matched total={total}, "
                f"n_sifted={self.n_sifted}")

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
        """Wrong-detector clicks, by :func:`_is_error`."""
        return sum(count for key, count in self.matched.items() if _is_error(key))

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


@functools.cache
def _ordered_keys(m: int) -> tuple[tuple[int, int, int], ...]:
    """The 4 M keys (phase_a, phase_b, detector) a tally at M = m may count, in
    the tally's one order: the pairs at delta = 0, then at delta = pi, each
    with detector 1, then 2.  Built once per M the chain covers.
    """
    return tuple((a, (a + offset) % m, det)
                 for offset in (0, m // 2) for a in range(m) for det in (1, 2))


@functools.cache
def _matched_keys(m: int) -> frozenset[tuple[int, int, int]]:
    """The keys of :func:`_ordered_keys` as a set, for membership."""
    return frozenset(_ordered_keys(m))


def _is_error(key: tuple[int, int, int]) -> bool:
    """The error rule: a wrong-detector click, D2 at delta = 0 (a == b at an
    even M) and D1 at delta = pi."""
    a, b, det = key
    return (a == b) == (det == 2)


def _number(text: str) -> float:
    """float(text), or NaN, which every rule refuses, where text is no number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _count(text: str) -> int:
    """A count by the record's rule (an integral float such as 1e11 too), its
    digits read exactly."""
    return _require_count(_READ, "count", int(text) if text.isdigit() else _number(text))


def parse_flag(text: str) -> bool:
    """A boolean word of the tally schema: true/false, 1/0 or yes/no."""
    value = text.lower()
    if value not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError("true or false")
    return value in ("true", "1", "yes")


def _check_loss(stage: str, loss_db: float) -> float:
    """The one rule for a record's declared loss: finite and > 0, as a float."""
    _check_range(stage, "loss_db", loss_db, 0.0, lo_open=True)
    return float(loss_db)


def _check_measured_mu(stage: str, mu: float) -> float:
    """The one rule for a record's mu: the chain's, and > 0, since measured
    counts at mu = 0 carry no key (a simulated vacuum tally may have it)."""
    _require_mu(stage, mu)
    _check_range(stage, "mu", mu, 0.0, lo_open=True)
    return float(mu)


def _check_record(stage: str, loss_db: float, tally: ObservedTally) -> float:
    """A record's whole check, for the writer and the rating; loss_db as a float."""
    loss_db = _check_loss(stage, loss_db)
    tally._check(stage)
    _check_measured_mu(stage, tally.mu)
    return loss_db


# Every metadata key a tally file may carry, in the order the writer writes
# them: key -> (rule, required).  A rule parses the text, then applies the
# record's rule, whose DomainError is a ValueError.  loss_db belongs to the
# record, and every other key to the ObservedTally field _FIELD names, by
# default its own name.  An absent optional key takes the field's default,
# or its value in _ABSENT.
_READ = "parse_tally_csv"  # the rules' stage; the parser's message names key and line
_METADATA = {
    "loss_db": (lambda text: _check_loss(_READ, _number(text)), True),
    "N": (_count, True),
    "mu": (lambda text: _check_measured_mu(_READ, _number(text)), True),
    "p_s": (lambda text: _check_probability(_READ, "p_s", _number(text)), True),
    "n_det": (_count, True),
    "m_slices": (lambda text: _check_slices(_READ, _number(text)), False),
    "n_double": (_count, False),
    "m_s": (_count, False),
    "n_sifted": (_count, False),
    "counts_include_test": (parse_flag, False),
    "seed": (_count, False),
}
_FIELD = {"N": "n_rounds"}
_ABSENT = {"m_slices": defaults.M_SLICES, "counts_include_test": False}
_HEADER = "phase_a,phase_b,d1_count,d2_count"  # the column header after the metadata


@dataclass
class ExperimentRecord:
    """One ingested dataset: the declared loss, the tally and the file it came from.

    Everything about the counts, their counting convention included, lives
    in the tally.
    """

    loss_db: float
    tally: ObservedTally
    source: str | None = None

    def __post_init__(self):
        self.loss_db = _check_loss("ExperimentRecord", self.loss_db)
        _check_measured_mu("ExperimentRecord", self.tally.mu)


@dataclass(frozen=True)
class DerivedObservables:
    e_b: float
    n_mu: float
    m_s: float
    m_s_reconstructed: bool


def parse_tally_csv(path: str) -> ExperimentRecord:
    """Parse a tally CSV into an ExperimentRecord, reading each line once.

    The file starts with '# key=value' metadata lines, each key of
    _METADATA at most once, then the _HEADER row, then at most one row per
    matched phase pair.  Phases are slice indices, i.e. multiples of 2 pi / M
    (pi/4 steps at M = 8, pi/3 steps at M = 6).  A violation is rejected with
    its line number, and counts out of the tally's order with the tally's
    message, which names them.  The tally's counting convention is the file's
    counts_include_test, false when absent (a transcribed table).
    """
    meta: dict[str, object] = {}
    matched: dict[tuple[int, int, int], int] = {}
    pairs: set[tuple[int, int]] = set()
    m = None  # slice count, fixed once the header is read, with its keys
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if m is not None:
                    raise SchemaError("metadata after the column header", lineno)
                key, eq, value = line[1:].partition("=")
                key, value = key.strip(), value.strip()
                if not eq:
                    raise SchemaError(f"metadata line without '=': {line!r}", lineno)
                if key not in _METADATA:
                    raise SchemaError(f"unknown metadata key {key!r}", lineno)
                if key in meta:
                    raise SchemaError(f"repeated metadata key {key!r}", lineno)
                try:
                    meta[key] = _METADATA[key][0](value)
                except ValueError:
                    raise SchemaError(f"bad value for {key}: {value!r}", lineno)
                continue
            if m is None:
                if line.replace(" ", "") != _HEADER:
                    raise SchemaError(f"expected header row, got {line!r}", lineno)
                missing = [k for k, (_, required) in _METADATA.items()
                           if required and k not in meta]
                if missing:
                    raise SchemaError(f"missing metadata: {', '.join(missing)}", lineno)
                meta = {**_ABSENT, **meta}
                m = meta["m_slices"]
                keys = _matched_keys(m)
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise SchemaError(f"expected 4 columns, got {len(parts)}", lineno)
            try:
                a, b, d1, d2 = (_count(p) for p in parts)
            except ValueError:
                raise SchemaError(f"fields must be non-negative integers: {line!r}", lineno)
            if not (a < m and b < m):
                raise SchemaError(f"phase index out of range for M={m}: ({a}, {b})", lineno)
            if (a, b, 1) not in keys:  # detector 1 stands for the pair
                raise SchemaError(f"non-matched phase pair ({a}, {b}) for M={m}", lineno)
            if (a, b) in pairs:
                raise SchemaError(f"repeated phase pair ({a}, {b})", lineno)
            pairs.add((a, b))
            if d1:
                matched[(a, b, 1)] = d1
            if d2:
                matched[(a, b, 2)] = d2
    if not pairs:
        raise SchemaError("no data rows found")

    loss_db = meta.pop("loss_db")
    try:
        tally = ObservedTally(matched=matched, **{_FIELD.get(k, k): v for k, v in meta.items()})
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
    return ExperimentRecord(loss_db=loss_db, tally=tally, source=path)


def write_tally_csv(tally: ObservedTally, path: str, loss_db: float) -> None:
    """Serialize a tally in the ingestible CSV schema (bit-exact counts).

    The record's rules, which the parser reads each value by, run first: a
    value it would refuse raises a DomainError naming its field, or the
    counts, before the file is opened.  The metadata lines walk
    ``_METADATA``: each known value once, in order, a flag as its lower-case
    word (true/false) and any other value as its repr.  Rows are in
    the order of :func:`_ordered_keys`, so equal tallies give
    byte-identical files, which :func:`parse_tally_csv` reads back to an
    equal tally.
    """
    loss_db = _check_record("write_tally_csv", loss_db, tally)
    lines = []
    for key in _METADATA:
        value = loss_db if key == "loss_db" else getattr(tally, _FIELD.get(key, key))
        if value is not None:  # None is unknown
            lines.append(f"# {key}={str(value).lower() if type(value) is bool else repr(value)}")
    lines.append(_HEADER)
    for a, b, _ in _ordered_keys(tally.m_slices)[::2]:
        d1 = tally.matched.get((a, b, 1), 0)
        d2 = tally.matched.get((a, b, 2), 0)
        lines.append(f"{a},{b},{d1},{d2}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _matched_counts(stage: str, tally: ObservedTally) -> tuple[int, int, float]:
    """(wrong-detector clicks, matched total, n_mu) of a checked tally; with
    no matched count there is no QBER, a NoDataError naming stage."""
    total = tally.total_matched()
    if total == 0:
        raise NoDataError(f"{stage}: tally has no matched counts")
    return tally.error_count(), total, tally.sifted_size()


def tally_to_stats(tally: ObservedTally) -> tuple[float, float, float]:
    """Empirical (gain, QBER, sifted size) from a tally: Q = valid clicks /
    rounds, and E_b and n_mu as :func:`derive_observables` takes them.  The
    tally's rules run first, for fields set after it was built."""
    tally._check("tally_to_stats")
    errors, total, n_mu = _matched_counts("tally_to_stats", tally)
    return tally.n_det / tally.n_rounds, errors / total, n_mu


def derive_observables(record: ExperimentRecord) -> DerivedObservables:
    """QBER, sifted size and sampled error count from an ingested record.

    E_b is the wrong-detector fraction of matched counts, and the sifted
    size n_mu is :meth:`ObservedTally.sifted_size`.  When the dataset does
    not carry the sampled error count, it is reconstructed from the QBER as
    E_b * n_s with n_s = n_mu p_s / (1 - p_s), rounded to the nearest
    integer, and flagged.  Ties round up, toward more sampled errors.
    """
    tally = record.tally
    _check_record("derive_observables", record.loss_db, tally)  # set past the constructors
    errors, total, n_mu = _matched_counts("derive_observables", tally)
    e_b = errors / total
    if tally.m_s is not None:
        return DerivedObservables(e_b=e_b, n_mu=n_mu, m_s=float(tally.m_s),
                                  m_s_reconstructed=False)
    # E_b * n_s in one fixed order from the counts, so exact ties stay ties.
    x = errors * n_mu * tally.p_s / (total * (1.0 - tally.p_s))
    return DerivedObservables(e_b=e_b, n_mu=n_mu, m_s=float(math.floor(x + 0.5)),
                              m_s_reconstructed=True)


def reproduce_key_rate(
    record: ExperimentRecord,
    budget: SecurityBudget | None = None,
    f: float = defaults.F_EC,
    eta_d: float = defaults.ETA_D,
    p_d: float = defaults.P_D,
) -> KeyRateResult:
    """Key rate from an ingested dataset.

    The gain Q in the phase-error denominators comes from the closed-form
    detection model at the record's declared loss and intensity, the
    convention that reproduces the published key rates.  The counts give
    only a point estimate of Q with no confidence bound, and the measured
    click rate exceeds the model's, so using it would loosen the bound.
    """
    if budget is None:
        budget = SecurityBudget()
    tally = record.tally
    obs = derive_observables(record)
    spec = ChannelSpec(eta_d=eta_d, p_d=p_d, total_loss_db=record.loss_db)
    return finite_key_rate(
        mu=tally.mu,
        m_slices=tally.m_slices,
        n_rounds=float(tally.n_rounds),
        p_s=tally.p_s,
        f=f,
        q_mu=gain(tally.mu, transmittance(spec), p_d),
        e_b=obs.e_b,
        n_mu=obs.n_mu,
        m_s=obs.m_s,
        budget=budget,
    )._replace(m_s_reconstructed=obs.m_s_reconstructed, q_source="channel-model")


def load_bundled_record(loss_db: int) -> ExperimentRecord:
    """Load one of the packaged reference datasets (35, 40 or 45 dB)."""
    if loss_db not in defaults.BUNDLED_TALLIES:
        raise DomainError(
            f"no bundled dataset: loss_db must be one of "
            f"{sorted(defaults.BUNDLED_TALLIES)}, got {loss_db}"
        )
    return parse_tally_csv(str(resources.files("pmqkd.data") / defaults.BUNDLED_TALLIES[loss_db]))


def _finite_or_null(value):
    """value with every NaN or infinite float, which JSON cannot hold, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return [_finite_or_null(v) for v in value] if isinstance(value, (list, tuple)) else value


def result_to_json(result: KeyRateResult) -> str:
    """Strict JSON export of a key-rate result with all intermediate bounds.

    A non-finite bound (an overflowed phase error) is written as null.
    """
    return json.dumps(_finite_or_null(result.to_dict()), indent=2, allow_nan=False)
