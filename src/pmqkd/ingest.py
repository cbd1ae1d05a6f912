"""Parsing and reproduction of experimental tally tables.

Reads the per-phase-pair detector counts (the schema produced by
:func:`pmqkd.simulator.write_tally_csv` and used by the bundled datasets),
derives the observables (QBER, sifted size, reconstructed sampled error
count), and feeds them through the security chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from . import defaults
from .channel import ChannelSpec, gain, transmittance
from .errors import DomainError, NoDataError, SchemaError
from .security import KeyRateResult, SecurityBudget, finite_key_rate
from .simulator import ObservedTally


def _number(text: str) -> float:
    """float(text), or NaN, which every rule refuses, where text is no number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


# Each rule reads one value's text and raises ValueError naming its domain.
def _count(text: str) -> int:
    """A non-negative integer; an integral float such as 1e11 is accepted."""
    value = _number(text)
    if not (value >= 0 and value.is_integer()):
        raise ValueError("an integer >= 0")
    return int(text) if text.isdigit() else int(value)


def _positive(text: str) -> float:
    value = _number(text)
    if not 0 < value < math.inf:
        raise ValueError("finite and > 0")
    return value


def _fraction(text: str) -> float:
    """A number strictly between 0 and 1."""
    value = _number(text)
    if not 0 < value < 1:
        raise ValueError("in (0, 1)")
    return value


def parse_flag(text: str) -> bool:
    """A boolean word of the tally schema: true/false, 1/0 or yes/no."""
    value = text.lower()
    if value not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError("true or false")
    return value in ("true", "1", "yes")


# Every metadata key a tally file may carry, in the order the writer writes
# them: key -> (rule, required).  loss_db belongs to the record, and every
# other key to the ObservedTally field _FIELD names, by default its own name.
# An absent optional key takes the field's default, or its value in _ABSENT.
_METADATA = {
    "loss_db": (_positive, True),
    "N": (_count, True),
    "mu": (_positive, True),
    "p_s": (_fraction, True),
    "n_det": (_count, True),
    "m_slices": (_count, False),
    "n_double": (_count, False),
    "m_s": (_count, False),
    "n_sifted": (_count, False),
    "counts_include_test": (parse_flag, False),
    "seed": (_count, False),
}
_FIELD = {"N": "n_rounds"}
_ABSENT = {"m_slices": defaults.M_SLICES, "counts_include_test": False}


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
        if not 0 < self.loss_db < math.inf:
            raise DomainError(
                f"ExperimentRecord: loss_db must be finite and > 0, got {self.loss_db}")
        if not self.tally.mu > 0:
            raise DomainError(f"ExperimentRecord: mu must be > 0, got {self.tally.mu}")


@dataclass(frozen=True)
class DerivedObservables:
    e_b: float
    n_mu: float
    m_s: float
    m_s_reconstructed: bool


def parse_tally_csv(path: str) -> ExperimentRecord:
    """Parse a tally CSV into an ExperimentRecord, reading each line once.

    The file starts with '# key=value' metadata lines, each key of
    _METADATA at most once, then a 'phase_a,phase_b,d1_count,d2_count'
    header, then at most one row per matched phase pair.  Phases are slice
    indices, i.e. multiples of 2 pi / M (pi/4 steps at M = 8, pi/3 steps at
    M = 6).  The counts must satisfy N >= n_det >= matched total >= n_sifted.
    A violation is rejected with its line number or the fields it involves.
    The tally's counting convention is the file's counts_include_test, false
    when absent (a transcribed table).
    """
    meta: dict[str, object] = {}
    matched: dict[tuple[int, int, int], int] = {}
    pairs: set[tuple[int, int]] = set()
    m = None  # slice count, fixed once the header is read
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
                if line.replace(" ", "") != "phase_a,phase_b,d1_count,d2_count":
                    raise SchemaError(f"expected header row, got {line!r}", lineno)
                missing = [k for k, (_, required) in _METADATA.items()
                           if required and k not in meta]
                if missing:
                    raise SchemaError(f"missing metadata: {', '.join(missing)}", lineno)
                meta = {**_ABSENT, **meta}
                m = meta["m_slices"]
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
            if (a - b) % m not in (0, m // 2):
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
    tally = ObservedTally(matched=matched, **{_FIELD.get(k, k): v for k, v in meta.items()})
    total = tally.total_matched()
    if not tally.n_rounds >= tally.n_det >= total >= (tally.n_sifted or 0):
        raise SchemaError(
            "counts must satisfy N >= n_det >= matched total >= n_sifted, got "
            f"N={tally.n_rounds}, n_det={tally.n_det}, matched total={total}, "
            f"n_sifted={tally.n_sifted}")
    return ExperimentRecord(loss_db=loss_db, tally=tally, source=path)


def derive_observables(record: ExperimentRecord) -> DerivedObservables:
    """QBER, sifted size and sampled error count from an ingested record.

    E_b is the wrong-detector fraction of matched counts, and the sifted
    size n_mu is :meth:`ObservedTally.sifted_size`.  When the dataset does
    not carry the sampled error count, it is reconstructed from the QBER as
    E_b * n_s with n_s = n_mu p_s / (1 - p_s), rounded to the nearest
    integer, and flagged.  Ties round up, toward more sampled errors.
    """
    tally = record.tally
    total = tally.total_matched()
    if total == 0:
        raise NoDataError("derive_observables: record has no matched counts")
    errors = tally.error_count()
    e_b = errors / total
    n_mu = tally.sifted_size()
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
    if tally.m_slices not in defaults.SUPPORTED_M_SLICES:
        raise DomainError(f"tally m_slices={tally.m_slices}: the bound chain "
                          f"supports m_slices 6 or 8 only")
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
        m_s_reconstructed=obs.m_s_reconstructed,
        q_source="channel-model",
    )


def bundled_tally_path(loss_db: int):
    """Path to one of the packaged reference datasets (35, 40 or 45 dB)."""
    if loss_db not in defaults.BUNDLED_TALLIES:
        raise DomainError(
            f"no bundled dataset: loss_db must be one of "
            f"{sorted(defaults.BUNDLED_TALLIES)}, got {loss_db}"
        )
    return resources.files("pmqkd.data") / defaults.BUNDLED_TALLIES[loss_db]


def load_bundled_record(loss_db: int) -> ExperimentRecord:
    """Load one of the packaged reference datasets."""
    return parse_tally_csv(str(bundled_tally_path(loss_db)))


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
