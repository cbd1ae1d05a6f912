"""Parsing and reproduction of experimental tally tables.

Reads the per-phase-pair detector counts (the schema produced by
:func:`pmqkd.simulator.write_tally_csv` and used by the bundled datasets),
derives the observables (QBER, sifted size, reconstructed sampled error
count), and feeds them through the security chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from importlib import resources

from . import defaults
from .channel import ChannelSpec, gain, transmittance
from .errors import DomainError, NoDataError, SchemaError
from .security import KeyRateResult, SecurityBudget, finite_key_rate
from .simulator import ObservedTally

_METADATA_REQUIRED = ("loss_db", "N", "mu", "p_s", "n_det")
_METADATA_TYPES = {
    "loss_db": float,
    "N": float,
    "mu": float,
    "p_s": float,
    "n_det": int,
    "m_slices": int,
    "n_double": int,
    "m_s": int,
    "n_sifted": int,
    "seed": int,
}


@dataclass
class ExperimentRecord:
    """One ingested dataset: counts plus the declared run metadata."""

    loss_db: float
    n_rounds: float
    mu: float
    p_s: float
    tally: ObservedTally
    counts_include_test: bool = False
    source: str | None = None

    def __post_init__(self):
        if self.loss_db <= 0:
            raise DomainError(f"ExperimentRecord: loss_db must be > 0, got {self.loss_db}")
        if self.mu <= 0:
            raise DomainError(f"ExperimentRecord: mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class DerivedObservables:
    e_b: float
    n_mu: float
    m_s: float
    m_s_reconstructed: bool


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(text)


def parse_tally_csv(path: str) -> ExperimentRecord:
    """Parse a tally CSV into an ExperimentRecord.

    The file starts with '# key=value' metadata lines (loss_db, N, mu, p_s
    and n_det are required), then a 'phase_a,phase_b,d1_count,d2_count'
    header, then one row per matched phase pair.  Phases are slice indices,
    i.e. multiples of 2 pi / M (pi/4 steps at M = 8, pi/3 steps at M = 6).
    Malformed rows are rejected with their line number.
    """
    meta: dict[str, object] = {}
    rows: list[tuple[int, int, int, int]] = []
    header_seen = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise SchemaError(f"metadata line without '=': {body!r}", lineno)
                key, _, value = body.partition("=")
                key = key.strip()
                caster = _METADATA_TYPES.get(key)
                try:
                    if key == "counts_include_test":
                        meta[key] = _parse_bool(value)
                    elif caster is int:
                        meta[key] = int(float(value))
                    elif caster is float:
                        meta[key] = float(value)
                    else:
                        meta[key] = value.strip()
                except ValueError:
                    raise SchemaError(f"bad value for {key}: {value!r}", lineno)
                continue
            if not header_seen:
                if line.replace(" ", "") != "phase_a,phase_b,d1_count,d2_count":
                    raise SchemaError(f"expected header row, got {line!r}", lineno)
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise SchemaError(f"expected 4 columns, got {len(parts)}", lineno)
            try:
                a, b, d1, d2 = (int(p) for p in parts)
            except ValueError:
                raise SchemaError(f"non-integer field in row {line!r}", lineno)
            if d1 < 0 or d2 < 0:
                raise SchemaError(f"negative count in row {line!r}", lineno)
            rows.append((a, b, d1, d2))

    missing = [k for k in _METADATA_REQUIRED if k not in meta]
    if missing:
        raise SchemaError(f"missing metadata: {', '.join(missing)}")
    if not header_seen or not rows:
        raise SchemaError("no data rows found")

    m = int(meta.get("m_slices", defaults.M_SLICES))
    half = m // 2
    matched: dict[tuple[int, int, int], int] = {}
    for a, b, d1, d2 in rows:
        if not (0 <= a < m and 0 <= b < m):
            raise SchemaError(f"phase index out of range for M={m}: ({a}, {b})")
        if (a - b) % m not in (0, half):
            raise SchemaError(f"non-matched phase pair ({a}, {b}) for M={m}")
        if d1:
            matched[(a, b, 1)] = matched.get((a, b, 1), 0) + d1
        if d2:
            matched[(a, b, 2)] = matched.get((a, b, 2), 0) + d2

    tally = ObservedTally(
        m_slices=m,
        n_rounds=int(meta["N"]),
        mu=float(meta["mu"]),
        p_s=float(meta["p_s"]),
        n_det=int(meta["n_det"]),
        n_double=int(meta.get("n_double", 0)),
        matched=matched,
        m_s=meta.get("m_s"),
        n_sifted=meta.get("n_sifted"),
        seed=meta.get("seed"),
    )
    return ExperimentRecord(
        loss_db=float(meta["loss_db"]),
        n_rounds=float(meta["N"]),
        mu=float(meta["mu"]),
        p_s=float(meta["p_s"]),
        tally=tally,
        counts_include_test=bool(meta.get("counts_include_test", False)),
        source=path,
    )


def derive_observables(record: ExperimentRecord) -> DerivedObservables:
    """QBER, sifted size and sampled error count from an ingested record.

    E_b is the wrong-detector fraction of matched counts.  When the dataset
    does not carry the sampled error count, it is reconstructed from the
    QBER as E_b * n_s with n_s = n_mu p_s / (1 - p_s), rounded to the
    nearest integer, and flagged.  Ties round up, toward more sampled errors.
    """
    tally = record.tally
    total = tally.total_matched()
    if total == 0:
        raise NoDataError("derive_observables: record has no matched counts")
    errors = tally.error_count()
    e_b = errors / total
    if record.counts_include_test:
        # Simulator-style tally: counts include the test sample.
        if tally.n_sifted is not None:
            n_mu = float(tally.n_sifted)
        else:
            n_mu = total * (1.0 - record.p_s)
    else:
        # Transcribed datasets: counts are the post-sampling sifted key.
        n_mu = float(total)
    if tally.m_s is not None:
        return DerivedObservables(e_b=e_b, n_mu=n_mu, m_s=float(tally.m_s),
                                  m_s_reconstructed=False)
    # E_b * n_s in one fixed order from the counts, so exact ties stay ties.
    x = errors * n_mu * record.p_s / (total * (1.0 - record.p_s))
    return DerivedObservables(e_b=e_b, n_mu=n_mu, m_s=float(math.floor(x + 0.5)),
                              m_s_reconstructed=True)


def reproduce_key_rate(
    record: ExperimentRecord,
    budget: SecurityBudget | None = None,
    q_source: str = "channel-model",
    m_slices: int | None = None,
    f: float = defaults.F_EC,
    eta_d: float = defaults.ETA_D,
    p_d: float = defaults.P_D,
) -> KeyRateResult:
    """Key rate from an ingested dataset.

    q_source selects the gain entering the phase-error denominators:

    * ``channel-model`` (default): Q from the closed-form detection model at
      the record's declared loss and intensity.  This is the convention that
      reproduces the published key rates; the measured click rate exceeds
      the model's, so using it would loosen the phase-error bound.
    * ``counts``: Q inferred from the counts as n_mu M / (2 N (1 - p_s)).
    """
    if budget is None:
        budget = SecurityBudget()
    if m_slices is None:
        m_slices = record.tally.m_slices
    obs = derive_observables(record)
    if q_source == "channel-model":
        spec = ChannelSpec(eta_d=eta_d, p_d=p_d, total_loss_db=record.loss_db)
        q_mu = gain(record.mu, transmittance(spec), p_d)
    elif q_source == "counts":
        q_mu = obs.n_mu * m_slices / (2.0 * record.n_rounds * (1.0 - record.p_s))
    else:
        raise DomainError(f"reproduce_key_rate: unknown q_source {q_source!r}")
    return finite_key_rate(
        mu=record.mu,
        m_slices=m_slices,
        n_rounds=record.n_rounds,
        p_s=record.p_s,
        f=f,
        q_mu=q_mu,
        e_b=obs.e_b,
        n_mu=obs.n_mu,
        m_s=obs.m_s,
        budget=budget,
        m_s_reconstructed=obs.m_s_reconstructed,
        q_source=q_source,
    )


def bundled_tally_path(loss_db: int):
    """Path to one of the packaged reference datasets (35, 40 or 45 dB)."""
    if loss_db not in defaults.BUNDLED_TALLIES:
        raise DomainError(
            f"no bundled dataset for {loss_db} dB; available: "
            f"{sorted(defaults.BUNDLED_TALLIES)}"
        )
    return resources.files("pmqkd.data") / defaults.BUNDLED_TALLIES[loss_db]


def load_bundled_record(loss_db: int) -> ExperimentRecord:
    """Load one of the packaged reference datasets."""
    return parse_tally_csv(str(bundled_tally_path(loss_db)))


def record_to_json(record: ExperimentRecord) -> str:
    """JSON export of a record; matched counts become explicit row objects."""
    data = asdict(record)
    data["tally"]["matched"] = [
        {"phase_a": a, "phase_b": b, "detector": det, "count": count}
        for (a, b, det), count in sorted(record.tally.matched.items())
    ]
    return json.dumps(data, indent=2)


def result_to_json(result: KeyRateResult) -> str:
    """JSON export of a key-rate result with all intermediate bounds."""
    return json.dumps(result.to_dict(), indent=2)
