"""Phase-matching QKD without intensity modulation: finite-key security
analysis, protocol Monte Carlo simulation, and experimental-data
reproduction."""

from .channel import ChannelSpec, expected_sifted, gain, qber, transmittance
from .errors import (
    DomainError,
    NoDataError,
    PmqkdError,
    SchemaError,
    UndefinedRateError,
)
from .ingest import (
    ExperimentRecord,
    ObservedTally,
    derive_observables,
    load_bundled_record,
    parse_tally_csv,
    reproduce_key_rate,
    write_tally_csv,
)
from .numerics import (
    PseudoFockWeight,
    binary_entropy,
    pseudo_fock_weight,
    pseudo_fock_weight_ub,
)
from .optimizer import OptimizationResult, SearchBounds, optimize
from .pipeline import expected_key_rate
from .security import (
    KatoCoefficients,
    KeyRateResult,
    PhaseErrorBreakdown,
    SecurityBudget,
    chernoff_expected_ub,
    chernoff_observed_ub,
    compose_epsilons,
    deviation_bound,
    finite_key_rate,
    kato_correction,
    kato_epsilon,
    key_length,
    phase_error_discrete,
    vacuum_yield_ub,
)
from .simulator import ProtocolParams, simulate, tally_to_stats

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "DomainError",
    "ExperimentRecord",
    "KatoCoefficients",
    "KeyRateResult",
    "NoDataError",
    "ObservedTally",
    "OptimizationResult",
    "PhaseErrorBreakdown",
    "PmqkdError",
    "ProtocolParams",
    "PseudoFockWeight",
    "SchemaError",
    "SearchBounds",
    "SecurityBudget",
    "UndefinedRateError",
    "binary_entropy",
    "chernoff_expected_ub",
    "chernoff_observed_ub",
    "compose_epsilons",
    "derive_observables",
    "deviation_bound",
    "expected_key_rate",
    "expected_sifted",
    "finite_key_rate",
    "gain",
    "kato_correction",
    "kato_epsilon",
    "key_length",
    "load_bundled_record",
    "optimize",
    "parse_tally_csv",
    "phase_error_discrete",
    "pseudo_fock_weight",
    "pseudo_fock_weight_ub",
    "qber",
    "reproduce_key_rate",
    "simulate",
    "tally_to_stats",
    "transmittance",
    "vacuum_yield_ub",
    "write_tally_csv",
]
