"""The exact text of every refusal that numerics._check_range writes.

One row per site that states a range: the stage, the field, the interval and
the value refused, byte for byte.  The rows reach each site through a public
entry, or the private rule that owns it, so they read the same on any version
of the package that keeps these messages.

Beside them: the values each site that once held a hand-written check
refuses, against that check's predicate, and a walk of the package that
finds every refusal which is not a call of the rule.
"""

import ast
import math
import pathlib

import pytest

import pmqkd
from pmqkd.channel import ChannelSpec, expected_sifted, gain, qber
from pmqkd.errors import DomainError
from pmqkd.ingest import ExperimentRecord, ObservedTally
from pmqkd.numerics import binary_entropy, pseudo_fock_weight
from pmqkd.security import (
    SecurityBudget,
    _kato_lift,
    chernoff_expected_ub,
    chernoff_observed_ub,
    deviation_bound,
    finite_key_rate,
    kato_correction,
    key_length,
    phase_error_discrete,
    vacuum_yield_ub,
)
from pmqkd.simulator import ProtocolParams

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
    ("pseudo_fock_weight.k", lambda: pseudo_fock_weight(1e-3, 8, 8),
     "pseudo_fock_weight: k must be in [0, 8), got 8"),
    ("_require_mu", lambda: pseudo_fock_weight(math.nan, 8, 0),
     "pseudo_fock_weight: mu must be finite and in [0, 700], got nan"),
    ("_require_count", lambda: ProtocolParams(mu=1e-3, m_slices=8, n_rounds=0, p_s=0.07,
                                              channel=ChannelSpec(total_loss_db=20.0)),
     "ProtocolParams: n_rounds must be finite and >= 1, got 0"),
    # channel
    ("ChannelSpec.eta_d", lambda: ChannelSpec(eta_d=0.0, total_loss_db=40.0),
     "ChannelSpec: eta_d must be in (0, 1], got 0.0"),
    ("ChannelSpec.p_d", lambda: ChannelSpec(p_d=1.0, total_loss_db=40.0),
     "ChannelSpec: p_d must be in [0, 1), got 1.0"),
    ("ChannelSpec.e_d", lambda: ChannelSpec(e_d=0.75, total_loss_db=40.0),
     "ChannelSpec: e_d must be in [0, 0.5], got 0.75"),
    ("ChannelSpec.total_loss_db", lambda: ChannelSpec(total_loss_db=-1.0),
     "ChannelSpec: total_loss_db must be finite and >= 0, got -1.0"),
    ("ChannelSpec.distance_km", lambda: ChannelSpec(distance_km=math.nan),
     "ChannelSpec: distance_km must be finite and >= 0, got nan"),
    ("ChannelSpec.alpha_db_per_km",
     lambda: ChannelSpec(distance_km=100.0, alpha_db_per_km=-0.1),
     "ChannelSpec: alpha_db_per_km must be finite and > 0, got -0.1"),
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
    ("SecurityBudget.xi", lambda: SecurityBudget(xi=0.0),
     "SecurityBudget: xi must be finite and > 0, got 0.0"),
    ("SecurityBudget.xi_prime", lambda: SecurityBudget(xi_prime=math.inf),
     "SecurityBudget: xi_prime must be finite and > 0, got inf"),
    ("chernoff_expected_ub.x", lambda: chernoff_expected_ub(-1.0, 1e-10),
     "chernoff_expected_ub: x must be finite and >= 0, got -1.0"),
    ("chernoff_observed_ub.x_star", lambda: chernoff_observed_ub(math.inf, 1e-10),
     "chernoff_observed_ub: x_star must be finite and >= 0, got inf"),
    ("vacuum_yield_ub.n_rounds", lambda: vacuum_yield_ub(49.0, 0.07, math.inf, 1e-3, 1e-10),
     "vacuum_yield_ub: n_rounds must be finite and > 0, got inf"),
    ("finite_key_rate.n_rounds", lambda: finite_key_rate(**dict(_GOOD, n_rounds=0.0)),
     "finite_key_rate: n_rounds must be finite and > 0, got 0.0"),
    ("finite_key_rate.f", lambda: finite_key_rate(**dict(_GOOD, f=0.5)),
     "finite_key_rate: f must be finite and >= 1, got 0.5"),
    ("phase_error_discrete.y0_bar", lambda: phase_error_discrete(1e-3, 8, 3e-6, -1e-7),
     "phase_error_discrete: y0_bar must be finite and >= 0, got -1e-07"),
    ("kato_correction.lambda_n", lambda: kato_correction(1e5, 1.5e5, 1e-10),
     "kato_correction: lambda_n must be in [0, 100000], got 150000.0"),
    ("_kato_lift.lambda_n", lambda: _kato_lift(1e5, -0.1, 1e-10),
     "kato_correction: lambda_n must be in [0, 100000], got -10000.0"),
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
    ("key_length.ep_m_bar",
     lambda: key_length(7e4, -0.1, 0.01, 1.16, SecurityBudget(), 1e11),
     "key_length: ep_m_bar must be in [0, inf], got -0.1"),
    ("key_length.f",
     lambda: key_length(7e4, 0.1, 0.01, math.nan, SecurityBudget(), 1e11),
     "key_length: f must be finite and >= 1, got nan"),
    ("key_length.n_rounds",
     lambda: key_length(7e4, 0.1, 0.01, 1.16, SecurityBudget(), -1.0),
     "key_length: n_rounds must be finite and > 0, got -1.0"),
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


@pytest.mark.parametrize("n,lambda_n,bound", [
    (1234567.0, 1234567.5, "1234567.0"),   # :g once wrote 1.23457e+06
    (1e5 + 0.5, 1e5 + 1.0, "100000.5"),    # :g once wrote 100000
    (1e5, 1e5 + 1.0, "100000"),            # :g reads back as the bound
    (1e20, 1.5e20, "1e+20"),
])
def test_a_bound_is_written_as_the_number_it_is(n, lambda_n, bound):
    # A bound that is another input, as lambda_n's n, may need more than :g's
    # six digits, or a refused value reads as inside its range.
    with pytest.raises(DomainError) as exc:
        kato_correction(n, lambda_n, 1e-10)
    assert str(exc.value) == f"kato_correction: lambda_n must be in [0, {bound}], got {lambda_n}"


# Each site a hand-written check once stated, the value it reads set to v,
# the bounds of its range, and that check's predicate for a refused v,
# written out as it stood.
_BUDGET = SecurityBudget()
_DOMAINS = [
    ("finite_key_rate.n_rounds", lambda v: finite_key_rate(**dict(_GOOD, n_rounds=v)), (0.0,),
     lambda v: not math.isfinite(v) or v <= 0),
    ("vacuum_yield_ub.n_rounds", lambda v: vacuum_yield_ub(49.0, 0.07, v, 1e-3, 1e-10), (0.0,),
     lambda v: not math.isfinite(v) or v <= 0),
    ("key_length.n_rounds", lambda v: key_length(7e4, 0.1, 0.01, 1.16, _BUDGET, v), (0.0,),
     lambda v: not math.isfinite(v) or v <= 0),
    ("finite_key_rate.f", lambda v: finite_key_rate(**dict(_GOOD, f=v)), (1.0,),
     lambda v: not (math.isfinite(v) and v >= 1.0)),
    ("key_length.f", lambda v: key_length(7e4, 0.1, 0.01, v, _BUDGET, 1e11), (1.0,),
     lambda v: not (math.isfinite(v) and v >= 1.0)),
    ("chernoff_expected_ub.x", lambda v: chernoff_expected_ub(v, 1e-10), (0.0,),
     lambda v: not v >= 0.0 or v == math.inf),
    ("chernoff_observed_ub.x_star", lambda v: chernoff_observed_ub(v, 1e-10), (0.0,),
     lambda v: not v >= 0.0 or v == math.inf),
    ("phase_error_discrete.y0_bar", lambda v: phase_error_discrete(1e-3, 8, 3e-6, v), (0.0,),
     lambda v: not v >= 0.0 or v == math.inf),
    ("key_length.ep_m_bar", lambda v: key_length(7e4, v, 0.01, 1.16, _BUDGET, 1e11), (0.0,),
     lambda v: not v >= 0.0),
    ("kato_correction.lambda_n", lambda v: kato_correction(1e5, v, 1e-10), (0.0, 1e5),
     lambda v: not 0.0 <= v <= 1e5),
    # The lift reads lambda = min(n ep_m, n): ep_m = 0 and 1 are its bounds.
    ("_kato_lift.lambda_n", lambda v: _kato_lift(1e5, v, 1e-10), (0.0, 1.0),
     lambda v: not 0.0 <= min(1e5 * v, 1e5) <= 1e5),
    ("SecurityBudget.xi", lambda v: SecurityBudget(xi=v), (0.0,),
     lambda v: not (math.isfinite(v) and v > 0)),
    ("SecurityBudget.xi_prime", lambda v: SecurityBudget(xi_prime=v), (0.0,),
     lambda v: not (math.isfinite(v) and v > 0)),
    ("ChannelSpec.alpha_db_per_km",
     lambda v: ChannelSpec(distance_km=100.0, alpha_db_per_km=v), (0.0,),
     lambda v: not math.isfinite(v) or v <= 0),
    ("ChannelSpec.total_loss_db", lambda v: ChannelSpec(total_loss_db=v), (0.0,),
     lambda v: not math.isfinite(v) or v < 0),
    ("ChannelSpec.distance_km", lambda v: ChannelSpec(distance_km=v), (0.0,),
     lambda v: not math.isfinite(v) or v < 0),
    # k is read as an integer first; 0 and M = 8 are its bounds.
    ("pseudo_fock_weight.k", lambda v: pseudo_fock_weight(1e-3, 8, v), (0.0, 8.0),
     lambda v: not (math.isfinite(v) and int(v) == v) or not 0 <= v < 8),
]


def _probes(bounds):
    """nan, the infinities, -1, both zeros, the least subnormal and 1e308,
    and each bound with its neighbours one ulp and one unit away."""
    values = [math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e308, math.inf]
    for b in bounds:
        values += [b - 1.0, math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf), b + 1.0]
    return values


@pytest.mark.parametrize("call,bounds,refused", [row[1:] for row in _DOMAINS],
                         ids=[row[0] for row in _DOMAINS])
def test_domain_did_not_move(call, bounds, refused):
    moved = []
    for v in _probes(bounds):
        try:
            call(v)
        except DomainError:
            if not refused(v):
                moved.append(f"{v!r} now refused")
        else:
            if refused(v):
                moved.append(f"{v!r} now accepted")
    assert moved == []


# Every function of the package outside the CLI that raises DomainError
# itself, with the number of its raise statements and why each is no range.
# Any other refusal is a range, and is a call of numerics._check_range.
_NOT_RANGES = {
    "numerics._check_range": (1, "the range rule itself"),
    "numerics._require_integer": (1, "integrality, not a range"),
    "numerics._require_count": (
        1, "the double's size, beside its integrality and its floor, a range; the size "
           "is named by bit length, since an int past 4300 digits has no str"),
    "numerics.pseudo_fock_weight_ub": (
        3, "M even, k in {0, 2, 4, 6}, and M >= k + 2: a parity, a set and a "
           "relation of two inputs"),
    "security._check_slices": (1, "a set, defaults.SUPPORTED_M_SLICES"),
    "security.deviation_bound": (1, "k even and below M: a parity"),
    "channel.ChannelSpec.__post_init__": (1, "exactly one of two fields is given"),
    "ingest.ObservedTally.__post_init__": (1, "the flag's type"),
    "ingest.ObservedTally._check_counts": (2, "the tally's key set and count order"),
    "ingest.ObservedTally.merge": (1, "two tallies must agree"),
    "ingest.load_bundled_record": (1, "a set, the bundled tallies"),
    "optimizer.SearchBounds.__post_init__": (
        2, "an ordered pair of bounds, shown whole; a check per end would lose the pair"),
    "simulator.simulate": (
        2, "the seed's Philox key cap, exact only as the int 2**64, and the batch count, "
           "which neither input holds alone"),
}


def _count_raises(node, where, found):
    """Add to found[where] each raise DomainError under node, where naming
    the module and the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _count_raises(child, f"{where}.{child.name}", found)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "DomainError":
                found[where] = found.get(where, 0) + 1
        _count_raises(child, where, found)


def _domain_error_raises():
    """module.qualname -> the number of raise DomainError statements in it."""
    found = {}
    for path in sorted(pathlib.Path(pmqkd.__file__).parent.glob("*.py")):
        if path.name != "cli.py":  # its refusals name flags
            _count_raises(ast.parse(path.read_text()), path.stem, found)
    return found


def test_every_refusal_is_a_range_call_or_listed():
    assert _domain_error_raises() == {site: n for site, (n, _) in _NOT_RANGES.items()}
