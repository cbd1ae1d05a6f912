"""Each input of the rate declares the direction of its effect.

DIRECTIONS maps every input of expected_key_rate, finite_key_rate and
reproduce_key_rate to "up" (raising it never lowers the rate), "down"
(raising it never raises the rate) or None (no direction declared), each
with a reason.  An input is a parameter, or a field of a record parameter
(ChannelSpec, SecurityBudget, ExperimentRecord and its ObservedTally), named
by its dotted path.  test_table_covers_every_input pins the table to the
signatures, so a new input must declare its direction, and
test_direction_holds raises one input at a time and compares the rates.
"""

import dataclasses
import functools
import inspect
import math
import typing

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from pmqkd.channel import ChannelSpec
from pmqkd.ingest import load_bundled_record, reproduce_key_rate
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import SecurityBudget, finite_key_rate

FUNCTIONS = {f.__name__: f for f in (expected_key_rate, finite_key_rate, reproduce_key_rate)}

_BUDGET = {
    "budget.eps": ("up", "a larger Chernoff failure probability narrows both margins "
                         "of the vacuum yield"),
    "budget.eps_ka": ("up", "a larger Kato failure probability narrows its correction"),
    "budget.xi": ("down", "privacy-amplification bits are subtracted from the key"),
    "budget.xi_prime": ("down", "error-verification bits are subtracted from the key"),
}
_SLICES = (None, "a choice of 6 or 8 slices: at fixed counts it trades the number of "
                 "deviation terms against their size, and in the model the sifted "
                 "fraction 2/M as well")
_SAMPLING = (None, "more test rounds tighten the vacuum yield's scale (1 - p_s) / p_s but "
                   "widen its Chernoff margin by 1 / (1 - p_s), and in the model leave "
                   "fewer key bits")
_EFFICIENCY = ("down", "error correction leaks f h(E_b) bits per sifted bit")

DIRECTIONS = {
    "expected_key_rate": {
        "channel.eta_d": ("up", "more of the light is detected, at the same dark counts"),
        "channel.p_d": ("down", "dark counts add errors and vacuum clicks"),
        "channel.e_d": ("down", "misalignment adds errors"),
        "channel.total_loss_db": ("down", "less light reaches the detectors"),
        "channel.distance_km": ("down", "the loss grows with the distance"),
        "channel.alpha_db_per_km": ("down", "the loss of a distance grows with it"),
        "mu": (None, "the rate peaks inside the range: more signal, and more "
                     "multiphoton and deviation terms"),
        "m_slices": _SLICES,
        "n_rounds": ("up", "every finite-size margin shrinks relative to the counts"),
        "p_s": _SAMPLING,
        "f": _EFFICIENCY,
        **_BUDGET,
    },
    "finite_key_rate": {
        "mu": ("down", "at fixed counts the multiphoton and deviation terms grow with mu "
                       "(docs/DECISIONS.md, \"Which terms read mu, and which way\")"),
        "m_slices": _SLICES,
        "n_rounds": (None, "at fixed counts more rounds lower the vacuum yield but divide "
                           "the key among more rounds"),
        "p_s": _SAMPLING,
        "f": _EFFICIENCY,
        "q_mu": ("up", "every phase-error term divides by Q"),
        "e_b": ("down", "the leak f h(E_b) grows up to E_b = 1/2"),
        "n_mu": ("up", "more sifted bits at the same errors, and a Kato correction per "
                       "bit that shrinks"),
        "m_s": ("down", "sampled errors lift the vacuum-yield bound"),
        **_BUDGET,
    },
    "reproduce_key_rate": {
        "record.loss_db": ("down", "the model's Q falls with the declared loss"),
        "record.source": (None, "the path the record came from, not read by the rating"),
        "record.tally.m_slices": _SLICES,
        "record.tally.n_rounds": (None, "at fixed counts more rounds lower the vacuum "
                                        "yield but divide the key among more rounds"),
        "record.tally.mu": ("down", "the chain's terms grow with mu faster than the "
                                    "model's Q (TestRateNonIncreasingInMu)"),
        "record.tally.p_s": _SAMPLING,
        "record.tally.n_det": (None, "not read: Q comes from the model (docs/DECISIONS.md, "
                                     "\"`reproduce` takes Q from the model only\")"),
        "record.tally.n_double": (None, "not read by the rating"),
        "record.tally.matched": (None, "each count adds sifted key and, on the wrong "
                                       "detector, an error"),
        "record.tally.m_s": ("down", "sampled errors lift the vacuum-yield bound"),
        "record.tally.n_sifted": (None, "more key bits, and more reconstructed sampled "
                                        "errors when m_s is unknown"),
        "record.tally.seed": (None, "provenance, not read by the rating"),
        "record.tally.counts_include_test": (None, "a counting convention, not a quantity"),
        "f": _EFFICIENCY,
        "eta_d": ("up", "the model's Q rises with the detector efficiency"),
        "p_d": ("down", "dark counts are worse physics, which must not raise the rate"),
        **_BUDGET,
    },
}


def _paths(path: str, hint) -> list[str]:
    """path, or the paths of its fields when hint is a record (a dataclass)."""
    record = next((t for t in typing.get_args(hint) or (hint,)
                   if dataclasses.is_dataclass(t)), None)
    if record is None:
        return [path]
    hints = typing.get_type_hints(record)
    return [p for f in dataclasses.fields(record) for p in _paths(f"{path}.{f.name}",
                                                                  hints[f.name])]


def _inputs(func) -> list[str]:
    hints = typing.get_type_hints(func)
    return [p for name in inspect.signature(func).parameters for p in _paths(name, hints[name])]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_table_covers_every_input(name):
    table = DIRECTIONS[name]
    assert sorted(table) == sorted(_inputs(FUNCTIONS[name]))
    for path, (direction, reason) in table.items():
        assert direction in ("up", "down", None) and reason, path


def _log(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# A base point for each function, drawn where twice each directed input is
# still valid (eta_d <= 1, e_d <= 1/2, eps < 1; the model's E_b is at most 1/2).
_POINT = st.fixed_dictionaries(dict(
    loss=st.floats(10.0, 45.0), mu=_log(3e-4, 1e-2), n_rounds=_log(1e10, 1e14),
    p_d=_log(1e-10, 1e-7), e_d=_log(1e-3, 0.05), eta_d=st.floats(0.1, 0.5),
    f=st.floats(1.0, 1.3), p_s=st.floats(0.02, 0.3), m_slices=st.sampled_from((6, 8)),
    budget=st.builds(SecurityBudget, eps=_log(1e-25, 1e-10), eps_ka=_log(1e-15, 1e-8),
                     xi=st.floats(10.0, 100.0), xi_prime=st.floats(10.0, 100.0)),
    bundled=st.sampled_from((35, 40, 45)), m_s=st.none() | st.integers(1, 200),
))
_ALPHA = 0.168


@functools.cache
def _bundled(loss_db):
    return load_bundled_record(loss_db)


def _base(name: str, path: str, point: dict) -> dict:
    """A valid keyword call of the named function at the drawn point."""
    if name == "reproduce_key_rate":
        record = _bundled(point["bundled"])
        tally = dataclasses.replace(record.tally, m_s=point["m_s"])
        return dict(record=dataclasses.replace(record, tally=tally), budget=point["budget"],
                    f=point["f"], eta_d=point["eta_d"], p_d=point["p_d"])
    detector = dict(eta_d=point["eta_d"], p_d=point["p_d"], e_d=point["e_d"])
    if path in ("channel.distance_km", "channel.alpha_db_per_km"):
        channel = ChannelSpec(distance_km=point["loss"] / _ALPHA, alpha_db_per_km=_ALPHA,
                              **detector)
    else:
        channel = ChannelSpec(total_loss_db=point["loss"], **detector)
    model = dict(channel=channel, mu=point["mu"], m_slices=point["m_slices"],
                 n_rounds=point["n_rounds"], p_s=point["p_s"], f=point["f"],
                 budget=point["budget"])
    if name == "expected_key_rate":
        return model
    r = expected_key_rate(**model)
    return dict(mu=r.mu, m_slices=r.m_slices, n_rounds=r.n_rounds, p_s=r.p_s, f=r.f,
                q_mu=r.q_mu, e_b=r.e_b, n_mu=r.n_mu, m_s=r.m_s, budget=r.budget)


def _get(obj, path: str):
    for part in path.split("."):
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    return obj


def _with(obj, path: str, value):
    """A copy of obj (a keyword dict or a record) with the input at path set to value."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with(_get(obj, head), rest, value)
    if isinstance(obj, dict):
        return {**obj, head: value}
    return dataclasses.replace(obj, **{head: value})


_FOUND = {
    # The model's Q rises with p_d, and every phase-error term divides by it.
    ("reproduce_key_rate", "p_d"): "a declared p_d raises the rate at fixed counts",
}


@pytest.mark.parametrize("name,path", [
    pytest.param(name, path, id=f"{name}.{path}", marks=[pytest.mark.xfail(
        strict=True, reason=_FOUND[name, path])] if (name, path) in _FOUND else [])
    for name, table in DIRECTIONS.items()
    for path, (direction, _) in table.items() if direction
])
@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(point=_POINT, factor=st.floats(1.0, 2.0, exclude_min=True))
def test_direction_holds(name, path, point, factor):
    kw = _base(name, path, point)
    value = _get(kw, path)
    assume(value is not None)  # an unknown m_s
    raised = math.ceil(value * factor) if type(value) is int else value * factor
    before = FUNCTIONS[name](**kw).rate
    after = FUNCTIONS[name](**_with(kw, path, raised)).rate
    if DIRECTIONS[name][path][0] == "up":
        assert after >= before
    else:
        assert after <= before
