"""The chain's audit records: their serialised layout, immutability and pickling.

The golden files under ``tests/data`` are the exact text the CLI wrote for
``reproduce --bundled 45`` (JSON) and ``keyrate --loss-db 30 --mu 1e-3``
(CSV).  They pin key order, nesting and the list form of ``deviations``, so
a change to how the records are built must leave every output byte alone.
Two more pin the optimized outputs to the last bit: a ``scan`` at
N = 1e12, and the discretization penalties of an M = 6 loss scan
(``scan --alpha 1 --detail``), so a change to the search or to how the chain
computes its terms must leave them alone too.  A record with
fewer than one sifted bit pins the one step the chain skips there: the
Kato lift, replaced by ep_m_bar = 0.5, with every other term computed.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from pmqkd.channel import ChannelSpec
from pmqkd.cli import main
from pmqkd.ingest import load_bundled_record, reproduce_key_rate, result_to_json
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import (
    KatoCoefficients,
    KeyRateResult,
    PhaseErrorBreakdown,
    SecurityBudget,
    deviation_bound,
    finite_key_rate,
    phase_error_discrete,
)
from pmqkd.simulator import ProtocolParams, simulate

DATA = Path(__file__).parent / "data"

# A chain with fewer than one sifted bit and ep_m below 0.5: no Kato
# record, ep_m_bar 0.5, and the vacuum, multiphoton and deviation terms
# computed as at any other n_mu.
SHORT_CIRCUIT_JSON = """\
{
  "ell": 0.0,
  "rate": 0.0,
  "n_rounds": 1000000000000.0,
  "n_mu": 0.5,
  "e_b": 0.25,
  "m_s": 0.0,
  "mu": 0.125,
  "m_slices": 8,
  "p_s": 0.0625,
  "f": 1.5,
  "q_mu": 0.5,
  "y0_bar": 4.0378287502427985e-09,
  "breakdown": {
    "vacuum_term": 7.126742730512596e-09,
    "multiphoton_term": 0.01380697790221408,
    "deviations": [
      2.1627538922458554e-06,
      2.5024889195442237e-09,
      9.816923028607742e-13,
      2.0753630073096854e-16
    ],
    "ep_m": 0.013809150286319875,
    "kato_delta": 0.0,
    "ep_m_bar": 0.5
  },
  "kato": null,
  "budget": {
    "eps": 5e-21,
    "eps_ka": 1e-10,
    "xi": 66.43856189774725,
    "xi_prime": 49.82892142331043
  },
  "m_s_reconstructed": false,
  "q_source": "closed-form",
  "eps_sec": 1.9999999999999993e-10,
  "eps_cor": 1.0000000000000015e-15,
  "eps_tot": 3.0000099999999995e-10,
  "ep_m": 0.013809150286319875,
  "ep_m_bar": 0.5
}"""


def _bundled_45():
    return reproduce_key_rate(load_bundled_record(45))


def _short_circuit(n_mu=0.5):
    return finite_key_rate(
        mu=0.125, m_slices=8, n_rounds=1e12, p_s=0.0625, f=1.5, q_mu=0.5,
        e_b=0.25, n_mu=n_mu, m_s=0.0, budget=SecurityBudget(),
    )


class TestSerialisedLayout:
    def test_bundled_45_json(self):
        expected = (DATA / "reproduce_bundled_45.json").read_text()
        assert result_to_json(_bundled_45()) + "\n" == expected

    def test_bundled_45_cli_file(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        assert main(["reproduce", "--bundled", "45", "--output", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == (DATA / "reproduce_bundled_45.json").read_text()

    def test_short_circuit_json(self):
        result = _short_circuit()
        assert result.kato is None and result.ep_m < result.ep_m_bar == 0.5
        # The terms before the lift do not depend on n_mu.
        assert result.breakdown[:4] == _short_circuit(n_mu=1e4).breakdown[:4]
        assert result_to_json(result) == SHORT_CIRCUIT_JSON

    def test_keyrate_csv_rows(self, capsys, tmp_path):
        out = tmp_path / "result.csv"
        code = main(["keyrate", "--loss-db", "30", "--mu", "1e-3",
                     "--format", "csv", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        expected = (DATA / "keyrate_30db_mu1e-3.csv").read_text()
        assert out.read_text().splitlines() == expected.splitlines()


@pytest.mark.parametrize("argv,golden", [
    (["scan", "--d-min", "10", "--d-max", "330", "--step", "40", "--n-rounds", "1e12"],
     "scan_1e12_10-330km.csv"),
])
def test_optimized_output_bytes(capsys, tmp_path, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--output", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (DATA / golden).read_text()


def test_loss_scan_detail_rebuilds_the_deviation_table(capsys, tmp_path):
    # deviation_m6_20-50db.csv holds the loss, the optimized mu, each delta_k,
    # their sum, ep_m and the sum's share of ep_m.  Each comes from the
    # breakdown columns, the sum and the share as sum(deltas), then total / ep_m.
    out = tmp_path / "scan.csv"
    assert main(["scan", "--alpha", "1", "--m-slices", "6", "--d-min", "20",
                 "--d-max", "50", "--step", "10", "--detail", "--output", str(out)]) == 0
    capsys.readouterr()
    header, *lines = out.read_text().splitlines()
    names = header.split(",")
    deltas = [name for name in names if name.startswith("delta_")]
    table = [",".join(["loss_db", "mu", *deltas, "sum_delta", "ep_m",
                       "sum_delta_over_ep_m"])]
    for line in lines:
        col = dict(zip(names, map(float, line.split(",")), strict=True))
        devs = [col[name] for name in deltas]
        total = sum(devs)
        row = [col["loss_db"], col["mu"], *devs, total, col["ep_m"], total / col["ep_m"]]
        table.append(",".join(map(repr, row)))
    assert "\n".join(table) + "\n" == (DATA / "deviation_m6_20-50db.csv").read_text()


def _records():
    result = _bundled_45()
    return [result, result.breakdown, result.kato]


@pytest.mark.parametrize("index,cls,field", [
    (0, KeyRateResult, "rate"),
    (1, PhaseErrorBreakdown, "ep_m"),
    (2, KatoCoefficients, "delta"),
])
class TestRecordValues:
    def test_rejects_assignment(self, index, cls, field):
        record = _records()[index]
        assert type(record) is cls
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0

    def test_pickle_round_trip(self, index, cls, field):
        record = _records()[index]
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls
        assert back == record
        assert getattr(back, field) == getattr(record, field)


# Calls that raised TypeError (the first four, at mu = 0) or numpy's
# IndexError (simulate) with m_slices=8.0.
_SLICE_CALLS = {
    "phase_error_discrete": lambda m: phase_error_discrete(0.0, m, 1e-5, 1e-6),
    "deviation_bound": lambda m: deviation_bound(0.0, m, 2, 1e-5),
    "expected_key_rate": lambda m: expected_key_rate(ChannelSpec(total_loss_db=30.0), 0.0, m),
    "finite_key_rate": lambda m: finite_key_rate(
        mu=0.0, m_slices=m, n_rounds=1e10, p_s=0.07, f=1.16, q_mu=1e-5, e_b=0.01,
        n_mu=1e5, m_s=10.0, budget=SecurityBudget()),
    "simulate": lambda m: simulate(ProtocolParams(
        mu=np.float64(1e-3), m_slices=m, n_rounds=1e5, p_s=np.float64(0.07),
        channel=ChannelSpec(total_loss_db=20.0)), seed=5),
}


@pytest.mark.parametrize("name", list(_SLICE_CALLS))
def test_records_store_the_numbers_the_code_uses(name):
    # m_slices=8.0 gives the result of the same call with 8, field for field
    # and type for type (repr tells 8.0 from 8).
    got, want = _SLICE_CALLS[name](8.0), _SLICE_CALLS[name](8)
    assert repr(got) == repr(want)
    if hasattr(got, "m_slices"):
        assert type(got.m_slices) is int


def test_inputs_store_ints_and_python_floats():
    # A numpy float mu was once written to a tally file as np.float64(0.001).
    params = ProtocolParams(mu=np.float64(1e-3), m_slices=8.0, n_rounds=1e6,
                            p_s=np.float64(0.07), channel=ChannelSpec(total_loss_db=20.0))
    tally = simulate(params, seed=5)
    for record in (params, tally):
        assert [type(v) for v in (record.mu, record.m_slices, record.n_rounds, record.p_s)] \
            == [float, int, int, float]
