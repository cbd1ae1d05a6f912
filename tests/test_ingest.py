"""Ingestion tests: bundled dataset cross-checks, schema validation, and
key-rate reproduction."""

import dataclasses
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmqkd.channel import ChannelSpec
from pmqkd.errors import DomainError, NoDataError, SchemaError
from pmqkd.ingest import (
    _METADATA,
    ExperimentRecord,
    ObservedTally,
    _ordered_keys,
    derive_observables,
    load_bundled_record,
    parse_tally_csv,
    reproduce_key_rate,
    result_to_json,
    write_tally_csv,
)
from pmqkd.numerics import MU_MAX
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import SecurityBudget, finite_key_rate
from pmqkd.simulator import ProtocolParams, tally_to_stats

# Published summary values for the three bundled datasets.
REPORTED = {
    35: {"e_b": 0.0022, "n_mu": 934403, "rate": 3.00e-6},
    40: {"e_b": 0.0033, "n_mu": 302187, "rate": 8.50e-7},
    45: {"e_b": 0.0071, "n_mu": 91781, "rate": 2.25e-7},
}


def _replaced(record, name, value):
    """record with name set to value.  The records are frozen, so setting the
    field raises and leaves it as it was; the change is a replace, which runs
    the constructor's check."""
    before = getattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'$"):
        setattr(record, name, value)
    assert getattr(record, name) is before
    return dataclasses.replace(record, **{name: value})


class TestBundledDatasets:
    def test_45db_exact_sums(self):
        record = load_bundled_record(45)
        assert record.tally.n_det == 363094
        assert record.tally.total_matched() == 91781
        obs = derive_observables(record)
        assert obs.n_mu == 91781
        assert obs.e_b == pytest.approx(649 / 91781, rel=1e-14)

    @pytest.mark.parametrize("loss,total,errors", [
        (35, 935339, 2026),
        (40, 302490, 999),
    ])
    def test_column_sums(self, loss, total, errors):
        record = load_bundled_record(loss)
        assert record.tally.total_matched() == total
        obs = derive_observables(record)
        assert obs.e_b == pytest.approx(errors / total, rel=1e-14)
        # reported sifted sizes differ from the column sums by ~0.1%
        assert abs(obs.n_mu - REPORTED[loss]["n_mu"]) / REPORTED[loss]["n_mu"] < 0.002

    @pytest.mark.parametrize("loss", [35, 40, 45])
    def test_derived_qber_matches_reported(self, loss):
        obs = derive_observables(load_bundled_record(loss))
        assert abs(obs.e_b - REPORTED[loss]["e_b"]) < 5e-5  # 0.005 pp

    def test_ms_reconstruction_flagged(self):
        obs = derive_observables(load_bundled_record(45))
        assert obs.m_s_reconstructed is True
        # round(E_b * n_mu * p_s / (1 - p_s)) with E_b = 649/91781
        assert obs.m_s == round((649 / 91781) * 91781 * 0.07 / 0.93)


class TestReproduction:
    @pytest.mark.parametrize("loss", [35, 40, 45])
    def test_rate_within_15_percent(self, loss):
        result = reproduce_key_rate(load_bundled_record(loss))
        reported = REPORTED[loss]["rate"]
        assert abs(result.rate - reported) / reported < 0.15
        assert result.m_s_reconstructed is True
        assert result.q_source == "channel-model"

    @pytest.mark.parametrize("scale", [2, 1])
    def test_merge_never_rates_above_reconstruction(self, scale):
        # Merge the 45 dB record (no m_s) with itself, or with an empty
        # transcribed tally.  The merged m_s stays unknown, so the rate is the
        # reconstruction from the same counts, never a measured m_s = 0.  N
        # lives in the tally alone, so the merged N reaches the chain.
        record = load_bundled_record(45)
        tally = record.tally
        partner = tally if scale == 2 else ObservedTally(
            m_slices=tally.m_slices, n_rounds=0, mu=tally.mu, p_s=tally.p_s,
            counts_include_test=False)
        merged = tally.merge(partner)
        assert merged.m_s is None and merged.n_sifted is None
        same_counts = dataclasses.replace(
            tally, n_rounds=merged.n_rounds, n_det=tally.n_det * scale,
            matched={k: v * scale for k, v in tally.matched.items()},
        )
        got = reproduce_key_rate(dataclasses.replace(record, tally=merged))
        unmerged = reproduce_key_rate(dataclasses.replace(record, tally=same_counts))
        assert got.n_rounds == unmerged.n_rounds == 1e11 * scale
        assert got.m_s_reconstructed is True
        assert got.m_s == unmerged.m_s == 49 * scale
        assert got.rate <= unmerged.rate

    def test_45db_phase_error_back_substitution(self):
        # the 45 dB dataset reproduces the published rate with a lifted
        # phase error bound near 0.18
        result = reproduce_key_rate(load_bundled_record(45))
        assert result.ep_m_bar == pytest.approx(0.18, abs=0.01)
        assert result.n_mu == 91781

    def test_audit_json_complete(self):
        result = reproduce_key_rate(load_bundled_record(45))
        data = json.loads(result_to_json(result))
        for key in ("ell", "rate", "n_mu", "e_b", "q_mu", "y0_bar",
                    "breakdown", "kato", "budget", "eps_sec", "eps_cor",
                    "eps_tot", "ep_m", "ep_m_bar"):
            assert key in data
        assert data["budget"]["eps"] == 0.5e-20
        assert len(data["breakdown"]["deviations"]) == 4


class TestParser:
    def make_csv(self, tmp_path, body, meta=None):
        meta_lines = meta if meta is not None else [
            "# loss_db=45", "# N=1e11", "# mu=9.78e-4", "# p_s=0.07",
            "# n_det=100", "# m_slices=8",
        ]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(meta_lines + body) + "\n")
        return str(path)

    def test_minimal_file(self, tmp_path):
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "0,0,10,1", "0,4,1,12"]
        )
        record = parse_tally_csv(path)
        assert record.tally.matched == {
            (0, 0, 1): 10, (0, 0, 2): 1, (0, 4, 1): 1, (0, 4, 2): 12,
        }
        obs = derive_observables(record)
        assert obs.e_b == pytest.approx(2 / 24)

    def test_row_reordering_invariance(self, tmp_path):
        rows = ["0,0,10,1", "0,4,1,12", "2,6,0,7", "5,5,9,0"]
        header = ["phase_a,phase_b,d1_count,d2_count"]
        r1 = parse_tally_csv(self.make_csv(tmp_path, header + rows))
        r2 = parse_tally_csv(self.make_csv(tmp_path, header + rows[::-1]))
        assert r1.tally.matched == r2.tally.matched
        assert derive_observables(r1) == derive_observables(r2)

    def test_non_matched_pair_rejected(self, tmp_path):
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "0,1,5,5"]
        )
        with pytest.raises(SchemaError, match="line 8: non-matched"):
            parse_tally_csv(path)

    def test_negative_count_rejected_with_line(self, tmp_path):
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "0,0,5,-1"]
        )
        with pytest.raises(SchemaError, match="line 8"):
            parse_tally_csv(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = self.make_csv(
            tmp_path,
            ["phase_a,phase_b,d1_count,d2_count", "0,0,5,1"],
            meta=["# loss_db=45", "# N=1e11"],
        )
        with pytest.raises(SchemaError, match="missing metadata"):
            parse_tally_csv(path)

    def test_empty_data_section_rejected(self, tmp_path):
        path = self.make_csv(tmp_path, ["phase_a,phase_b,d1_count,d2_count"])
        with pytest.raises(SchemaError, match="no data rows"):
            parse_tally_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.make_csv(tmp_path, ["a,b,c,d", "0,0,5,1"])
        with pytest.raises(SchemaError, match="header"):
            parse_tally_csv(path)

    def test_out_of_range_phase_rejected(self, tmp_path):
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "8,8,5,1"]
        )
        with pytest.raises(SchemaError, match="line 8: phase index out of range"):
            parse_tally_csv(path)

    def test_reconstructed_m_s_tie_rounds_up(self, tmp_path):
        # E_b * n_s = 10 * 0.2 / 0.8 = 2.5 exactly: round toward more errors
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "0,0,90,10"],
            meta=["# loss_db=45", "# N=1e11", "# mu=9.78e-4", "# p_s=0.2",
                  "# n_det=100"],
        )
        obs = derive_observables(parse_tally_csv(path))
        assert obs.m_s_reconstructed is True
        assert obs.m_s == 3

    def test_no_matched_counts_means_no_data(self, tmp_path):
        path = self.make_csv(
            tmp_path, ["phase_a,phase_b,d1_count,d2_count", "0,0,0,0"]
        )
        record = parse_tally_csv(path)
        with pytest.raises(NoDataError):
            derive_observables(record)

    def test_integral_float_counts_accepted(self, tmp_path):
        # N=1e11 in the default metadata; m_s=4.0 is integral too
        path = self.make_csv(
            tmp_path, ["# m_s=4.0", "phase_a,phase_b,d1_count,d2_count", "0,0,10,1"],
        )
        tally = parse_tally_csv(path).tally
        assert tally.n_rounds == 10**11 and isinstance(tally.n_rounds, int)
        assert tally.m_s == 4 and isinstance(tally.m_s, int)

    @pytest.mark.parametrize("edit,match", [
        ({6: "# m_slice=6"}, "line 7: unknown metadata key 'm_slice'"),
        ({6: "# m_s=8", 7: "# m_s=10"}, "line 8: repeated metadata key 'm_s'"),
        ({6: "# m_s=49.9"}, "line 7: bad value for m_s: '49.9'"),
        ({1: "# N=nan"}, "line 2: bad value for N"),
        ({1: "# N=inf"}, "line 2: bad value for N"),
        ({3: "# p_s=nan"}, "line 4: bad value for p_s"),
        ({2: "# mu=inf"}, "line 3: bad value for mu"),
        ({4: "# n_det=-1"}, "line 5: bad value for n_det"),
        ({6: "# counts_include_test=maybe"}, "line 7: bad value for counts_include_test"),
        ({9: "# m_s=1"}, "line 10: metadata after the column header"),
        ({9: "0,0,10,1"}, "line 11: repeated phase pair \\(0, 0\\)"),
        ({9: "1,5,1.5,0"}, "line 10: fields must be non-negative integers"),
        ({4: "# n_det=20"}, "n_det=20, matched total=24"),
        ({1: "# N=50"}, "N=50, n_det=100"),
        ({6: "# n_sifted=25", 7: "# counts_include_test=true"},
         "matched total=24, n_sifted=25"),
        ({3: "# p_s=1"}, "line 4: bad value for p_s: '1'"),
        ({3: "# p_s=1.5"}, "line 4: bad value for p_s: '1.5'"),
        ({3: "# p_s=0"}, "line 4: bad value for p_s: '0'"),
        ({3: "# p_s=-0.07"}, "line 4: bad value for p_s: '-0.07'"),
        ({2: "# mu=0"}, "line 3: bad value for mu: '0'"),
        ({2: "# mu=-9.78e-4"}, "line 3: bad value for mu: '-9.78e-4'"),
        ({0: "# loss_db=0"}, "line 1: bad value for loss_db: '0'"),
        ({5: "# m_slices=7"}, "line 6: bad value for m_slices: '7'"),
        ({5: "# m_slices=1"}, "line 6: bad value for m_slices: '1'"),
        ({5: "# m_slices=4"}, "line 6: bad value for m_slices: '4'"),
        ({2: "# mu=800"}, "line 3: bad value for mu: '800'"),
    ])
    def test_schema_violation_rejected(self, tmp_path, edit, match):
        # blank lines are skipped, so each slot keeps its line number
        lines = ["# loss_db=45", "# N=1e11", "# mu=9.78e-4", "# p_s=0.07",
                 "# n_det=100", "# m_slices=8", "", "",
                 "phase_a,phase_b,d1_count,d2_count", "", "0,0,10,1", "0,4,1,12"]
        for index, text in edit.items():
            lines[index] = text
        path = self.make_csv(tmp_path, lines, meta=[])
        with pytest.raises(SchemaError, match=match):
            parse_tally_csv(path)


class TestSimulatedRoundTrip:
    def test_reproduce_simulated_dataset(self, tmp_path):
        # analytic pipeline and ingest pipeline agree on simulator output
        from pmqkd.channel import ChannelSpec
        from pmqkd.simulator import ProtocolParams, simulate, write_tally_csv

        loss, mu, n = 12.0, 2e-2, 4_000_000
        params = ProtocolParams(
            mu=mu, m_slices=8, n_rounds=n, p_s=0.07,
            channel=ChannelSpec(total_loss_db=loss),
        )
        tally = simulate(params, seed=77)
        path = tmp_path / "sim.csv"
        write_tally_csv(tally, str(path), loss_db=loss)
        record = parse_tally_csv(str(path))
        assert record.tally.counts_include_test is True
        obs = derive_observables(record)
        assert obs.m_s_reconstructed is False
        assert obs.m_s == tally.m_s
        assert obs.n_mu == tally.n_sifted
        result = reproduce_key_rate(record)
        assert result.rate >= 0.0
        assert result.n_mu == tally.n_sifted

    def test_simulated_rate_consistent_with_analytic(self, tmp_path):
        # end to end: a simulated dataset run through ingestion lands on the
        # closed-form pipeline's rate up to sampling noise (~2-3% here, so a
        # 10% gate is a comfortable 3+ sigma margin)
        from pmqkd.channel import ChannelSpec
        from pmqkd.pipeline import expected_key_rate
        from pmqkd.simulator import ProtocolParams, simulate, write_tally_csv

        loss, mu, n = 12.0, 2e-2, 20_000_000
        channel = ChannelSpec(total_loss_db=loss)
        params = ProtocolParams(
            mu=mu, m_slices=8, n_rounds=n, p_s=0.07, channel=channel,
        )
        tally = simulate(params, seed=2718)
        path = tmp_path / "sim.csv"
        write_tally_csv(tally, str(path), loss_db=loss)
        result = reproduce_key_rate(parse_tally_csv(str(path)))
        analytic = expected_key_rate(channel, mu, m_slices=8, n_rounds=n,
                                     p_s=0.07)
        assert analytic.rate > 0
        assert abs(result.rate - analytic.rate) / analytic.rate < 0.10


def _simulated(seed, loss=40):
    from pmqkd.channel import ChannelSpec
    from pmqkd.simulator import ProtocolParams, simulate

    bundled = load_bundled_record(loss).tally
    params = ProtocolParams(mu=bundled.mu, m_slices=8, n_rounds=10**10, p_s=0.07,
                            channel=ChannelSpec(total_loss_db=loss))
    return ExperimentRecord(loss_db=float(loss), tally=simulate(params, seed))


class TestCountingConvention:
    """Whether the rows include the test sample is the tally's own field."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: load_bundled_record(35), id="bundled-35"),
        pytest.param(lambda: load_bundled_record(40), id="bundled-40"),
        pytest.param(lambda: load_bundled_record(45), id="bundled-45"),
        pytest.param(lambda: _simulated(3), id="simulated"),
        pytest.param(lambda: dataclasses.replace(
            _simulated(3), tally=_simulated(3).tally.merge(_simulated(4).tally)),
            id="simulated-merged"),
        pytest.param(lambda: dataclasses.replace(
            load_bundled_record(45),
            tally=load_bundled_record(45).tally.merge(load_bundled_record(45).tally)),
            id="bundled-merged"),
    ])
    def test_parse_inverts_write(self, tmp_path, make):
        from pmqkd.simulator import write_tally_csv

        record = make()
        path = tmp_path / "again.csv"
        write_tally_csv(record.tally, str(path), loss_db=record.loss_db)
        again = parse_tally_csv(str(path))
        assert again.tally == record.tally
        assert again.loss_db == record.loss_db
        assert reproduce_key_rate(again) == reproduce_key_rate(record)

    def test_merge_across_conventions_refused(self):
        simulated = _simulated(3).tally
        transcribed = dataclasses.replace(simulated, counts_include_test=False)
        for a, b in ((simulated, transcribed), (transcribed, simulated)):
            with pytest.raises(DomainError, match="counts_include_test"):
                a.merge(b)

    def test_declared_sifted_size_is_used(self, tmp_path):
        # The 45 dB rows (a transcribed tally) with a declared n_sifted below
        # their total: the declared size sets n_mu and lowers the rate.
        lines = pathlib.Path(str(load_bundled_record(45).source)).read_text().splitlines()
        lines.insert(lines.index("phase_a,phase_b,d1_count,d2_count"), "# n_sifted=60000")
        path = tmp_path / "declared.csv"
        path.write_text("\n".join(lines) + "\n")
        result = reproduce_key_rate(parse_tally_csv(str(path)))
        assert result.n_mu == 60000
        assert result.rate == pytest.approx(1.475033e-07, rel=1e-6)

    @pytest.mark.parametrize("include_test,n_sifted,n_mu", [
        (True, None, 91781 * (1 - 0.07)),
        (False, None, 91781),
        (True, 60000, 60000),
        (False, 60000, 60000),
    ], ids=["test-included", "sifted-rows", "test-included-declared", "sifted-rows-declared"])
    def test_one_sifted_size_rule(self, include_test, n_sifted, n_mu):
        from pmqkd.simulator import tally_to_stats

        tally = dataclasses.replace(load_bundled_record(45).tally, n_sifted=n_sifted,
                                    counts_include_test=include_test)
        derived = derive_observables(ExperimentRecord(loss_db=45.0, tally=tally)).n_mu
        assert tally_to_stats(tally)[2] == derived == n_mu


@st.composite
def _writable_tallies(draw):
    """A tally the writer accepts, with its counts as the tally requires them:
    N >= n_det >= matched total >= n_sifted, and mu, p_s and the counting
    convention as Python or as numpy scalars."""
    m = draw(st.sampled_from((6, 8)))
    matched = draw(st.dictionaries(st.sampled_from(_ordered_keys(m)), st.integers(1, 10**12)))
    total = sum(matched.values())
    n_det = total + draw(st.integers(0, 10**12))
    numpy = draw(st.booleans())
    to = np.float64 if numpy else float
    return ObservedTally(
        m_slices=m,
        n_rounds=n_det + draw(st.integers(0, 10**15)),
        mu=to(draw(st.floats(0.0, MU_MAX, exclude_min=True))),
        p_s=to(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
        n_det=n_det,
        n_double=draw(st.integers(0, 10**12)),
        matched=matched,
        m_s=draw(st.none() | st.integers(0, 10**12)),
        n_sifted=draw(st.none() | st.integers(0, total)),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
        counts_include_test=(np.bool_ if numpy else bool)(draw(st.booleans())),
    )


class TestTallyFileRoundTrip:
    """The writer and the parser read one table: whatever the writer writes,
    the parser reads back to an equal tally, and whatever the parser would
    refuse, the writer refuses, naming the key or the counts, before it opens
    the file."""

    @given(tally=_writable_tallies(),
           loss_db=st.floats(0.0, exclude_min=True, allow_infinity=False))
    def test_parse_reads_back_what_write_wrote(self, tally, loss_db, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_tally_csv(tally, str(path), loss_db=loss_db)
        record = parse_tally_csv(str(path))
        assert record.tally == tally
        assert record.loss_db == loss_db

    @pytest.mark.parametrize("field,value,loss_db", [
        ("mu", 0.0, 40.0),             # once written as '# mu=0.0', refused on read
        ("p_s", 1.0, 40.0),
        ("m_slices", 7, 40.0),         # set past the constructor
        ("m_slices", 4, 40.0),
        ("mu", 800.0, 40.0),
        ("n_sifted", 4, 40.0),         # set past the constructor, above the matched 3
        (None, None, math.nan),
        (None, None, 0.0),
        (None, None, -3.0),
        (None, None, math.inf),
    ])
    def test_write_refuses_what_parse_refuses(self, tmp_path, field, value, loss_db):
        tally = ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=5,
                              matched={(0, 0, 1): 3})
        path = tmp_path / "refused.csv"
        # A value is refused by its key's rule, and an n_sifted by the count
        # order: a tally's field by the constructor of the replaced tally, and
        # the record's rules, loss_db and a measured mu > 0, by the writer.
        # The constructor keeps mu = 0, a simulated vacuum tally's.
        key = "counts" if field == "n_sifted" else field or "loss_db"
        writer = (field, value) in ((None, None), ("mu", 0.0))
        stage = "write_tally_csv" if writer else "ObservedTally"
        with pytest.raises(DomainError, match=rf"^{stage}: {key} must"):
            if field is not None:
                tally = _replaced(tally, field, value)
            write_tally_csv(tally, str(path), loss_db=loss_db)
        assert not path.exists()

    def test_numpy_mu_set_past_the_constructor_is_written_as_a_float(self, tmp_path):
        # Once refused, as '# mu=np.float64(0.001)': a numpy mu set past the
        # constructor is now a replace, which stores it as a Python float.
        tally = ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=5,
                              matched={(0, 0, 1): 3})
        tally = _replaced(tally, "mu", np.float64(1e-3))
        assert type(tally.mu) is float
        path = tmp_path / "numpy_mu.csv"
        write_tally_csv(tally, str(path), loss_db=40.0)
        assert "# mu=0.001\n" in path.read_text()
        assert parse_tally_csv(str(path)).tally == tally

    def test_matched_counts_are_stored_as_ints(self, tmp_path):
        # A bool count was kept, and written as a row '0,0,True,2.0' that the
        # parser refuses.
        tally = ObservedTally(m_slices=8, n_rounds=1000, mu=1e-3, p_s=0.07, n_det=6,
                              matched={(0, 0, 1): True, (0, 0, 2): 2.0, (1, 1, 1): np.int64(3)})
        assert [(c, type(c)) for c in tally.matched.values()] == [(1, int), (2, int), (3, int)]
        path = tmp_path / "counts.csv"
        write_tally_csv(tally, str(path), loss_db=40.0)
        assert "\n0,0,1,2\n" in path.read_text()
        assert parse_tally_csv(str(path)).tally == tally


@pytest.mark.parametrize("name", ["n_rounds", "n_det", "m_s", "n_sifted", "seed"])
@pytest.mark.parametrize("count,bits", [(2**1024, 1025), (10**400, 1329), (10**5000, 16610)],
                         ids=["2**1024", "10**400", "10**5000"])
def test_count_beyond_a_double_is_refused(name, count, bits):
    # The chain computes with every count as a float: N = 10**400 was accepted,
    # and the rating ended in "int too large to convert to float".  10**5000
    # has more digits than str() converts.
    counts = dict(n_rounds=10**6, n_det=10) | {name: count}
    with pytest.raises(DomainError) as exc:
        ObservedTally(m_slices=8, mu=1e-3, p_s=0.07, **counts)
    assert str(exc.value) == (f"ObservedTally: {name} must be <= 1.79769e+308, "
                              f"got an integer of {bits} bits")


def test_largest_double_is_a_count():
    largest = int(sys.float_info.max)
    assert ObservedTally(m_slices=8, n_rounds=largest, mu=1e-3, p_s=0.07).n_rounds == largest
    with pytest.raises(DomainError, match="got an integer of 1024 bits$"):
        ObservedTally(m_slices=8, n_rounds=largest + 1, mu=1e-3, p_s=0.07)


class TestCountOrder:
    """The tally owns the order N >= n_det >= matched total >= n_sifted: the
    sifted key is drawn from the matched clicks, and they from the valid
    clicks of the rounds sent.  Counts out of that order are refused, naming
    them, so no such tally is built, written or rated."""

    ORDER = "counts must satisfy N >= n_det >= matched total >= n_sifted, got "

    @pytest.mark.parametrize("counts,got", [
        # n_sifted at 2x and 10x the 91 781 matched clicks of the bundled
        # 45 dB counts was rated 1.92x and 6.09x their true rate.
        ({"n_sifted": 183562}, "N=100000000000, n_det=363094, matched total=91781, "
                               "n_sifted=183562"),
        ({"n_sifted": 917810}, "N=100000000000, n_det=363094, matched total=91781, "
                               "n_sifted=917810"),
        ({"n_det": 91780}, "N=100000000000, n_det=91780, matched total=91781, "
                           "n_sifted=None"),
        ({"n_rounds": 363093}, "N=363093, n_det=363094, matched total=91781, "
                               "n_sifted=None"),
    ], ids=["n_sifted=2x", "n_sifted=10x", "n_det<matched", "N<n_det"])
    def test_refused(self, counts, got):
        tally = load_bundled_record(45).tally
        # Counts set past the constructor cannot be: the change is a replace.
        (name, value), = counts.items()
        with pytest.raises(DomainError, match=f"^ObservedTally: {re.escape(self.ORDER + got)}$"):
            _replaced(tally, name, value)
        assert reproduce_key_rate(ExperimentRecord(loss_db=45.0, tally=tally)).n_mu == 91781


# Fields of the bundled 45 dB record (true rate 2.248e-7) set after it was
# built, each once rated or written: name -> (change, the stage that refuses
# it, None for the reader, and the field its refusal names).  A count in
# matched is set in place, and each reader refuses it; any other field is
# frozen, and its change, a replace, is refused by the constructor.  The
# rate each gave is in docs/DECISIONS.md.
_CHANGED_RECORDS = {
    "negative count": (lambda r: r.tally.matched.__setitem__((0, 0, 2), -100), None,
                       r"matched\[\(0, 0, 2\)\] must be finite and >= 0"),
    "detector 3": (lambda r: r.tally.matched.__setitem__((0, 0, 3), 20000), None,
                   r"matched key \(0, 0, 3\) must be a matched phase pair"),
    "m_slices 6 over M = 8 keys": (lambda r: _replaced(r.tally, "m_slices", 6), "ObservedTally",
                                   r"matched key \(6, 6, 1\) must be a matched phase pair "
                                   r"at m_slices=6"),
    "loss_db 0": (lambda r: _replaced(r, "loss_db", 0), "ExperimentRecord",
                  r"loss_db must be finite and > 0, got 0$"),
}


# Each reader of a record: its name -> (the stage its refusal names, a call
# of it on the record, which may write to the path).
_RECORD_READERS = {
    "reproduce_key_rate": ("derive_observables",
                           lambda record, path: reproduce_key_rate(record)),
    "write_tally_csv": ("write_tally_csv", lambda record, path: write_tally_csv(
        record.tally, str(path), loss_db=record.loss_db)),
    "tally_to_stats": ("tally_to_stats", lambda record, path: tally_to_stats(record.tally)),
}


class TestEveryReaderRunsTheWholeCheck:
    """No field set after construction is rated or written: each reader of a
    record or a tally re-checks the counts, the one field that can be set in
    place, and any other change is a replace that the constructor refuses.
    Each refusal names the stage and the field.  The writer and
    tally_to_stats take no record's loss."""

    @pytest.mark.parametrize("change,reader", [
        (change, reader) for change in _CHANGED_RECORDS for reader in _RECORD_READERS
        if change != "loss_db 0" or reader == "reproduce_key_rate"])
    def test_refused(self, tmp_path, change, reader):
        record = load_bundled_record(45)
        mutate, stage, names = _CHANGED_RECORDS[change]
        reader_stage, call = _RECORD_READERS[reader]
        path = tmp_path / "changed.csv"
        with pytest.raises(DomainError, match=f"^{stage or reader_stage}: {names}"):
            mutate(record)
            call(record, path)
        assert not path.exists()


# For each field of both records, a value its constructor refuses and the
# text of the refusal after the stage, or None where a field has no rule.
_VACUUM = ObservedTally(m_slices=8, n_rounds=10**6, mu=0.0, p_s=0.07, n_det=10)
_REFUSED = {
    ObservedTally: {
        "m_slices": (7, "m_slices must be 6 or 8, got 7"),
        "n_rounds": (-1, "n_rounds must be finite and >= 0, got -1"),
        "mu": (math.nan, "mu must be finite and in [0, 700], got nan"),
        "p_s": (1.5, "p_s must be in (0, 1), got 1.5"),
        "n_det": (2.5, "n_det must be an integer, got 2.5"),
        "n_double": (-1, "n_double must be finite and >= 0, got -1"),
        "matched": ({(0, 0, 3): 1}, "matched key (0, 0, 3) must be a matched phase pair "
                                    "at m_slices=8 and detector 1 or 2"),
        "m_s": (math.inf, "m_s must be an integer, got inf"),
        "n_sifted": (-1, "n_sifted must be finite and >= 0, got -1"),
        "seed": (-1, "seed must be finite and >= 0, got -1"),
        "counts_include_test": ("false", "counts_include_test must be a bool, got 'false'"),
    },
    ExperimentRecord: {
        "loss_db": (0.0, "loss_db must be finite and > 0, got 0.0"),
        # The record's rule on its tally: a measured mu, never 0.
        "tally": (_VACUUM, "mu must be finite and > 0, got 0.0"),
        "source": None,  # a label
    },
}


@pytest.mark.parametrize("cls,name", [
    (cls, field.name) for cls in _REFUSED for field in dataclasses.fields(cls)],
    ids=lambda x: getattr(x, "__name__", x))
def test_a_checked_record_cannot_change(cls, name):
    # Every field is frozen: a change is a replace, refused by the constructor
    # as a new record would be.  A field added without a row here fails.
    record = load_bundled_record(45)
    record = record if cls is ExperimentRecord else record.tally
    if _REFUSED[cls][name] is None:
        assert getattr(_replaced(record, name, "another"), name) == "another"
        return
    value, text = _REFUSED[cls][name]
    with pytest.raises(DomainError) as exc:
        _replaced(record, name, value)
    assert str(exc.value) == f"{cls.__name__}: {text}"


def _tally_at(m):
    return ObservedTally(m_slices=m, n_rounds=10**6, mu=1e-3, p_s=0.07, n_det=50,
                         matched={(0, 0, 1): 30, (0, 0, 2): 1})


def _past_the_constructor(m):
    return _replaced(_tally_at(8), "m_slices", m)


def _parse_at(m, tmp_path):
    path = tmp_path / "tally.csv"
    path.write_text(f"# loss_db=40\n# N=1e6\n# mu=1e-3\n# p_s=0.07\n# n_det=50\n"
                    f"# m_slices={m!r}\nphase_a,phase_b,d1_count,d2_count\n0,0,30,1\n")
    return parse_tally_csv(str(path))


# Each boundary a slice count crosses on its way from a file or a caller to
# the bound chain: its name -> a call of it at M.
_SLICE_BOUNDARIES = {
    "ObservedTally": lambda m, tmp_path: _tally_at(m),
    "ProtocolParams": lambda m, tmp_path: ProtocolParams(
        mu=1e-3, m_slices=m, n_rounds=10, p_s=0.07, channel=ChannelSpec(total_loss_db=20)),
    "parse_tally_csv": _parse_at,
    "write_tally_csv": lambda m, tmp_path: write_tally_csv(
        _past_the_constructor(m), str(tmp_path / "out.csv"), loss_db=40.0),
    "expected_key_rate": lambda m, tmp_path: expected_key_rate(
        ChannelSpec(total_loss_db=40.0), 1e-3, m_slices=m),
    "finite_key_rate": lambda m, tmp_path: finite_key_rate(
        mu=1e-3, m_slices=m, n_rounds=1e11, p_s=0.07, f=1.16, q_mu=3e-6, e_b=0.01,
        n_mu=2e5, m_s=200.0, budget=SecurityBudget()),
    "reproduce_key_rate": lambda m, tmp_path: reproduce_key_rate(
        ExperimentRecord(loss_db=40.0, tally=_past_the_constructor(m))),
}


class TestOneSliceCountRule:
    """A slice count has one domain, the bound chain's, from the file to the
    chain: any other is refused at every boundary, naming m_slices, so no
    tally is built, written or read that the chain would refuse."""

    @pytest.mark.parametrize("boundary", _SLICE_BOUNDARIES)
    @pytest.mark.parametrize("m", [0, 2, 4, 7, 10, 66, 10**12, 8.5, math.nan])
    def test_refused(self, tmp_path, boundary, m):
        with pytest.raises((DomainError, SchemaError), match=r"\bm_slices\b"):
            _SLICE_BOUNDARIES[boundary](m, tmp_path)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("boundary", _SLICE_BOUNDARIES)
    @pytest.mark.parametrize("m", [6, 8, 8.0])
    def test_accepted(self, tmp_path, boundary, m):
        got = _SLICE_BOUNDARIES[boundary](m, tmp_path)
        record = getattr(got, "tally", got)  # a parsed file is a record
        if hasattr(record, "m_slices"):
            assert record.m_slices == m and type(record.m_slices) is int


def test_readme_tally_schema_table_matches_the_parser():
    # A key added to, dropped from or moved in the parser's table, or a
    # changed requirement, cannot leave the README's schema table behind.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Tally CSV schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| .* \| (required|optional)\b.* \|$", section,
                      flags=re.MULTILINE)
    assert rows == [(key, "required" if required else "optional")
                    for key, (_, required) in _METADATA.items()]
