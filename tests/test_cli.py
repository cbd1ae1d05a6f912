"""CLI surface tests (driven through main() for speed; one subprocess check
for the entry point)."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from pmqkd import cli
from pmqkd.channel import ChannelSpec
from pmqkd.cli import EXIT_CODES, main
from pmqkd.errors import DomainError
from pmqkd.optimizer import optimize
from pmqkd.pipeline import expected_key_rate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeyrate:
    def test_reference_point(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "keyrate", "--loss-db", "45", "--mu", "9.78e-4",
            "--output", str(out_path),
        )
        assert code == 0
        assert "rate" in out
        data = json.loads(out_path.read_text())
        assert data["rate"] == pytest.approx(1.3546e-7, rel=1e-3)
        assert data["eps_tot"] == pytest.approx(3e-10, abs=1e-14)

    def test_zero_intensity_zero_rate(self, capsys):
        code, out, _ = run_cli(capsys, "keyrate", "--loss-db", "45", "--mu", "0")
        assert code == 0
        assert "R   = 0.000000e+00" in out

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "result.csv"
        code, _, _ = run_cli(
            capsys, "keyrate", "--loss-db", "30", "--mu", "1e-3",
            "--format", "csv", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("rate,") for line in lines)

    def test_missing_mu_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "keyrate", "--loss-db", "45")
        assert code == EXIT_CODES["domain"]
        assert "error [domain]" in err and "--mu" in err

    def test_missing_loss_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "keyrate", "--mu", "1e-3")
        assert code == EXIT_CODES["domain"]
        assert "loss-db" in err

    def test_m6_vs_m8_difference_bounded(self, capsys, tmp_path):
        # at 100 km, beyond the vacuum-statistics shift that the sifting
        # prefactor induces, the phase error differs only through the
        # deviation sums (the multiphoton terms are identical)
        p6, p8 = tmp_path / "m6.json", tmp_path / "m8.json"
        for m, path in ((6, p6), (8, p8)):
            code, _, _ = run_cli(
                capsys, "keyrate", "--distance-km", "100", "--mu", "2e-3",
                "--m-slices", str(m), "--output", str(path),
            )
            assert code == 0
        d6 = json.loads(p6.read_text())
        d8 = json.loads(p8.read_text())
        assert d6["breakdown"]["multiphoton_term"] == pytest.approx(
            d8["breakdown"]["multiphoton_term"], rel=1e-12
        )
        sum_dev_6 = sum(d6["breakdown"]["deviations"])
        gap_beyond_vacuum = (
            d6["ep_m"] - d6["breakdown"]["vacuum_term"]
        ) - (d8["ep_m"] - d8["breakdown"]["vacuum_term"])
        assert 0 <= gap_beyond_vacuum <= sum_dev_6


class TestScan:
    def test_fixed_mu_scan(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "100", "--step", "25",
            "--mu", "2e-3", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "distance_km,loss_db,mu,p_s,rate"
        assert len(lines) == 4  # 50, 75, 100
        d, loss, mu, ps, rate = lines[1].split(",")
        assert float(d) == 50.0
        assert float(loss) == pytest.approx(50 * 0.168)
        assert float(rate) > 0

    def test_optimized_scan_with_jobs_ordered(self, capsys, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["scan", "--d-min", "100", "--d-max", "160", "--step", "30",
                "--n-rounds", "1e10"]
        code1, _, _ = run_cli(capsys, *args, "--output", str(out1))
        code2, _, _ = run_cli(capsys, *args, "--jobs", "2", "--output", str(out2))
        assert code1 == code2 == 0
        assert out1.read_text() == out2.read_text()
        rates = [float(l.split(",")[4]) for l in out1.read_text().splitlines()[1:]]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("n_rounds", ["1e10", "1e11", "1e12"])
    def test_each_curve_has_a_key_at_100_to_120_km(self, capsys, tmp_path, n_rounds):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "--d-min", "100", "--d-max", "120",
                             "--step", "10", "--n-rounds", n_rounds, "--output", str(out))
        assert code == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [100.0, 110.0, 120.0]
        assert all(float(row[4]) > 0 for row in rows)

    def test_co_optimized_scan_matches_optimize(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "150", "--step", "50",
            "--optimize-ps", "--output", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        for row, d in zip(rows, (50.0, 100.0, 150.0)):
            opt = optimize(ChannelSpec(distance_km=d, alpha_db_per_km=0.168),
                           1e11, 8, fixed_p_s=None)
            assert row.split(",") == [repr(d), repr(d * 0.168), repr(opt.mu_opt),
                                      repr(opt.p_s_opt), repr(opt.rate_opt)]

    def test_fixed_mu_with_optimize_ps_rejected(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "50", "--step", "1",
            "--mu", "1e-3", "--optimize-ps", "--output", str(out),
        )
        assert code == EXIT_CODES["domain"]
        assert err.startswith("pmqkd: error [domain]")
        assert "--optimize-ps" in err and "--mu" in err
        assert not out.exists()

    def test_zero_rate_rows_retained(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "500", "--d-max", "520", "--step", "20",
            "--mu", "1e-3", "--n-rounds", "1e9", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 2
        assert all(float(l.split(",")[4]) == 0.0 for l in lines)

    def test_bad_step(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--d-min", "10", "--d-max", "20", "--step", "0"
        )
        assert code == EXIT_CODES["domain"]

    @pytest.mark.parametrize("argv", [
        ["scan", "--d-min", "10", "--d-max", "20", "--mu", "1e-3"],
        ["scan", "--d-min", "40", "--d-max", "41", "--mu", "1e-3", "--alpha", "1",
         "--detail"],
    ])
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_rejected(self, capsys, tmp_path, argv, step):
        out = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, *argv, "--step", step, "--output", str(out))
        assert code == EXIT_CODES["domain"]
        assert "--step must be finite and > 0" in err
        assert not out.exists()

    def test_missing_range_flag_is_domain_error(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(capsys, "scan", "--d-max", "60", "--step", "10",
                               "--mu", "1e-3", "--output", str(out))
        assert code == EXIT_CODES["domain"]
        assert err == "pmqkd: error [domain] --d-min is required\n"
        assert not out.exists()

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        """A stand-in pool that runs in this process, so the test starts no
        workers; it records its size and the items it maps."""
        calls = {"sizes": [], "items": []}

        class RecordingPool:
            def __init__(self, max_workers):
                calls["sizes"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                calls["items"].extend(items)
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        return calls

    def test_jobs_capped_at_point_count(self, capsys, tmp_path, pool_calls):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "100", "--step", "25",
            "--mu", "2e-3", "--jobs", "16", "--output", str(out),
        )
        assert code == 0
        assert pool_calls["sizes"] == [3]
        assert len(out.read_text().splitlines()) == 4

    def test_each_worker_takes_a_contiguous_run(self, capsys, tmp_path, pool_calls):
        # Each worker's optimizations climb from their own previous point, so
        # a worker gets neighbouring points, in order; the runs differ in
        # length by at most one.
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "110", "--step", "10",
            "--n-rounds", "1e10", "--jobs", "3", "--output", str(out),
        )
        assert code == 0
        assert [[c.distance_km for c in run] for run in pool_calls["items"]] == [
            [50.0, 60.0], [70.0, 80.0], [90.0, 100.0, 110.0]]
        assert [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]] \
            == [50.0 + 10.0 * k for k in range(7)]


@pytest.mark.parametrize("argv", [
    ["scan", "--d-min", "10", "--d-max", "20", "--step", "5", "--mu", "1e-3"],
    ["simulate", "--loss-db", "12", "--mu", "2e-2", "--n-rounds", "1e4"],
])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(capsys, tmp_path, argv, jobs):
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *argv, "--jobs", jobs, "--output", str(out))
    assert code == EXIT_CODES["domain"]
    assert f"pmqkd: error [domain] --jobs must be >= 1, got {jobs}" in err
    assert not out.exists()


def _limited_memory():
    # A run that never ends also grows without bound; 1 GiB of address space
    # turns that into a MemoryError instead of a host-wide shortage.
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestRange:
    @pytest.mark.parametrize("argv,flags", [
        (["scan", "--d-min", "nan", "--d-max", "20"], "--d-min/--d-max"),
        (["scan", "--d-min", "10", "--d-max", "nan"], "--d-min/--d-max"),
        (["scan", "--d-min", "10", "--d-max", "inf"], "--d-min/--d-max"),
        (["scan", "--d-min=-inf", "--d-max", "20"], "--d-min/--d-max"),
        (["scan", "--d-min", "20", "--d-max", "10"], "--d-min/--d-max"),
        (["scan", "--d-min", "0", "--d-max", "1e7"], "--d-min/--d-max"),
        (["scan", "--alpha", "1", "--detail", "--d-min", "nan", "--d-max", "41"],
         "--d-min/--d-max"),
        (["scan", "--alpha", "1", "--detail", "--d-min", "40", "--d-max", "inf"],
         "--d-min/--d-max"),
        (["scan", "--alpha", "1", "--detail", "--d-min", "41", "--d-max", "40"],
         "--d-min/--d-max"),
    ])
    def test_bad_range_rejected(self, tmp_path, argv, flags):
        # An infinite range once looped forever, so each case runs in its own
        # process under a time and memory limit.
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pmqkd.cli", *argv, "--step", "1",
             "--mu", "1e-3", "--output", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=_limited_memory,
        )
        assert proc.returncode == EXIT_CODES["domain"]
        assert proc.stderr.startswith(f"pmqkd: error [domain] {flags}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scan", "--d-min", "0.1", "--d-max", "0.3", "--step", "0.1"],
        ["scan", "--d-min", "40.1", "--d-max", "40.3", "--step", "0.1", "--alpha", "1",
         "--detail"],
    ])
    def test_decimal_steps_reach_the_end(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--mu", "1e-3", "--output", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        first = float(argv[2])
        assert [row.split(",")[0] for row in rows] == [
            repr(round(first + i * 0.1, 9)) for i in range(3)]


def _loss_scan(capsys, tmp_path, *argv):
    """(header, rows) of ``scan --alpha 1 --detail``, each row a dict of its
    column texts.  At one dB per km each distance is the point's loss in dB."""
    out = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, "scan", "--alpha", "1", "--detail", *argv,
                           "--output", str(out))
    assert (code, err) == (0, "")
    header, *lines = out.read_text().splitlines()
    names = header.split(",")
    return names, [dict(zip(names, line.split(","), strict=True)) for line in lines]


def _deltas(row):
    return [float(text) for name, text in row.items() if name.startswith("delta_")]


class TestDeviation:
    """The discretization penalties over loss, from the breakdown columns of
    ``scan --alpha 1 --detail``."""

    def test_m6_sweep_small(self, capsys, tmp_path):
        header, rows = _loss_scan(capsys, tmp_path, "--m-slices", "6", "--d-min", "20",
                                  "--d-max", "30", "--step", "5")
        assert header == [
            "distance_km", "loss_db", "mu", "p_s", "rate", "vacuum_term",
            "multiphoton_term", "delta_0", "delta_2", "delta_4", "ep_m", "kato_delta",
            "ep_m_bar"]
        assert len(rows) == 3
        for row in rows:
            assert 0 < sum(_deltas(row)) / float(row["ep_m"]) < 0.01

    def test_m6_rows_at_40_and_41_db(self, capsys, tmp_path):
        _, rows = _loss_scan(capsys, tmp_path, "--m-slices", "6", "--d-min", "40",
                             "--d-max", "41", "--step", "1")
        assert [float(row["loss_db"]) for row in rows] == [40.0, 41.0]
        assert all(sum(_deltas(row)) > 0 for row in rows)

    def test_optimized_rows_match_the_chain(self, capsys, tmp_path):
        # Each row is the chain's breakdown at the fixed-p_s optimum; 90 dB
        # has no key and reports the lowest grid intensity.
        _, rows = _loss_scan(capsys, tmp_path, "--m-slices", "6", "--d-min", "10",
                             "--d-max", "90", "--step", "20")
        assert len(rows) == 5
        for row, loss in zip(rows, (10.0, 30.0, 50.0, 70.0, 90.0)):
            channel = ChannelSpec(total_loss_db=loss)
            opt = optimize(channel, 1e11, 6, fixed_p_s=0.07)
            res = expected_key_rate(channel, opt.mu_opt, m_slices=6,
                                    n_rounds=1e11, p_s=0.07)
            b = res.breakdown
            want = [loss, loss, opt.mu_opt, 0.07, res.rate, b.vacuum_term,
                    b.multiphoton_term, *b.deviations, b.ep_m, b.kato_delta, b.ep_m_bar]
            assert list(row.values()) == [repr(v) for v in want]
        assert float(rows[-1]["mu"]) == 1e-6

    def test_one_chain_call_per_search_evaluation(self, capsys, tmp_path,
                                                  monkeypatch):
        # An optimized row costs the search's evaluations plus its one
        # re-evaluation when it finds a key; nothing is evaluated again.
        calls, searches = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return expected_key_rate(*args, **kwargs)

        def recorded(*args, **kwargs):
            opt = optimize(*args, **kwargs)
            searches.append(opt)
            return opt

        monkeypatch.setattr("pmqkd.optimizer.expected_key_rate", counted)
        monkeypatch.setattr(cli, "expected_key_rate", counted)
        monkeypatch.setattr(cli, "optimize", recorded)
        _loss_scan(capsys, tmp_path, "--m-slices", "6", "--d-min", "10",
                   "--d-max", "90", "--step", "10")
        assert len(searches) == 9
        assert len(calls) == sum(o.evaluations + o.feasible for o in searches)

    def test_fixed_mu_deviation_ordering(self, capsys, tmp_path):
        _, (row,) = _loss_scan(capsys, tmp_path, "--m-slices", "8", "--d-min", "30",
                               "--d-max", "30", "--step", "1", "--mu", "2e-3")
        d0, d2, d4, d6 = _deltas(row)
        assert d0 > d2 > d4 > d6 > 0

    @pytest.mark.parametrize("argv,loss", [
        (["--d-min", "30", "--d-max", "30", "--step", "1", "--n-rounds", "1e3"], "30.0"),
        (["--d-min", "10", "--d-max", "10", "--step", "1", "--mu", "1e-9", "--p-d", "0",
          "--n-rounds", "1e6"], "10.0"),
    ])
    def test_point_without_a_sifted_bit_has_a_row(self, capsys, tmp_path, argv,
                                                  loss):
        # Such a point once had a fabricated ep_m of 0 and no deviations; its
        # row is now the breakdown keyrate reports at that loss and mu.
        _, (row,) = _loss_scan(capsys, tmp_path, *argv)
        assert row["loss_db"] == loss
        rest = argv[6:]  # the options after the range
        if "--mu" not in rest:
            rest += ["--mu", row["mu"]]  # the optimized intensity
        result = tmp_path / "keyrate.json"
        assert run_cli(capsys, "keyrate", "--loss-db", loss, *rest,
                       "--output", str(result))[0] == 0
        res = json.loads(result.read_text())
        assert res["n_mu"] < 1 and res["kato"] is None
        b = res["breakdown"]
        assert len(b["deviations"]) == 4
        assert list(row.values())[2:] == [repr(v) for v in (
            res["mu"], res["p_s"], res["rate"], b["vacuum_term"], b["multiphoton_term"],
            *b["deviations"], b["ep_m"], b["kato_delta"], b["ep_m_bar"])]


class TestSimulateReproduce:
    def test_deterministic_csv_and_reproduce(self, capsys, tmp_path):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        args = ["simulate", "--loss-db", "12", "--mu", "2e-2",
                "--n-rounds", "2e6", "--seed", "9"]
        code1, _, _ = run_cli(capsys, *args, "--output", str(t1))
        code2, _, _ = run_cli(capsys, *args, "--jobs", "2", "--output", str(t2))
        assert code1 == code2 == 0
        assert t1.read_bytes() == t2.read_bytes()

        code, out, _ = run_cli(capsys, "reproduce", "--input", str(t1))
        assert code == 0
        assert "rate" in out

    def test_bundled_reproduce(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            capsys, "reproduce", "--bundled", "45", "--output", str(out_path)
        )
        assert code == 0
        assert "reconstructed" in out
        data = json.loads(out_path.read_text())
        assert data["rate"] == pytest.approx(2.25e-7, rel=0.15)

    def test_schema_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# loss_db=45\nphase_a,phase_b,d1_count,d2_count\n0,1,2,3\n")
        code, _, err = run_cli(capsys, "reproduce", "--input", str(bad))
        assert code == EXIT_CODES["schema"]
        assert "error [schema]" in err

    def test_q_source_is_not_an_option(self, capsys):
        # The gain always comes from the channel model.
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--bundled", "45", "--q-source", "counts"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "--q-source" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "reproduce")
        assert code == EXIT_CODES["domain"]

    @pytest.mark.parametrize("flag,value,message", [
        ("--loss-db", "nan", "total_loss_db must be finite"),
        ("--loss-db", "inf", "total_loss_db must be finite"),
        ("--mu", "nan", "mu must be finite"),
        ("--mu", "inf", "mu must be finite"),
        # Each by the rule that owns it: p_s by the chain's, the round count by a count's.
        ("--p-s", "nan", "p_s must be in (0, 1)"),
        ("--n-rounds", "nan", "--n-rounds: n_rounds must be an integer"),
    ], ids=lambda v: v.split()[0].rstrip(":"))  # the first word of each value
    def test_simulate_rejects_non_finite(self, capsys, tmp_path, flag, value, message):
        out = tmp_path / "tally.csv"
        args = {"--loss-db": "20", "--mu": "1e-3", "--n-rounds": "1e6", "--p-s": "0.07"}
        args[flag] = value
        argv = ["simulate", "--output", str(out)]
        for k, v in args.items():
            argv += [k, v]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CODES["domain"]
        assert err.startswith("pmqkd: error [domain]")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag,verb", [
        (["reproduce", "--input", "{missing}"], "--input", "read"),
        (["keyrate", "--loss-db", "45", "--mu", "1e-3", "--output", "{missing}"],
         "--output", "write"),
        (["simulate", "--loss-db", "20", "--mu", "1e-3", "--n-rounds", "1e4",
          "-o", "{missing}"], "--output", "write"),
    ])
    def test_file_error_names_flag_and_path(self, capsys, tmp_path, argv, flag, verb):
        missing = str(tmp_path / "no-such-dir" / "file")
        argv = [missing if a == "{missing}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CODES["domain"]
        assert err == (f"pmqkd: error [domain] {flag}: cannot {verb} {missing}: "
                       f"No such file or directory\n")
        assert out == ""
        assert not (tmp_path / "no-such-dir").exists()

    def test_simulate_refuses_a_tally_the_parser_refuses(self, capsys, tmp_path):
        # At mu = 0 simulate once wrote '# mu=0.0', which reproduce --input
        # then refused; the writer now refuses it, and writes no file.
        out = tmp_path / "tally.csv"
        code, _, err = run_cli(capsys, "simulate", "--loss-db", "20", "--mu", "0",
                               "--n-rounds", "1e4", "-o", str(out))
        assert code == EXIT_CODES["domain"]
        assert err == "pmqkd: error [domain] write_tally_csv: mu must be finite and > 0, got 0.0\n"
        assert not out.exists()

    def test_simulate_refuses_a_mu_the_chain_refuses(self, capsys, tmp_path):
        # At mu = 800 simulate once wrote a tally that reproduce refused
        # with a chain stage's message, which names no key of the file.
        out = tmp_path / "tally.csv"
        code, _, err = run_cli(capsys, "simulate", "--loss-db", "20", "--mu", "800",
                               "--n-rounds", "1e5", "-o", str(out))
        assert code == EXIT_CODES["domain"]
        assert err == ("pmqkd: error [domain] ProtocolParams: mu must be finite and "
                       "in [0, 700], got 800.0\n")
        assert not out.exists()

    def test_simulate_rejects_fractional_rounds(self, capsys, tmp_path):
        out = tmp_path / "tally.csv"
        argv = ["simulate", "--loss-db", "20", "--mu", "1e-3", "--output", str(out)]
        code, _, err = run_cli(capsys, *argv, "--n-rounds", "1000.7")
        assert code == EXIT_CODES["domain"]
        assert err == ("pmqkd: error [domain] --n-rounds: n_rounds must be an integer, "
                       "got 1000.7\n")
        assert not out.exists()
        # An integral float is a whole number, as in the tally schema.
        code, _, _ = run_cli(capsys, *argv, "--n-rounds", "2.5e3")
        assert code == 0
        assert "# N=2500\n" in out.read_text()


class TestOptimizeCommand:
    def test_non_finite_mu_bound_rejected(self, tmp_path):
        # An infinite bound once reached the chain as a NaN intensity, after
        # a numpy warning, with a message that named neither flag.
        out = tmp_path / "opt.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pmqkd.cli", "optimize", "--loss-db", "45",
             "--mu-max", "inf", "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_CODES["domain"]
        assert proc.stderr == ("pmqkd: error [domain] SearchBounds: bad mu bounds "
                               "(1e-06, inf)\n")
        assert not out.exists()

    def test_optimize_json(self, capsys, tmp_path):
        out = tmp_path / "opt.json"
        code, stdout, _ = run_cli(
            capsys, "optimize", "--loss-db", "45", "--output", str(out),
        )
        assert code == 0
        assert "mu_opt" in stdout
        data = json.loads(out.read_text())
        assert data["feasible"] is True
        assert data["rate_opt"] > 0


class TestFixedPsWithOptimizePs:
    # --optimize-ps searches p_s, so a --p-s beside it would be ignored.
    @pytest.mark.parametrize("argv", [
        ["optimize", "--loss-db", "30", "--optimize-ps", "--p-s", "0.3"],
        ["scan", "--d-min", "50", "--d-max", "60", "--step", "10", "--p-s", "0.3",
         "--optimize-ps"],
    ])
    def test_rejected(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--output", str(out))
        assert code == EXIT_CODES["domain"]
        assert err.startswith("pmqkd: error [domain]")
        assert "--optimize-ps" in err and "--p-s" in err
        assert not out.exists()

    def test_configured_p_s_is_a_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_s=0.3\n")
        configured, plain = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["optimize", "--loss-db", "30", "--optimize-ps"]
        assert run_cli(capsys, "--config", str(cfg), *argv,
                       "--output", str(configured))[0] == 0
        assert run_cli(capsys, *argv, "--output", str(plain))[0] == 0
        assert configured.read_text() == plain.read_text()

    def test_configured_switch_with_p_s_flag_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimize_ps=true\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "scan", "--d-min", "50",
                               "--d-max", "50", "--step", "1", "--p-s", "0.3")
        assert code == EXIT_CODES["domain"]
        assert "--optimize-ps" in err and "--p-s" in err


class TestUnsupportedSliceCount:
    """Every command with --m-slices reads it by the chain's one rule, in main,
    before any work: any count the chain does not cover exits 3 naming it."""

    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "30", "--mu", "1e-3"],
        ["scan", "--d-min", "50", "--d-max", "60", "--step", "10"],
        ["optimize", "--loss-db", "30"],
        ["scan", "--alpha", "1", "--d-min", "30", "--d-max", "31", "--step", "1",
         "--detail"],
        ["simulate", "--loss-db", "20", "--mu", "1e-3", "--n-rounds", "1e4"],
    ])
    @pytest.mark.parametrize("m", ["0", "2", "4", "7", "10", "66", "1000000000000", "8.5",
                                   "nan"])
    def test_named_before_any_evaluation(self, capsys, tmp_path, monkeypatch, argv, m):
        def no_chain(*args, **kwargs):
            raise AssertionError("the chain ran")
        monkeypatch.setattr(cli, "expected_key_rate", no_chain)
        monkeypatch.setattr(cli, "optimize", no_chain)
        monkeypatch.setattr(cli, "simulate", no_chain)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, "--m-slices", m, "--output", str(out))
        assert code == EXIT_CODES["domain"]
        assert err == f"pmqkd: error [domain] --m-slices: m_slices must be 6 or 8, got {m}\n"
        assert not out.exists()

    def test_simulate_writes_no_tally_the_chain_refuses(self, capsys, tmp_path):
        # simulate once took any even count: an M = 4 tally was written, and
        # reproduce then refused it.
        tally = tmp_path / "t4.csv"
        code, _, err = run_cli(capsys, "simulate", "--loss-db", "20", "--mu", "1e-2",
                               "--m-slices", "4", "--n-rounds", "1e5",
                               "--output", str(tally))
        assert code == EXIT_CODES["domain"]
        assert err == "pmqkd: error [domain] --m-slices: m_slices must be 6 or 8, got 4\n"
        assert not tally.exists()

    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "30", "--mu", "1e-3"],
        ["simulate", "--loss-db", "20", "--mu", "1e-3", "--n-rounds", "1e4"],
    ])
    @pytest.mark.parametrize("m", ["6", "8"])
    def test_integral_float_is_the_count(self, capsys, tmp_path, argv, m):
        # --m-slices 8.0 is 8, as it is for the chain, the tally and its file.
        outputs = []
        for given in (m, m + ".0"):
            out = tmp_path / f"out-{given}"
            code, _, _ = run_cli(capsys, *argv, "--m-slices", given, "--output", str(out))
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestNeverOptimistic:
    @pytest.mark.parametrize("argv,field", [
        (["keyrate", "--loss-db", "45", "--mu", "9.78e-4", "--f-ec=-5"], "f"),
        (["keyrate", "--loss-db", "45", "--mu", "9.78e-4", "--f-ec", "nan"], "f"),
        (["keyrate", "--loss-db", "45", "--mu", "9.78e-4", "--xi", "nan"], "xi"),
        (["reproduce", "--bundled", "45", "--f-ec", "0.5"], "f"),
    ])
    def test_bad_budget_rejected(self, capsys, tmp_path, argv, field):
        out = tmp_path / "out.json"
        code, _, err = run_cli(capsys, *argv, "--output", str(out))
        assert code == EXIT_CODES["domain"]
        assert err.startswith("pmqkd: error [domain]")
        assert f" {field} must be finite" in err
        assert not out.exists()

    def test_overflowed_phase_error_has_no_key(self, capsys):
        # The gain at this mu is near the smallest double, and the phase-error
        # bound overflows to NaN: capped to 0.5, it leaves no key.
        code, out, err = run_cli(capsys, "keyrate", "--mu", "1e-300", "--p-d", "0",
                                 "--loss-db", "200")
        assert (code, err) == (0, "")
        assert out.startswith("rate      R   = 0.000000e+00\n")

    def test_overflowed_phase_error_writes_strict_json(self, capsys, tmp_path):
        # JSON has no NaN: the overflowed bound is written as null, which a
        # strict parser reads, and the breakdown keeps its shape.
        path = tmp_path / "x.json"
        code, _, _ = run_cli(capsys, "keyrate", "--mu", "1e-300", "--p-d", "0",
                             "--loss-db", "200", "--output", str(path))

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        data = json.loads(path.read_text(), parse_constant=refuse)
        assert code == 0 and data["rate"] == 0.0
        assert data["ep_m"] is None and data["breakdown"]["ep_m"] is None
        assert None in data["breakdown"]["deviations"]
        assert data["ep_m_bar"] == 0.5


@pytest.mark.parametrize("argv", [
    ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
    ["scan", "--d-min", "50", "--d-max", "50", "--step", "1"],
    ["scan", "--alpha", "1", "--d-min", "40", "--d-max", "40", "--step", "1", "--detail"],
    ["optimize", "--loss-db", "45"],
])
@pytest.mark.parametrize("n_rounds", ["nan", "inf"])
def test_non_finite_rounds_rejected(capsys, tmp_path, argv, n_rounds):
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--n-rounds", n_rounds,
                           "--output", str(out))
    assert code == EXIT_CODES["domain"]
    assert err == (f"pmqkd: error [domain] finite_key_rate: n_rounds must be "
                   f"finite, got {n_rounds}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["keyrate", "--loss-db", "30", "--mu", "1e-3"],
    ["scan", "--d-min", "50", "--d-max", "50", "--step", "1"],
    ["optimize", "--loss-db", "45"],
])
def test_zero_rounds_rejected(capsys, tmp_path, argv):
    # keyrate once reported a rate of 0 for no rounds at all (exit 0).
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--n-rounds", "0", "--output", str(out))
    assert code == EXIT_CODES["domain"]
    assert err == ("pmqkd: error [domain] finite_key_rate: n_rounds must be "
                   "positive, got 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
    ["scan", "--d-min", "50", "--d-max", "50", "--step", "1", "--mu", "1e-3"],
    ["scan", "--alpha", "1", "--d-min", "10", "--d-max", "20", "--step", "10",
     "--mu", "1e-3", "--detail"],
])
@pytest.mark.parametrize("p_s", ["0", "1"])
def test_sampling_fraction_outside_unit_interval_rejected(capsys, tmp_path, argv, p_s):
    # p_s = 1 once divided by zero (exit 70); p_s = 0 named vacuum_yield_ub.
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, "--p-s", p_s, "--output", str(out))
    assert code == EXIT_CODES["domain"]
    assert err == (f"pmqkd: error [domain] expected_key_rate: p_s must be in "
                   f"(0, 1), got {float(p_s)!r}\n")
    assert not out.exists()


class TestNonFiniteIntensity:
    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "45", "--mu", "nan"],
        ["keyrate", "--loss-db", "45", "--mu", "inf"],
        ["scan", "--alpha", "1", "--d-min", "40", "--d-max", "40", "--step", "1",
         "--mu", "nan", "--detail"],
    ])
    def test_rejected(self, tmp_path, argv):
        # A NaN intensity once looped forever in the residue series, so each
        # case runs in its own process under a time limit.
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pmqkd.cli", *argv, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_CODES["domain"]
        assert proc.stderr.startswith("pmqkd: error [domain]")
        assert "mu must be finite" in proc.stderr
        assert not out.exists()

    def test_large_mu_rejected(self, tmp_path):
        # e^-mu underflows to 0 past mu ~ 745; the vacuum bound divided by
        # it and the command ended in an internal error.
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pmqkd.cli", "keyrate", "--loss-db", "45",
             "--mu", "800", "--output", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_CODES["domain"]
        assert proc.stderr == ("pmqkd: error [domain] vacuum_yield_ub: mu must be "
                               "finite and in [0, 700], got 800.0\n")
        assert not out.exists()


class TestOutputFirst:
    """Every command opens --output before it computes."""

    ARGV = {
        "keyrate": ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
        "optimize": ["optimize", "--loss-db", "45"],
        "reproduce": ["reproduce", "--bundled", "45"],
        "scan": ["scan", "--d-min", "10", "--d-max", "40", "--step", "1",
                 "--n-rounds", "1e12"],
        "scan-detail": ["scan", "--alpha", "1", "--d-min", "10", "--d-max", "50",
                        "--step", "10", "--detail"],
        "simulate": ["simulate", "--loss-db", "20", "--mu", "1e-3",
                     "--n-rounds", "1e4"],
    }
    WORK = ("expected_key_rate", "optimize", "simulate", "reproduce_key_rate",
            "load_bundled_record")

    @pytest.mark.parametrize("cmd", sorted(ARGV))
    def test_unwritable_output_fails_before_any_work(self, capsys, tmp_path,
                                                     monkeypatch, cmd):
        calls = []

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return call

        for name in self.WORK:
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        missing = str(tmp_path / "no-such-dir" / "out.csv")
        code, out, err = run_cli(capsys, *self.ARGV[cmd], "--output", missing)
        assert code == EXIT_CODES["domain"]
        assert err == (f"pmqkd: error [domain] --output: cannot write {missing}: "
                       f"No such file or directory\n")
        assert out == ""
        assert calls == []

    @pytest.mark.parametrize("cmd", sorted(ARGV))
    def test_failed_work_leaves_no_file(self, capsys, tmp_path, monkeypatch, cmd):
        new = tmp_path / "new.csv"
        seen = []

        def fail(*args, **kwargs):
            seen.append(new.exists())
            raise DomainError("the work failed")

        for name in self.WORK:
            monkeypatch.setattr(cli, name, fail)
        code, _, err = run_cli(capsys, *self.ARGV[cmd], "--output", str(new))
        assert (code, err) == (EXIT_CODES["domain"],
                               "pmqkd: error [domain] the work failed\n")
        # The probe leaves no empty placeholder for the work to reopen.
        assert seen == [False]
        assert not new.exists()
        # A file that was there is left as it was.
        old = tmp_path / "old.csv"
        old.write_text("kept\n")
        code, _, _ = run_cli(capsys, *self.ARGV[cmd], "--output", str(old))
        assert code == EXIT_CODES["domain"]
        assert old.read_text() == "kept\n"


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss_db=45\nmu=9.78e-4\n")
        monkeypatch.setenv("PMQKD_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "keyrate")
        assert code == 0
        assert "1.354" in out  # the 45 dB reference point
        # explicit flag wins over the config value
        code, out2, _ = run_cli(capsys, "keyrate", "--mu", "0")
        assert code == 0
        assert "R   = 0.000000e+00" in out2

    def test_repeated_main_matches_fresh_process(self, capsys, tmp_path, monkeypatch):
        # No state carries over between main() calls: a config-file run
        # followed by a plain run prints what two fresh processes print.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rounds=1e10\nf_ec=1.2\n")
        argv = ["keyrate", "--loss-db", "45", "--mu", "9.78e-4"]
        monkeypatch.setenv("PMQKD_CONFIG", str(cfg))
        with_cfg = run_cli(capsys, *argv)
        monkeypatch.delenv("PMQKD_CONFIG")
        without = run_cli(capsys, *argv)
        assert with_cfg[1] != without[1]
        for env_cfg, (code, out, err) in ((str(cfg), with_cfg), (None, without)):
            env = {k: v for k, v in os.environ.items() if k != "PMQKD_CONFIG"}
            if env_cfg is not None:
                env["PMQKD_CONFIG"] = env_cfg
            fresh = subprocess.run([sys.executable, "-m", "pmqkd.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_equals_spelling_of_config_flag(self, capsys, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("f_ec=1.2\n")
        argv = ["keyrate", "--loss-db", "45", "--mu", "1e-3"]
        spaced = run_cli(capsys, "--config", str(cfg), *argv)
        joined = run_cli(capsys, f"--config={cfg}", *argv)
        plain = run_cli(capsys, *argv)
        assert spaced == joined
        assert spaced[0] == 0 and spaced[1] != plain[1]
        assert "R   = 1.310" in joined[1]

    @pytest.mark.parametrize("argv", [
        ["reproduce", "--bundled", "45"],
        ["simulate", "--loss-db", "20", "--n-rounds", "1e6"],
        ["keyrate", "--loss-db", "45"],
    ])
    def test_shared_config_serves_every_command(self, capsys, tmp_path, argv):
        # mu is not a reproduce option and f_ec is not a simulate option;
        # each is skipped where the command lacks it
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("mu=1e-3\nf_ec=1.2\n")
        if argv[0] == "simulate":
            argv = argv + ["--output", str(tmp_path / "tally.csv")]
        code, _, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("spelling", [["--config", "keyrate"], ["--conf", "keyrate"],
                                          ["--config=keyrate"], ["--conf=keyrate"]])
    def test_config_path_named_like_a_command(self, capsys, tmp_path, monkeypatch,
                                              spelling):
        # The command is found by position, not by name: a config file named
        # keyrate once made the config land after the path, a usage error.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keyrate").write_text("loss_db=45\nf_ec=1.2\n")
        configured = run_cli(capsys, *spelling, "keyrate", "--mu", "1e-3")
        flagged = run_cli(capsys, "keyrate", "--loss-db", "45", "--f-ec", "1.2",
                          "--mu", "1e-3")
        assert configured == flagged and configured[0] == 0

    @pytest.mark.parametrize("word", ["yes", "no"])
    def test_help_key_is_usage_error(self, capsys, tmp_path, word):
        # A configured help would print usage and exit 0 for every command
        # without computing anything.
        cfg = tmp_path / "help.cfg"
        cfg.write_text(f"help={word}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "keyrate", "--loss-db", "45", "--mu", "1e-3"])
        assert exc.value.code == EXIT_CODES["usage"]
        captured = capsys.readouterr()
        assert "config key 'help'" in captured.err and captured.out == ""

    def test_config_key_of_no_command_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("mu=1e-3\nf_eec=1.2\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "keyrate", "--loss-db", "45"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "'f_eec'" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["true", "1", "yes"])
    def test_switch_on_from_config(self, capsys, tmp_path, word):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"optimize_ps={word}\n")
        argv = ["scan", "--d-min", "100", "--d-max", "100", "--step", "1"]
        configured, flagged = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "--config", str(cfg), *argv,
                       "--output", str(configured))[0] == 0
        assert run_cli(capsys, *argv, "--optimize-ps",
                       "--output", str(flagged))[0] == 0
        assert configured.read_text() == flagged.read_text()

    @pytest.mark.parametrize("word,traced", [
        ("false", False), ("0", False), ("no", False), ("true", True)])
    def test_trace_switch_from_config(self, capsys, tmp_path, word, traced):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trace={word}\n")
        out = tmp_path / "opt.json"
        code, _, _ = run_cli(capsys, "--config", str(cfg), "optimize",
                             "--loss-db", "45", "--output", str(out))
        assert code == 0
        assert (json.loads(out.read_text())["trace"] is not None) == traced

    def test_bad_switch_word_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trace=maybe\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "optimize", "--loss-db", "45"])
        assert exc.value.code == EXIT_CODES["usage"]
        assert "'trace'" in capsys.readouterr().err

    @pytest.mark.parametrize("configured,given", [
        ("loss_db=45", ["--distance-km", "100"]),
        ("distance_km=100", ["--loss-db", "45"]),
        ("distance_km=100", ["--loss-db=45"]),
        ("loss_db=45", ["--dist", "100"]),
    ])
    def test_flag_overrides_its_exclusive_partner(self, capsys, tmp_path,
                                                  configured, given):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(configured + "\nmu=1e-3\n")
        argv = ["keyrate", *given, "--mu", "1e-3"]
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *argv)

    @pytest.mark.parametrize("argv,read", [
        (["scan", "--d-min", "50", "--d-max", "100", "--step", "25"],
         ["--alpha", "0.2", "--mu", "2e-3"]),
        (["scan", "--alpha", "1", "--d-min", "40", "--d-max", "41", "--step", "1",
          "--detail"], ["--mu", "2e-3"]),
        (["optimize", "--loss-db", "45"], ["--alpha", "0.2"]),
    ])
    def test_config_serves_commands_without_its_keys(self, capsys, tmp_path,
                                                      argv, read):
        # Each command takes from the file only the keys it reads (read) and
        # skips the rest; both configured losses yield to --loss-db.
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("loss_db=30\ndistance_km=100\nalpha=0.2\nformat=json\n"
                       "mu=2e-3\n")
        configured, flagged = tmp_path / "a.out", tmp_path / "b.out"
        a = run_cli(capsys, "--config", str(cfg), *argv, "--output", str(configured))
        b = run_cli(capsys, *argv, *read, "--output", str(flagged))
        assert a == b and a[0] == 0
        assert configured.read_bytes() == flagged.read_bytes()

    def test_range_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "range.cfg"
        cfg.write_text("d_min=50\nd_max=100\nstep=25\nmu=2e-3\n")
        configured, flagged = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "--config", str(cfg), "scan",
                       "--output", str(configured))[0] == 0
        assert run_cli(capsys, "scan", "--d-min", "50", "--d-max", "100",
                       "--step", "25", "--mu", "2e-3",
                       "--output", str(flagged))[0] == 0
        assert configured.read_bytes() == flagged.read_bytes()
        assert len(configured.read_text().splitlines()) == 4

    def test_missing_config_file(self, capsys, monkeypatch):
        monkeypatch.setenv("PMQKD_CONFIG", "/nonexistent/cfg")
        code, _, err = run_cli(capsys, "keyrate", "--loss-db", "45", "--mu", "1e-3")
        assert code == EXIT_CODES["domain"]
        assert "config" in err


_DETECTOR = {"--eta-d", "--p-d", "--e-d"}
_LOSS = {"--loss-db", "--distance-km", "--alpha"}
_PROTOCOL = {"--m-slices", "--n-rounds", "--p-s"}
_BUDGET = {"--f-ec", "--eps", "--eps-ka", "--xi", "--xi-prime"}
COMMAND_OPTIONS = {
    "keyrate": _LOSS | _DETECTOR | _PROTOCOL | _BUDGET
    | {"--mu", "--output", "--format"},
    "scan": {"--alpha"} | _DETECTOR | _PROTOCOL | _BUDGET
    | {"--mu", "--output", "--d-min", "--d-max", "--step", "--optimize-ps", "--jobs",
       "--detail"},
    "simulate": _LOSS | _DETECTOR | _PROTOCOL
    | {"--mu", "--seed", "--batch-size", "--jobs", "--output"},
    "reproduce": _BUDGET | {"--eta-d", "--p-d", "--input", "--bundled",
                            "--output", "--format"},
    "optimize": _LOSS | _DETECTOR | _PROTOCOL | _BUDGET
    | {"--mu-min", "--mu-max", "--optimize-ps", "--trace", "--output"},
}


class TestOptionSets:
    def test_each_command_has_its_options(self):
        commands = cli.build_parser().get_default("commands")
        assert {name: {opt for opt in sub._option_string_actions
                       if opt.startswith("--") and opt != "--help"}
                for name, sub in commands.items()} == COMMAND_OPTIONS
        assert sum(map(len, COMMAND_OPTIONS.values())) == 81

    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
        ["scan", "--d-min", "50", "--d-max", "50", "--step", "1", "--mu", "1e-3"],
        ["scan", "--alpha", "1", "--d-min", "40", "--d-max", "40", "--step", "1",
         "--mu", "1e-3", "--detail"],
        ["simulate", "--loss-db", "20", "--mu", "1e-3", "--n-rounds", "1e4"],
        ["reproduce", "--bundled", "45"],
        ["optimize", "--loss-db", "45", "--n-rounds", "1e10"],
    ])
    def test_each_option_is_read(self, capsys, tmp_path, argv):
        # The command reads every option it defines, so none is ignored.
        class Recorder:
            def __init__(self, namespace):
                self.namespace, self.read = namespace, set()

            def __getattr__(self, name):
                self.read.add(name)
                return getattr(self.namespace, name)

        parser = cli.build_parser()
        args = parser.parse_args([*argv, "--output", str(tmp_path / "out")])
        recorder = Recorder(args)
        assert args.func(recorder) == 0
        sub = parser.get_default("commands")[args.cmd]
        assert {a.dest for a in sub._actions if a.dest != "help"} - recorder.read == set()

    @pytest.mark.parametrize("argv,flag,value", [
        (["scan", "--d-min", "50", "--d-max", "50", "--step", "1", "--mu", "1e-3"],
         flag, value)
        for flag, value in (("--loss-db", "200"), ("--distance-km", "100"),
                            ("--format", "json"))
    ] + [
        (["scan", "--alpha", "1", "--d-min", "40", "--d-max", "40", "--step", "1",
          "--mu", "1e-3", "--detail"], flag, value)
        for flag, value in (("--loss-db", "200"), ("--distance-km", "100"),
                            ("--loss-min", "40"), ("--format", "json"))
    ] + [(["optimize", "--loss-db", "45"], "--mu", "1e-3")])
    def test_option_a_command_ignores_is_usage_error(self, capsys, tmp_path,
                                                     argv, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value, "--output", str(out)])
        assert exc.value.code == EXIT_CODES["usage"]
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_every_option_has_help():
    # An option without help prints as a bare flag in --help.
    commands = cli.build_parser().get_default("commands")
    bare = [(name, action.option_strings[0])
            for name, sub in commands.items() for action in sub._actions
            if action.option_strings and not action.help]
    assert bare == []


def test_readme_command_table_names_only_real_options():
    # A deleted or misplaced option cannot linger in the README's table.
    commands = cli.build_parser().get_default("commands")
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row and row[1] in commands:
            rows[row[1]] = set(re.findall(r"--[a-z][a-z-]*", row[2]))
    assert rows.keys() == commands.keys()
    for name, flags in rows.items():
        assert flags - commands[name]._option_string_actions.keys() == set(), name


def test_readme_commands_parse():
    # A deleted command or option cannot linger in the README's examples.
    parser = cli.build_parser()
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.strip() for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.strip().startswith("pmqkd ")]
    assert lines
    for line in lines:
        try:
            parser.parse_args(shlex.split(line.replace("$n", "1e11"), comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pmqkd.cli", "keyrate", "--loss-db", "45",
         "--mu", "9.78e-4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rate" in proc.stdout


class TestRefusalPaths:
    """Refusals pinned in full, each run in process."""

    def _refused(self, capsys, tmp_path, *argv):
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--output", str(out))
        assert not out.exists()
        assert stdout == ""
        return code, err

    def test_reversed_range(self, capsys, tmp_path):
        code, err = self._refused(capsys, tmp_path, "scan", "--d-min", "60", "--d-max", "50",
                                  "--step", "1", "--mu", "1e-3")
        assert code == EXIT_CODES["domain"]
        assert err == ("pmqkd: error [domain] --d-min/--d-max must be finite with "
                       "min <= max, got 60.0, 50.0\n")

    def test_oversized_range(self, capsys, tmp_path):
        code, err = self._refused(capsys, tmp_path, "scan", "--d-min", "0", "--d-max", "1e7",
                                  "--step", "1", "--mu", "1e-3")
        assert code == EXIT_CODES["domain"]
        assert err == ("pmqkd: error [domain] --d-min/--d-max in steps of 1.0 give "
                       "10000001 points, more than 1000000\n")

    def test_seed_beyond_a_philox_key(self, capsys, tmp_path):
        code, err = self._refused(capsys, tmp_path, "simulate", "--loss-db", "20", "--mu",
                                  "1e-3", "--n-rounds", "1e4",
                                  "--seed", "18446744073709551616")
        assert code == EXIT_CODES["domain"]
        assert err == ("pmqkd: error [domain] simulate: seed must be < 2**64, "
                       "got 18446744073709551616\n")

    @pytest.mark.parametrize("text,message", [
        ("# loss_db=45\n# N=1000000\n# mu=1e-3\n# p_s=0.07\n# n_det=10\n"
         "phase_a,phase_b,d1_count,d2_count\n0,0,1\n",
         "line 7: expected 4 columns, got 3"),
        ("# loss_db 45\n", "line 1: metadata line without '=': '# loss_db 45'"),
    ], ids=["short_row", "metadata_without_equals"])
    def test_schema_refusal(self, capsys, tmp_path, text, message):
        tally = tmp_path / "tally.csv"
        tally.write_text(text)
        code, err = self._refused(capsys, tmp_path, "reproduce", "--input", str(tally))
        assert code == EXIT_CODES["schema"]
        assert err == f"pmqkd: error [schema] {message}\n"

    def test_n_rounds_past_the_kato_cap(self, capsys, tmp_path):
        # The sifted size passes the cap, where the lift once returned NaN and
        # the refusal named binary_entropy's x.
        code, err = self._refused(capsys, tmp_path, "keyrate", "--loss-db", "45", "--mu",
                                  "1e-3", "--n-rounds", "1e100")
        assert code == EXIT_CODES["domain"]
        prefix = "pmqkd: error [domain] kato_correction: n must be finite and in [1, 1.8e+76], got "
        assert err.startswith(prefix)
        assert float(err[len(prefix):]) > 1.8e76


def test_config_blank_and_comment_lines_are_skipped(capsys, tmp_path):
    plain, spaced = tmp_path / "plain.cfg", tmp_path / "spaced.cfg"
    plain.write_text("loss_db=45\nmu=9.78e-4\n")
    spaced.write_text("# reference point\n\nloss_db=45\n   \n  # mu from the table\nmu=9.78e-4\n\n")
    runs = [run_cli(capsys, "--config", str(cfg), "keyrate") for cfg in (plain, spaced)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "1.354" in runs[0][1]
