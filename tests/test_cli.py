"""CLI surface tests (driven through main() for speed; one subprocess check
for the entry point)."""

import json
import os
import subprocess
import sys

import pytest

from pmqkd import cli
from pmqkd.channel import ChannelSpec
from pmqkd.cli import EXIT_CODES, main
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
        ["deviation", "--loss-min", "40", "--loss-max", "41", "--mu", "1e-3"],
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

    def test_jobs_capped_at_point_count(self, capsys, tmp_path, monkeypatch):
        # A stand-in pool that records its size and runs in this process, so
        # the test starts no workers.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d-min", "50", "--d-max", "100", "--step", "25",
            "--mu", "2e-3", "--jobs", "16", "--output", str(out),
        )
        assert code == 0
        assert sizes == [3]
        assert len(out.read_text().splitlines()) == 4


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
        (["deviation", "--loss-min", "nan", "--loss-max", "41"], "--loss-min/--loss-max"),
        (["deviation", "--loss-min", "40", "--loss-max", "inf"], "--loss-min/--loss-max"),
        (["deviation", "--loss-min", "41", "--loss-max", "40"], "--loss-min/--loss-max"),
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
        ["deviation", "--loss-min", "40.1", "--loss-max", "40.3", "--step", "0.1"],
    ])
    def test_decimal_steps_reach_the_end(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, *argv, "--mu", "1e-3", "--output", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        first = float(argv[2])
        assert [row.split(",")[0] for row in rows] == [
            repr(round(first + i * 0.1, 9)) for i in range(3)]


class TestDeviation:
    def test_m6_sweep_small(self, capsys, tmp_path):
        out = tmp_path / "dev.csv"
        code, _, _ = run_cli(
            capsys, "deviation", "--m-slices", "6", "--loss-min", "20",
            "--loss-max", "30", "--step", "5", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "loss_db,mu,delta_0,delta_2,delta_4,sum_delta,ep_m,"
            "sum_delta_over_ep_m"
        )
        assert len(lines) == 4
        for line in lines[1:]:
            ratio = float(line.split(",")[-1])
            assert 0 < ratio < 0.01

    def test_optimized_rows_match_the_chain(self, capsys, tmp_path):
        # Each row is the chain's breakdown at the fixed-p_s optimum; 90 dB
        # has no key and reports the lowest grid intensity.
        out = tmp_path / "dev.csv"
        code, _, _ = run_cli(
            capsys, "deviation", "--m-slices", "6", "--loss-min", "10",
            "--loss-max", "90", "--step", "20", "--output", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        for row, loss in zip(rows, (10.0, 30.0, 50.0, 70.0, 90.0)):
            channel = ChannelSpec(total_loss_db=loss)
            opt = optimize(channel, 1e11, 6, fixed_p_s=0.07)
            res = expected_key_rate(channel, opt.mu_opt, m_slices=6,
                                    n_rounds=1e11, p_s=0.07)
            devs = res.breakdown.deviations
            want = [repr(loss), repr(opt.mu_opt)] + [repr(v) for v in devs]
            want += [repr(sum(devs)), repr(res.ep_m), repr(sum(devs) / res.ep_m)]
            assert row.split(",") == want
        assert float(rows[-1].split(",")[1]) == 1e-6

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
        code, _, _ = run_cli(
            capsys, "deviation", "--m-slices", "6", "--loss-min", "10",
            "--loss-max", "90", "--step", "10",
            "--output", str(tmp_path / "dev.csv"),
        )
        assert code == 0
        assert len(searches) == 9
        assert len(calls) == sum(o.evaluations + o.feasible for o in searches)

    def test_fixed_mu_deviation_ordering(self, capsys, tmp_path):
        out = tmp_path / "dev.csv"
        code, _, _ = run_cli(
            capsys, "deviation", "--m-slices", "8", "--loss-min", "30",
            "--loss-max", "30", "--step", "1", "--mu", "2e-3",
            "--output", str(out),
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        d0, d2, d4, d6 = map(float, row[2:6])
        assert d0 > d2 > d4 > d6 > 0


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

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "reproduce")
        assert code == EXIT_CODES["domain"]

    @pytest.mark.parametrize("flag,value,field", [
        ("--loss-db", "nan", "total_loss_db"),
        ("--loss-db", "inf", "total_loss_db"),
        ("--mu", "nan", "mu"),
        ("--mu", "inf", "mu"),
        ("--p-s", "nan", "p_s"),
        ("--n-rounds", "nan", "--n-rounds"),
    ])
    def test_simulate_rejects_non_finite(self, capsys, tmp_path, flag, value, field):
        out = tmp_path / "tally.csv"
        args = {"--loss-db": "20", "--mu": "1e-3", "--n-rounds": "1e6", "--p-s": "0.07"}
        args[flag] = value
        argv = ["simulate", "--output", str(out)]
        for k, v in args.items():
            argv += [k, v]
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CODES["domain"]
        assert err.startswith("pmqkd: error [domain]")
        assert f"{field} must be finite" in err
        assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
    ["scan", "--d-min", "50", "--d-max", "50", "--step", "1"],
    ["deviation", "--loss-min", "40", "--loss-max", "40"],
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


class TestNonFiniteIntensity:
    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "45", "--mu", "nan"],
        ["keyrate", "--loss-db", "45", "--mu", "inf"],
        ["deviation", "--loss-min", "40", "--loss-max", "40", "--mu", "nan"],
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
        (["deviation", "--loss-min", "40", "--loss-max", "41"], ["--mu", "2e-3"]),
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
    | {"--mu", "--output", "--d-min", "--d-max", "--step", "--optimize-ps", "--jobs"},
    "deviation": _DETECTOR | _PROTOCOL | _BUDGET
    | {"--mu", "--output", "--loss-min", "--loss-max", "--step"},
    "simulate": _LOSS | _DETECTOR | _PROTOCOL
    | {"--mu", "--seed", "--batch-size", "--jobs", "--output"},
    "reproduce": _BUDGET | {"--eta-d", "--p-d", "--input", "--bundled",
                            "--q-source", "--output", "--format"},
    "optimize": _LOSS | _DETECTOR | _PROTOCOL | _BUDGET
    | {"--mu-min", "--mu-max", "--optimize-ps", "--trace", "--output"},
}


class TestOptionSets:
    def test_each_command_has_its_options(self):
        commands = cli.build_parser().get_default("commands")
        assert {name: {opt for opt in sub._option_string_actions
                       if opt.startswith("--") and opt != "--help"}
                for name, sub in commands.items()} == COMMAND_OPTIONS
        assert sum(map(len, COMMAND_OPTIONS.values())) == 97

    @pytest.mark.parametrize("argv", [
        ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
        ["scan", "--d-min", "50", "--d-max", "50", "--step", "1", "--mu", "1e-3"],
        ["deviation", "--loss-min", "40", "--loss-max", "40", "--mu", "1e-3"],
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
        (["deviation", "--loss-min", "40", "--loss-max", "40", "--mu", "1e-3"],
         flag, value)
        for flag, value in (("--loss-db", "200"), ("--distance-km", "100"),
                            ("--alpha", "0.2"), ("--format", "json"))
    ] + [(["optimize", "--loss-db", "45"], "--mu", "1e-3")])
    def test_option_a_command_ignores_is_usage_error(self, capsys, tmp_path,
                                                     argv, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value, "--output", str(out)])
        assert exc.value.code == EXIT_CODES["usage"]
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pmqkd.cli", "keyrate", "--loss-db", "45",
         "--mu", "9.78e-4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rate" in proc.stdout
