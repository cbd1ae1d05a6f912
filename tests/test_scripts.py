"""Smoke tests for the experiment scripts: each runs in its own process
against the package sources, with small arguments."""

import csv
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PMQKD_CONFIG", None)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_experiment(tmp_path):
    out = run_script("reproduce_experiment.py", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["35", "40", "45"]
    assert all(0.85 < float(row[-1]) < 1.15 for row in rows)  # ratio to published


def test_deviation_sweep(tmp_path):
    run_script("deviation_sweep.py", "--loss-min", "40", "--loss-max", "41", cwd=tmp_path)
    with open(tmp_path / "deviation_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["loss_db"]) for r in rows] == [40.0, 41.0]
    assert all(float(r["sum_delta"]) > 0 for r in rows)


def test_scan_rate_curves(tmp_path):
    run_script("scan_rate_curves.py", "--d-min", "100", "--d-max", "120",
               "--step", "10", cwd=tmp_path)
    files = sorted(p.name for p in (tmp_path / "curves").iterdir())
    assert files == ["rate_curve_N1e+10.csv", "rate_curve_N1e+11.csv",
                     "rate_curve_N1e+12.csv"]
    for name in files:
        with open(tmp_path / "curves" / name) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["distance_km"]) for r in rows] == [100.0, 110.0, 120.0]
        assert all(float(r["rate"]) > 0 for r in rows)
