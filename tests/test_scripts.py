"""Smoke tests for the experiment scripts: each runs in its own process
against the package sources, with small arguments.  The benchmark-pair
summary is also checked in process, on records built here."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

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


def test_reproduce_experiment_takes_no_options(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_experiment.py"),
                           "--q-source", "counts"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "--q-source" in proc.stderr


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_record(workload, seed, work, setup, rss, operations=1000):
    metrics = {"work_per_s": work, "setup_s": setup, "peak_rss_mb": rss}
    return {
        "workload": workload, "seed": seed, "seconds": 30, "trace": 0,
        "extra": {"samples": operations},
        "provenance": {"git_commit": None, "source_sha256": "x", "cores": 2,
                       "cores_usable": 2, "cpu_model": "cpu", "platform": "p",
                       "python": "3", "numpy": "2", "scipy": "1"},
        "result": {"failed": 0,
                   "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}},
    }


def test_bench_pairs():
    parent, change, parent_first = {}, {}, {}
    for seed in range(1, 11):
        key = ("curves", seed)
        # The parent: work 100 + seed, setup 0.10 + seed / 100 s, 40 MB.
        parent[key] = _bench_record("curves", seed, 100.0 + seed, 0.10 + seed / 100, 40.0)
        # The change is faster on 9 of the 10 seeds.  It sets up faster on 9
        # seeds, but by less than the parent's quartile spread, and as fast
        # on seed 10.  It takes 2.5% more memory on 8 seeds, as much on 2.
        change[key] = _bench_record("curves", seed, 100.0 if seed == 10 else 140.0 + seed,
                                    0.10 + seed / 100 - 0.001 * (seed != 10),
                                    40.0 + (seed <= 8), operations=1400 + seed)
        parent_first[key] = seed % 2 == 1
    curves = _load_bench_pairs().summarise(parent, change, parent_first)["workloads"]["curves"]
    assert curves["seeds"] == list(range(1, 11))
    assert curves["parent_first"] == [True, False] * 5
    # A gain needs 9 of the 10 pairs and medians further apart than the
    # parent's quartiles.
    work = curves["metrics"]["work_per_s"]
    assert work["pairs_won"] == 9 and work["gain_shown"] and work["within_bound"]
    assert work["parent"]["median"] == 105.5
    setup = curves["metrics"]["setup_s"]                         # ties win nothing
    assert setup["pairs_won"] == 9 and not setup["gain_shown"]   # inside the quartiles
    rss = curves["metrics"]["peak_rss_mb"]                       # lower is better
    assert rss["pairs_won"] == 0 and not rss["gain_shown"]
    assert rss["median_change"] == pytest.approx(0.025) and rss["within_bound"]  # < 5%
    # Each run's operation count, to read a memory change against.
    ops = curves["operations"]
    assert ops["parent"]["runs"] == [1000] * 10 and ops["parent"]["median"] == 1000
    assert ops["change"]["runs"] == [1400 + seed for seed in range(1, 11)]
    assert ops["change"]["median"] == 1405.5
    # The parent's setup quartiles, 0.1325 and 0.1775 s, span 29% of its
    # median, more than the 25% bound: within bound, but unresolved.  The
    # work and memory spreads are narrow.
    assert setup["within_bound"] and setup["unresolved"]
    assert not work["unresolved"] and not rss["unresolved"]
    # As wide a spread is resolved when every run of the change beats every
    # run of the parent, the fastest of which took 0.11 s.
    compare = _load_bench_pairs().compare
    parent_setup = [0.10 + seed / 100 for seed in range(1, 11)]
    assert not compare(parent_setup, [0.105] * 10, "lower", 0.25)["unresolved"]
    assert compare(parent_setup, [0.105] * 9 + [0.115], "lower", 0.25)["unresolved"]


_STUB_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
checkout = Path.cwd()
with open(checkout.parent / "order.log", "a") as log:
    log.write(checkout.name + "\\n")
work = {"parent": 100.0, "change": 150.0}[checkout.name] + int(args["--seed"])
out = checkout / ".bench_out"
out.mkdir(exist_ok=True)
record = {
    "workload": args["--workload"], "seed": int(args["--seed"]),
    "seconds": float(args["--seconds"]), "trace": int(args["--trace"]),
    "provenance": {"git_commit": {"parent": "1111111aa", "change": "2222222bb"}[checkout.name],
                   "source_sha256": checkout.name,
                   "cores": 2, "cores_usable": 2, "cpu_model": "cpu", "platform": "p",
                   "python": "3", "numpy": "2", "scipy": "1"},
    "extra": {"samples": 10 * int(args["--seed"])},
    "result": {"failed": 0, "metrics": {
        "work_per_s": {"value": work, "unit": "1/s"},
        "setup_s": {"value": 0.14, "unit": "s"},
        "peak_rss_mb": {"value": 40.0, "unit": "MB"}}},
}
(out / f"{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(json.dumps(record))
"""


def test_bench_pairs_runs_the_pairs_alternately(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(_STUB_RUN)
    out = run_script("bench_pairs.py", "parent", "change", "--workloads",
                     "curves", "ingest", "--seeds", "1-3", "--seconds", "2", cwd=tmp_path)
    assert out.splitlines()[:2] == ["curves seed 1 parent: work_per_s 101",
                                    "curves seed 1 change: work_per_s 151"]
    # The parent runs first on the odd pairs, the change on the even ones.
    assert (tmp_path / "order.log").read_text().split() == [
        "parent", "change", "change", "parent", "parent", "change"] * 2
    summary = json.loads((tmp_path / "BENCH_2222222.json").read_text())
    assert summary["parent"]["git_commit"] == "1111111aa"
    for name in ("curves", "ingest"):
        entry = summary["workloads"][name]
        assert entry["seeds"] == [1, 2, 3] and entry["seconds"] == [2.0]
        assert entry["parent_first"] == [True, False, True]
        assert entry["metrics"]["work_per_s"]["pairs_won"] == 3
        assert entry["operations"]["change"]["runs"] == [10, 20, 30]
    assert "curves.peak_rss_mb: 40 -> 40 (+0.0%), won 0/3, gain shown False, within bound " \
           "True; operations per run 20 -> 20" in out.splitlines()


def test_bench_pairs_runs_the_benchmark(tmp_path):
    # One real pair of a one-second ingest run; one checkout on both sides.
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    for part in ("src", "benchmarks"):
        shutil.copytree(ROOT / part, checkout / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    run_script("bench_pairs.py", "checkout", "checkout", "--workloads", "ingest",
               "--seeds", "1", "--seconds", "1", "-o", "bench.json", cwd=tmp_path)
    entry = json.loads((tmp_path / "bench.json").read_text())["workloads"]["ingest"]
    assert entry["seeds"] == [1] and entry["parent_first"] == [True]
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["metrics"]["work_per_s"]["parent"]["median"] > 0
    assert entry["operations"]["parent"]["runs"][0] > 0
