"""Public surface of the package."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import pmqkd
from pmqkd import cli, ingest, simulator

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in pmqkd.__all__ if not hasattr(pmqkd, name)]
    assert missing == []


def test_runtime_loads_no_scipy():
    # scipy is a test-only dependency: neither the CLI import nor a
    # co-optimized search of (mu, p_s) may load any part of it.
    for code in (
        "import sys, pmqkd.cli",
        "import sys; from pmqkd.channel import ChannelSpec; "
        "from pmqkd.optimizer import optimize; "
        "optimize(ChannelSpec(total_loss_db=40.0), 1e11, 8)",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code + "; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]", code


_HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")


def _heavy_modules_after(code: str) -> set[str]:
    """The heavy modules a fresh interpreter holds after running code."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted({{h for h in "
             f"{_HEAVY!r} for m in sys.modules if m == h or m.startswith(h + '.')}})))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", [
    None,
    ["reproduce", "--bundled", "45"],
    ["keyrate", "--loss-db", "45", "--mu", "1e-3"],
    ["scan", "--d-min", "50", "--d-max", "100", "--step", "50"],
    ["optimize", "--loss-db", "40", "--optimize-ps"],
    ["scan", "--alpha", "1", "--d-min", "40", "--d-max", "40", "--step", "1", "--detail"],
])
def test_cold_start_loads_no_numpy_or_pool(argv):
    # numpy is for sampling and the process pool for scan --jobs > 1; a
    # command that does neither must not pay for importing them.
    code = "import pmqkd.cli"
    if argv is not None:
        code += f"\nassert pmqkd.cli.main({argv!r}) == 0"
    assert _heavy_modules_after(code) == set()


def test_simulate_loads_numpy(tmp_path):
    # The probe above sees numpy when a command does sample.
    argv = ["simulate", "--loss-db", "20", "--mu", "1e-2", "--n-rounds", "1e4",
            "--output", str(tmp_path / "tally.csv")]
    code = f"import pmqkd.cli\nassert pmqkd.cli.main({argv!r}) == 0"
    assert "numpy" in _heavy_modules_after(code)


def test_benchmark_tracer_finds_every_span(tmp_path, capsys):
    # benchmarks/tracer.py wraps functions by module and name, so a moved or
    # renamed function must still be found where the tracer looks.  The tally
    # lives in ingest and the simulator names the same objects.
    for name in ("ObservedTally", "write_tally_csv", "_ordered_keys", "tally_to_stats"):
        assert getattr(simulator, name) is getattr(ingest, name)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    for _, module, attr in tracer_module.SPANS:
        owner, leaf = tracer_module._resolve(module, attr)
        assert callable(getattr(owner, leaf)), f"{module}.{attr}"
    tracer = tracer_module.Tracer()
    argv = ["simulate", "--loss-db", "20", "--mu", "1e-2", "--n-rounds", "3e4",
            "--batch-size", "10000", "--output", str(tmp_path / "tally.csv")]
    with tracer.installed():
        assert cli.main(argv) == 0
    capsys.readouterr()
    spans = tracer.arrays()
    (sim,) = tracer.spans_named(spans, "simulator.simulate")
    # One merge per batch after the first: 3 batches, 2 merges.
    assert tracer.children_count(spans, "simulator.simulate", "simulator.merge") == {sim: 2}
    assert len(tracer.spans_named(spans, "simulator.write_tally_csv")) == 1
