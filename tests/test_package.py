"""Public surface of the package."""

import json
import subprocess
import sys

import pytest

import pmqkd


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
    ["deviation", "--loss-min", "40", "--loss-max", "40"],
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
