"""Public surface of the package."""

import subprocess
import sys

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
