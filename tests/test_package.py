"""Public surface of the package."""

import subprocess
import sys

import pmqkd


def test_every_exported_name_resolves():
    missing = [name for name in pmqkd.__all__ if not hasattr(pmqkd, name)]
    assert missing == []


def test_cli_import_defers_scipy_optimize():
    # scipy.optimize is loaded by the co-optimization of (mu, p_s) only;
    # commands that never optimize (simulate, reproduce) and the fixed-p_s
    # search behind scan and deviation do not pay for it.
    for code in (
        "import sys, pmqkd.cli",
        "import sys; from pmqkd.channel import ChannelSpec; "
        "from pmqkd.optimizer import optimize; "
        "optimize(ChannelSpec(total_loss_db=45.0), 1e11, 8, fixed_p_s=0.07)",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code + "; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False", code
