"""Public surface of the package."""

import subprocess
import sys

import pmqkd


def test_every_exported_name_resolves():
    missing = [name for name in pmqkd.__all__ if not hasattr(pmqkd, name)]
    assert missing == []


def test_cli_import_defers_scipy_optimize():
    # scipy.optimize is loaded by the first optimize() call only; commands
    # that never optimize (simulate, reproduce) do not pay for it.
    code = "import sys, pmqkd.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"
