"""Record the optimum of every point the `curves` workload can visit.

The `curves` workload offsets the 10-330 km grid (step 10 km) by a
seed-derived offset from CURVE_OFFSETS_KM, at N = 1e10, 1e11 and 1e12.  This
script runs `pmqkd scan` over every offset and N and stores the reported
(mu, p_s, rate) per distance in reference_curves.json, so later commits are
gated against the optimum the recording commit found.

    python3 benchmarks/make_reference.py

It takes about two minutes on one core.  Rerun it only when the reference
optimum itself is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CURVE_N, CURVE_OFFSETS_KM, curve_argv, read_scan_csv  # noqa: E402
from provenance import provenance  # noqa: E402

import pmqkd.cli  # noqa: E402


def main() -> int:
    curves: dict[str, dict[str, list[float]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "curve.csv")
        for n_rounds in CURVE_N:
            table = curves.setdefault(n_rounds, {})
            for offset in CURVE_OFFSETS_KM:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pmqkd.cli.main(curve_argv(n_rounds, offset, out))
                if code != 0:
                    raise SystemExit(f"scan failed with exit code {code}")
                for d_km, mu, p_s, rate in read_scan_csv(out):
                    table[repr(d_km)] = [mu, p_s, rate]
            print(f"N={n_rounds}: {len(table)} points", file=sys.stderr)
    payload = {"provenance": provenance(), "curves": curves}
    (HERE / "reference_curves.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
