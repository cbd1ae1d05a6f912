"""Self-test of the benchmark, at a tiny size.

    python3 benchmarks/selftest.py

Checks that BENCHMARK.json declares exactly the metrics run.py reports; that
a one-second run of every workload, untraced and traced, prints each of them
by name with its unit and passes its gates; that the gates fire on an
injected optimistic rate and an injected out-of-range z; and that the
benchmark refuses to run without the package's sources.  It takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pmqkd.channel import ChannelSpec  # noqa: E402
from pmqkd.simulator import ProtocolParams, simulate, tally_to_stats  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(ours), f"BENCHMARK.json {key} differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    return spec


def check_printed(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: summary keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: gates failed: {lines[:-1]}")
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in declared),
                   f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            for m in declared:
                expect(result["metrics"][m["name"]]["unit"] == m["unit"],
                       f"{name}: unit of {m['name']}")
                prefix = f"{name}.{m['name']} = "
                expect(any(l.startswith(prefix) and f" {m['unit']}" in l for l in lines[:-1]),
                       f"{name}: {m['name']} not printed with unit {m['unit']}")
                if trace == 0:
                    expect(result["metrics"][m["name"]]["value"] > 0, f"{name}: {m['name']} is 0")
            print(f"selftest: {name} trace={trace} prints all {len(declared)} metrics")


def check_gates() -> None:
    # curves: the recorded optimum passes; a rate above the pipeline value at
    # its own (mu, p_s) fails even when it is within the reference tolerance.
    reference = json.loads((HERE / "reference_curves.json").read_text())["curves"]["1e11"]
    rows = []
    for i in range(workloads.CURVE_POINTS):
        d_km = 10.0 + i * workloads.CURVE_STEP_KM
        mu, p_s, rate = reference[repr(d_km)]
        rows.append((d_km, mu, p_s, rate))
    points = workloads.CURVE_POINTS
    expect(workloads.check_curve(rows, "1e11", 0.0, points, reference) == [],
           "recorded curve fails its own gate")
    d_km, mu, p_s, rate = rows[20]
    rows[20] = (d_km, mu, p_s, rate * (1.0 + 1e-9))
    errors = workloads.check_curve(rows, "1e11", 0.0, points, reference)
    expect(len(errors) == 1 and "pipeline" in errors[0], f"optimistic rate not caught: {errors}")

    # ingest: a reproduced rate off the reference by more than reassociation fails.
    path = ROOT / "src" / "pmqkd" / "data" / "table_45db.csv"
    reference = workloads.oracle.key_rate(path.read_text())
    f = {"kind": "bundled_45db", "reference": reference, "published": 2.25e-7}
    good = {"rate": reference["rates"][0], "m_s_reconstructed": reference["m_s_reconstructed"]}
    expect(workloads.check_ingest_result(f, good) == [], "reference rate fails its gate")
    errors = workloads.check_ingest_result(f, dict(good, rate=good["rate"] * (1.0 + 1e-6)))
    expect(errors and "reference" in errors[0], f"optimistic ingest rate not caught: {errors}")

    # montecarlo: an honest tally passes; wrong-detector clicks push |z| of the QBER past 5.
    params = ProtocolParams(mu=1e-2, m_slices=8, n_rounds=2_000_000, p_s=0.07,
                            channel=ChannelSpec(total_loss_db=10.0))
    tally = simulate(params, seed=1)
    q_emp, e_b_emp, _ = tally_to_stats(tally)
    expect(workloads.z_errors(tally, q_emp, e_b_emp, 10.0) == [], "honest tally fails the z gate")
    for a in range(tally.m_slices):
        moved = tally.matched[(a, a, 1)] // 10
        tally.matched[(a, a, 1)] -= moved
        tally.matched[(a, a, 2)] = tally.matched.get((a, a, 2), 0) + moved
    q_emp, e_b_emp, _ = tally_to_stats(tally)
    errors = workloads.z_errors(tally, q_emp, e_b_emp, 10.0)
    expect(len(errors) == 1 and "qber" in errors[0], f"out-of-range z not caught: {errors}")
    print("selftest: gates fire on an optimistic rate and an out-of-range z")


def check_refuses_without_sources() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("selftest: refuses to run without the package's sources")


def main() -> int:
    spec = check_declared()
    check_gates()
    check_refuses_without_sources()
    check_printed(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
