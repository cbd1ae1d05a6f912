"""pmqkd benchmark: one workload, one closed-loop client, gated outputs.

    python3 benchmarks/run.py --workload {curves,montecarlo,ingest} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.

--trace 0 measures the end-to-end metrics with no tracing: set-up time in
fresh interpreters, throughput over S seconds of operations, and peak
memory.  --trace 1 wraps the public functions of every
module (benchmarks/tracer.py), runs the same operations untraced and then
traced, checks the trace identities, and reports the per-layer metrics.

Throughput is read from medians of small, repeated parts of the work.  On a
small shared machine each core runs the same code at speeds up to 2x apart,
switching every few seconds as neighbours load it, independently of the
other core.  So the benchmark moves itself to the next usable core every
CORE_SWITCH_S seconds, splits each operation into parts of equal work (each
CLI call; for `curves`, each point of a scan), and takes the median time of
each kind of part over the run; work_per_s is one operation of each kind
divided by the sum of those medians.  setup_s is the median of fresh
interpreters started at five points spread over the run.  The median and
tail percentile of whole operations are printed as well, ungated.

Every operation's output is gated for correctness.  The report goes to
standard output, a result file with provenance to .bench_out/, and the last
line of standard output is the JSON summary.  Exit status 2 means the
checkout has no package to measure, 3 that a trace identity broke.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = HERE / "setup_probe.py"

SETUP_SAMPLES = 5          # fresh interpreters per run, one before each fifth of the run
CORE_SWITCH_S = 0.5
SETUP_SAMPLES_TRACED = 3
TAIL_BEYOND = 10           # a percentile is reported only with this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_COUNTED = (
    "numerics.pseudo_fock_weight_ub", "numerics.binary_entropy", "channel",
    "security.finite_key_rate", "security.vacuum_yield_ub", "security.chernoff",
    "security.phase_error_discrete", "security.deviation_bound",
    "security.kato_correction", "security.key_length",
    "pipeline.expected_key_rate", "optimizer.optimize",
    "simulator.simulate", "simulator.merge",
    "ingest.parse_tally_csv", "ingest.derive_observables",
    "ingest.reproduce_key_rate", "ingest.result_to_json",
    "cli.main",
)
_TIMED_ONLY = ("cli.build_parser", "simulator.write_tally_csv", "simulator.tally_to_stats")

PER_LAYER = (
    tuple((f"{n}.calls", "count") for n in _COUNTED)
    + tuple((f"{n}.self_s", "s") for n in _COUNTED + _TIMED_ONLY)
    + (
        ("optimizer.optimize.busy_s", "s"),
        ("optimizer.evaluations", "count"),
        ("optimizer.evaluations_per_point", "count"),
        ("optimizer.infeasible_share", "share"),
        ("optimizer.first_call_s", "s"),
        ("security.zero_rate_share", "share"),
        ("simulator.simulate.busy_s", "s"),
        ("simulator.rounds", "count"),
        ("simulator.rounds_per_busy_s", "1/s"),
        ("ingest.parse_tally_csv.bytes", "bytes"),
        ("ingest.rejected_share", "share"),
        ("setup.import_s", "s"),
        ("setup.import_optimizer_s", "s"),
        ("setup.first_op_s", "s"),
        ("trace.overhead_share", "share"),
    )
)


class BenchmarkError(Exception):
    """The benchmark itself is inconsistent (not the program under test)."""


# --- running operations -------------------------------------------------------

def call_cli(argv: list[str]):
    import pmqkd.cli
    from workloads import CallResult

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pmqkd.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # main lets non-pmqkd errors escape: the operation failed
        code = None
        err.write(traceback.format_exc())
    return CallResult(code, out.getvalue(), err.getvalue())


class CoreRotation:
    """Moves this process (and the children it starts) across the usable cores."""

    def __init__(self) -> None:
        self.cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.index = 0
        self.last = -CORE_SWITCH_S

    def step(self) -> None:
        now = time.perf_counter()
        if len(self.cores) > 1 and now - self.last >= CORE_SWITCH_S:
            self.index = (self.index + 1) % len(self.cores)
            os.sched_setaffinity(0, {self.cores[self.index]})
            self.last = now

    def restore(self) -> None:
        if self.cores:
            os.sched_setaffinity(0, set(self.cores))


class Tally:
    """Timings and gate outcomes of the operations of one pass."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.parts: list[list[tuple[str, float]]] = []
        self.ops = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def absorb(self, other: "Tally") -> None:
        """Count another pass's operations as attempted here, without their timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def record(self, errors: list[str], label: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures += [f"{label}: {e}" for e in errors]


def gate(wl, op, results, tracer=None) -> list[str]:
    """The workload's correctness gate, on the original (untraced) functions."""
    try:
        wl.after(op, results)
        with tracer.paused() if tracer is not None else nullcontext():
            return wl.check(op, results)
    except Exception:  # a gate that cannot run is a failed gate
        return [f"gate raised: {traceback.format_exc(limit=3)}"]


def run_op(wl, op, index: int, tracer, tally: Tally) -> None:
    wl.before(op)
    if tracer is not None:
        tracer.op_id = index
    results, call_s = [], []
    for argv in op.argvs:
        t0 = time.perf_counter()
        results.append(call_cli(argv))
        call_s.append(time.perf_counter() - t0)
    dt = sum(call_s)
    tally.parts.append(wl.parts(op, call_s))
    errors = gate(wl, op, results, tracer)
    tally.durations.append(dt)
    tally.ops.append(op)
    tally.record(errors, f"op {index}")


def run_pass(wl, tally: Tally, cores: CoreRotation, seconds: float | None = None,
             count: int | None = None, tracer=None) -> None:
    """Closed loop, one client: the next operation starts when the last one is gated.

    Operation indices continue from the operations already in the tally.
    """
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = len(tally.ops)
    stop = i + count if count is not None else None
    while (stop is None or i < stop) and (deadline is None or time.perf_counter() < deadline):
        cores.step()
        run_op(wl, wl.op(i), i, tracer, tally)
        i += 1


def setup_samples(wl, workdir: Path, n: int, importtime: bool, tally: Tally) -> list[dict]:
    """Time fresh interpreters that import pmqkd and run the smallest operation, one at a time."""
    op = wl.smallest_op()
    env = {k: v for k, v in os.environ.items() if k != "PMQKD_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(PROBE), json.dumps(op.argvs)]
    samples = []
    for _ in range(n):
        wl.before(op)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=150)
        wall = time.perf_counter() - t0
        errors = []
        try:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample = {"codes": [None]}
            errors.append(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            if Path(sample["module"]).resolve().parent.parent != SRC.resolve():
                raise BenchmarkError(f"probe imported pmqkd from {sample['module']}")
            from workloads import CallResult

            errors += gate(wl, op, [CallResult(c, out, proc.stderr)
                                    for c, out in zip(sample["codes"], sample["stdouts"])])
        sample["wall_s"] = wall
        if importtime:
            sample["import_optimizer_s"] = _cumulative_import_s(proc.stderr, "pmqkd.optimizer")
        samples.append(sample)
        tally.record(errors, "set-up probe")
    return samples


def _cumulative_import_s(stderr: str, module: str) -> float:
    """Cumulative seconds of one module in `python -X importtime` output (0 if never imported)."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == module:
            return int(line.split("|")[1]) * 1e-6
    return 0.0


# --- metrics ------------------------------------------------------------------

def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_supported(n: int, p: int) -> bool:
    return n * (100 - p) / 100 >= TAIL_BEYOND


def work_per_s(tally: Tally) -> float:
    """Work per second of one operation of each kind, each part at its median time."""
    times: dict[str, list[float]] = {}
    work: dict[str, float] = {}
    for op, parts in zip(tally.ops, tally.parts):
        work[op.kind] = op.work
        for key, seconds in parts:
            times.setdefault(key, []).append(seconds)
    return sum(work.values()) / sum(statistics.median(t) for t in times.values())


def end_to_end(wl, workdir: Path, seconds: float, cores: CoreRotation):
    tally = Tally()
    warm = Tally()
    run_op(wl, wl.smallest_op(), -1, None, warm)
    tally.absorb(warm)
    measured = Tally()
    setup = []
    with wl.timing():
        for _ in range(SETUP_SAMPLES):
            cores.step()
            setup += setup_samples(wl, workdir, 1, importtime=False, tally=tally)
            run_pass(wl, measured, cores, seconds=seconds / SETUP_SAMPLES)
    tally.absorb(measured)
    d = measured.durations
    metrics = {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "work_per_s": work_per_s(measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"samples": len(d), "setup_samples": [s["wall_s"] for s in setup],
             "op_s_p50": statistics.median(d), "kinds": len({op.kind for op in measured.ops})}
    p = wl.tail_percentile
    if p is not None:
        extra[f"op_s_p{p}"] = percentile(d, p) if tail_supported(len(d), p) else None
    return metrics, tally, extra


def per_layer(wl, workdir: Path, seconds: float, cores: CoreRotation):
    from tracer import Tracer

    tally = Tally()
    setup = setup_samples(wl, workdir, SETUP_SAMPLES_TRACED, importtime=True, tally=tally)
    tracer = Tracer()
    warm = Tally()
    with tracer.installed():
        run_op(wl, wl.smallest_op(), -1, tracer, warm)    # warm-up, traced for first_call_s
    tally.absorb(warm)
    warm_spans = tracer.arrays()
    first = tracer.spans_named(warm_spans, "optimizer.optimize")
    first_call_s = 0.0
    if len(first):
        first_call_s = float(warm_spans["t1_ns"][first[0]] - warm_spans["t0_ns"][first[0]]) * 1e-9

    untraced = Tally()
    run_pass(wl, untraced, cores, seconds=seconds / 2)
    traced = Tally()
    with tracer.installed():
        run_pass(wl, traced, cores, count=len(untraced.durations), tracer=tracer)
    spans = tracer.arrays()
    tally.absorb(untraced)
    tally.absorb(traced)

    check_identities(tracer, spans, traced.ops)
    totals = tracer.totals(spans)
    m: dict[str, float] = {}
    for name in _COUNTED:
        m[f"{name}.calls"] = totals[name]["calls"]
    for name in _COUNTED + _TIMED_ONLY:
        m[f"{name}.self_s"] = totals[name]["self_s"]
    opt, sim = totals["optimizer.optimize"], totals["simulator.simulate"]
    results = list(tracer.optimize_results.values())
    evaluations = sum(e for e, _ in results)
    rounds = sum(tracer.simulate_rounds.values())
    fkr_calls = totals["security.finite_key_rate"]["calls"]
    parse_calls = totals["ingest.parse_tally_csv"]["calls"]
    m.update({
        "optimizer.optimize.busy_s": opt["busy_s"],
        "optimizer.evaluations": evaluations,
        "optimizer.evaluations_per_point": evaluations / len(results) if results else 0.0,
        "optimizer.infeasible_share": sum(not f for _, f in results) / len(results) if results else 0.0,
        "optimizer.first_call_s": first_call_s,
        "security.zero_rate_share": tracer.zero_rates / fkr_calls if fkr_calls else 0.0,
        "simulator.simulate.busy_s": sim["busy_s"],
        "simulator.rounds": rounds,
        "simulator.rounds_per_busy_s": rounds / sim["busy_s"] if sim["busy_s"] else 0.0,
        "ingest.parse_tally_csv.bytes": tracer.parse_bytes,
        "ingest.rejected_share": tracer.parse_rejected / parse_calls if parse_calls else 0.0,
        "setup.import_s": statistics.median(s.get("import_s", 0.0) for s in setup),
        "setup.import_optimizer_s": statistics.median(s["import_optimizer_s"] for s in setup),
        "setup.first_op_s": statistics.median(s.get("first_op_s", 0.0) for s in setup),
        "trace.overhead_share": work_per_s(untraced) / work_per_s(traced) - 1.0,
    })
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz", spans)
    extra = {"samples": len(traced.durations), "spans": len(spans["kind"])}
    return m, tally, extra


def check_identities(tracer, spans, ops) -> None:
    """Exact counts the trace must satisfy; a break means the benchmark is wrong."""
    breaks = []
    kids = tracer.children_count(spans, "optimizer.optimize", "pipeline.expected_key_rate")
    for idx, calls in kids.items():
        evaluations, feasible = tracer.optimize_results[idx]
        # The optimizer re-evaluates its best point once, unless the grid found no key.
        if calls != evaluations + feasible:
            breaks.append(f"optimize span {idx}: {calls} pipeline calls, "
                          f"{evaluations} evaluations, feasible={feasible}")
    merges = tracer.children_count(spans, "simulator.simulate", "simulator.merge")
    for idx, calls in merges.items():
        want = ops[spans["op"][idx]].expect["batches"] - 1
        if calls != want:
            breaks.append(f"simulate span {idx}: {calls} merges, {want + 1} batches")
    requested = sum(op.expect.get("sim_rounds", 0) for op in ops)
    if sum(tracer.simulate_rounds.values()) != requested:
        breaks.append(f"simulated {sum(tracer.simulate_rounds.values())} rounds, requested {requested}")
    parse_calls = len(tracer.spans_named(spans, "ingest.parse_tally_csv"))
    files = sum(op.expect.get("files", 0) for op in ops)
    if parse_calls != files:
        breaks.append(f"{parse_calls} parse_tally_csv calls for {files} files")
    if breaks:
        raise BenchmarkError("trace identity broken: " + "; ".join(breaks))


# --- report -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pmqkd" / "cli.py").is_file():
        print(f"error: no package to measure at {SRC / 'pmqkd'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PMQKD_CONFIG", None)
    import pmqkd

    if Path(pmqkd.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: pmqkd imported from {pmqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from provenance import provenance
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        cores = CoreRotation()
        try:
            if args.trace:
                metrics, tally, extra = per_layer(wl, Path(tmp), args.seconds, cores)
            else:
                metrics, tally, extra = end_to_end(wl, Path(tmp), args.seconds, cores)
        except BenchmarkError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 3
        finally:
            cores.restore()
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": wl.params(), "provenance": provenance(), "result": result,
        "extra": extra, "failed_share": tally.failed / tally.attempted,
        "failures": tally.failures[:50],
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"pmqkd benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"params: {json.dumps(record['params'])}")
    print(f"{wl.name}.failed_share = {record['failed_share']!r} share "
          f"({tally.failed} of {tally.attempted} operations)")
    for line in tally.failures[:10]:
        print(f"  FAILED {line[:400]}")
    for name, unit in units.items():
        print(f"{wl.name}.{name} = {metrics[name]!r} {unit}{_note(wl, name, extra)}")
    if not args.trace:
        n = extra["samples"]
        print(f"{wl.name}.{wl.latency_name}_p50 = {extra['op_s_p50']!r} s (n={n}; median of "
              f"all operations, {extra['kinds']} kinds; ungated)")
        p = wl.tail_percentile
        if p is not None:
            value = extra[f"op_s_p{p}"]
            print(f"{wl.name}.{wl.latency_name}_p{p} = {value!r} s (n={n}; ungated"
                  + ("" if value is not None else f"; fewer than {TAIL_BEYOND} samples beyond")
                  + ")")
    print(json.dumps(result))
    return 0


def _note(wl, name: str, extra: dict) -> str:
    if name == "work_per_s":
        return (f" ({wl.throughput_name}: {wl.work_unit} per second, {extra['kinds']} kinds of "
                f"operation at their parts' median times; n={extra['samples']})")
    if name == "setup_s":
        return " (median of fresh interpreters: " + ", ".join(
            f"{s:.3f}" for s in extra["setup_samples"]) + ")"
    return ""


if __name__ == "__main__":
    sys.exit(main())
