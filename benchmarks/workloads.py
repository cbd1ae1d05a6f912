"""The benchmark's three workloads.

Each workload turns the seed into inputs, lists the operations a single
client runs in a closed loop (every operation is one or more `pmqkd` CLI
calls made in-process through `pmqkd.cli.main`), names its smallest
operation for the set-up probe, and gates every operation's output.

* curves      - `scan` of the rate-vs-distance curves; work in optimizer,
                pipeline, security and numerics.
* montecarlo  - `simulate` -> tally CSV -> `reproduce --input`; work in the
                simulator.
* ingest      - `reproduce --input` on seeded, bundled and malformed tally
                CSVs; work in cli and ingest, one chain evaluation per file.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from provenance import SRC

# Originals, bound before any tracing, so gates never show up in a trace.
from pmqkd.channel import ChannelSpec, gain, qber, transmittance
from pmqkd.defaults import P_D
from pmqkd.ingest import parse_tally_csv
from pmqkd.pipeline import expected_key_rate
from pmqkd.security import SecurityBudget
from pmqkd.simulator import write_tally_csv

import pmqkd.simulator   # tally_to_stats is looked up at call time, so it is traced

EXIT_SCHEMA = 4

# --- curves -----------------------------------------------------------------

CURVE_N = ("1e10", "1e11", "1e12")
CURVE_POINTS = 33                  # 10 .. 330 km plus the seed's offset
CURVE_STEP_KM = 10.0
CURVE_OFFSETS_KM = tuple(0.5 * i for i in range(20))   # halves keep distances exact
CURVE_ALPHA = 0.168
CURVE_M = 8
CURVE_P_S = 0.07
PIPELINE_RTOL = 1e-12
REFERENCE_RTOL = 1e-6


def curve_argv(n_rounds: str, offset: float, out: str, points: int = CURVE_POINTS) -> list[str]:
    d_min = 10.0 + offset
    d_max = d_min + (points - 1) * CURVE_STEP_KM
    return [
        "scan", "--d-min", repr(d_min), "--d-max", repr(d_max),
        "--step", repr(CURVE_STEP_KM), "--n-rounds", n_rounds,
        "--m-slices", str(CURVE_M), "--p-s", repr(CURVE_P_S),
        "--alpha", repr(CURVE_ALPHA), "--jobs", "1", "-o", out,
    ]


def read_scan_csv(path: str) -> list[tuple[float, float, float, float]]:
    """(distance_km, mu, p_s, rate) rows of a `scan` CSV."""
    with open(path) as fh:
        lines = fh.read().split()
    if not lines or lines[0] != "distance_km,loss_db,mu,p_s,rate":
        raise ValueError("scan output has no CSV header")
    rows = []
    for line in lines[1:]:
        d_km, _loss, mu, p_s, rate = (float(v) for v in line.split(","))
        rows.append((d_km, mu, p_s, rate))
    return rows


@dataclass
class Op:
    """One closed-loop operation: its CLI calls, its work, and what the gate needs.

    Operations of one kind do the same amount of work, so their times are
    comparable with each other.
    """

    argvs: list[list[str]]
    work: float
    kind: str
    expect: dict = field(default_factory=dict)


@dataclass
class CallResult:
    code: int | None            # None when main raised instead of returning
    stdout: str
    stderr: str


class Workload:
    name = ""
    work_unit = ""
    # What the report calls the workload's throughput and operation time.
    throughput_name = ""
    latency_name = ""
    tail_percentile: int | None = None

    stream = 0                  # keeps each workload's random inputs independent

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, self.stream])

    def params(self) -> dict:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def smallest_op(self) -> Op:
        raise NotImplementedError

    def before(self, op: Op) -> None:
        """Untimed preparation of one operation (remove stale outputs)."""
        for path in op.expect.get("outputs", ()):
            Path(path).unlink(missing_ok=True)

    def after(self, op: Op, results: list[CallResult]) -> None:
        """Untimed library calls that belong in the trace (none by default)."""

    def timing(self):
        """Context in which parts() can split operations into finer timed parts."""
        return contextlib.nullcontext()

    def parts(self, op: Op, call_s: list[float]) -> list[tuple[str, float]]:
        """(kind, seconds) of the timed parts of one operation; equal kinds do equal work."""
        return [(f"{op.kind}#{j}", t) for j, t in enumerate(call_s)]

    def check(self, op: Op, results: list[CallResult]) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def exit_codes(results: list[CallResult], expected: int = 0) -> list[str]:
        return [
            f"exit code {r.code} (expected {expected}): {r.stderr.strip()[-300:]}"
            for r in results if r.code != expected
        ]


class Curves(Workload):
    name = "curves"
    work_unit = "points"
    throughput_name = "points_per_s"
    latency_name = "curve_s"
    stream = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.offset = float(self.rng.choice(CURVE_OFFSETS_KM))
        self.out = str(workdir / "curve.csv")
        ref_path = Path(__file__).resolve().parent / "reference_curves.json"
        self.reference = json.loads(ref_path.read_text())["curves"]
        self._points: list[tuple[float, float]] = []

    def params(self) -> dict:
        return {
            "n_rounds": list(CURVE_N), "points_per_curve": CURVE_POINTS,
            "d_min_km": 10.0 + self.offset, "step_km": CURVE_STEP_KM,
            "m_slices": CURVE_M, "p_s": CURVE_P_S,
            "alpha_db_per_km": CURVE_ALPHA, "jobs": 1,
        }

    def op(self, i: int) -> Op:
        n_rounds = CURVE_N[i % len(CURVE_N)]
        return Op([curve_argv(n_rounds, self.offset, self.out)], CURVE_POINTS, n_rounds,
                  {"n_rounds": n_rounds, "points": CURVE_POINTS, "outputs": [self.out]})

    def smallest_op(self) -> Op:
        n_rounds = CURVE_N[0]
        return Op([curve_argv(n_rounds, self.offset, self.out, points=1)], 1, "point",
                  {"n_rounds": n_rounds, "points": 1, "outputs": [self.out]})

    @contextlib.contextmanager
    def timing(self):
        """Time each point's optimisation inside a scan.

        A run holds only a few curves of each N, and a slow spell of a shared
        core covers a good part of one; the median of each point over the
        run's curves is much steadier.  One wrapper call per point (tens of
        ms) costs nothing measurable.
        """
        import pmqkd.cli

        optimize = pmqkd.cli.optimize

        def timed(channel, *args, **kwargs):
            t0 = time.perf_counter()
            result = optimize(channel, *args, **kwargs)
            self._points.append((channel.distance_km, time.perf_counter() - t0))
            return result

        pmqkd.cli.optimize = timed
        try:
            yield
        finally:
            pmqkd.cli.optimize = optimize

    def parts(self, op: Op, call_s: list[float]) -> list[tuple[str, float]]:
        points, self._points = self._points, []
        if not points:
            return super().parts(op, call_s)
        rest = sum(call_s) - sum(t for _, t in points)
        return [(f"{op.kind}@{d!r}", t) for d, t in points] + [(f"{op.kind}/rest", rest)]

    def check(self, op: Op, results: list[CallResult]) -> list[str]:
        errors = self.exit_codes(results)
        if errors:
            return errors
        try:
            rows = read_scan_csv(self.out)
        except (OSError, ValueError) as exc:
            return [f"unreadable scan output: {exc}"]
        n_rounds = op.expect["n_rounds"]
        return check_curve(rows, n_rounds, self.offset, op.expect["points"],
                           self.reference[n_rounds])


def check_curve(rows, n_rounds: str, offset: float, points: int, reference: dict) -> list[str]:
    """Gate one scan: never optimistic against the pipeline, and at the recorded optimum."""
    expected_d = [10.0 + offset + i * CURVE_STEP_KM for i in range(points)]
    if [r[0] for r in rows] != expected_d:
        return [f"N={n_rounds}: scan distances {[r[0] for r in rows]} != {expected_d}"]
    errors = []
    budget = SecurityBudget()
    for d_km, mu, p_s, rate in rows:
        channel = ChannelSpec(distance_km=d_km, alpha_db_per_km=CURVE_ALPHA)
        pipe = expected_key_rate(channel, mu, m_slices=CURVE_M, n_rounds=float(n_rounds),
                                 p_s=p_s, budget=budget).rate
        if not abs(rate - pipe) <= PIPELINE_RTOL * abs(pipe):
            errors.append(f"N={n_rounds} d={d_km}: reported rate {rate!r} != pipeline "
                          f"{pipe!r} at mu={mu!r}, p_s={p_s!r}")
        ref = reference[repr(d_km)][2]
        if (rate > 0.0) != (ref > 0.0):
            errors.append(f"N={n_rounds} d={d_km}: feasibility {rate > 0.0} != recorded {ref > 0.0}")
        elif not abs(rate - ref) <= REFERENCE_RTOL * abs(ref):
            errors.append(f"N={n_rounds} d={d_km}: rate {rate!r} != recorded optimum {ref!r}")
    return errors


# --- montecarlo -------------------------------------------------------------

MC_N = 1_500_000
MC_BATCH = 100_000
MC_OPS = 16                 # distinct channel points, cycled with fresh seeds
MC_MIN_MATCHED = 20.0       # expected matched clicks; fewer risks an empty tally
MC_Z_MAX = 5.0


def binomial_z(k: int, n: int, p: float) -> float:
    """Normal score of the exact binomial tail beyond k (signed; 0 at the centre).

    Exact tails keep the false-alarm rate of |z| <= 5 right at small counts,
    where the normal approximation would fire far too often.
    """
    from scipy.stats import binom, norm

    if k >= n * p:
        tail = binom.sf(k - 1, n, p)
        return max(0.0, float(norm.isf(tail)))
    tail = binom.cdf(k, n, p)
    return min(0.0, -float(norm.isf(tail)))


def z_errors(tally, q_emp: float, e_b_emp: float, loss_db: float) -> list[str]:
    """Gate gain, QBER and matched fraction of a simulated tally against the closed forms.

    The gain and QBER are tally_to_stats' (q_emp, e_b_emp); the counts behind
    them set the binomial trial numbers.
    """
    spec = ChannelSpec(total_loss_db=loss_db)
    eta = transmittance(spec)
    matched = tally.total_matched()
    z = {
        "gain": binomial_z(round(q_emp * tally.n_rounds), tally.n_rounds,
                           gain(tally.mu, eta, spec.p_d)),
        "qber": binomial_z(round(e_b_emp * matched), matched,
                           qber(tally.mu, eta, spec.p_d, spec.e_d)),
        "matched_fraction": binomial_z(matched, tally.n_det, 2.0 / tally.m_slices),
    }
    return [f"|z| of {k} is {v:.2f} > {MC_Z_MAX}" for k, v in z.items() if abs(v) > MC_Z_MAX]


class MonteCarlo(Workload):
    name = "montecarlo"
    work_unit = "rounds"
    throughput_name = "rounds_per_s"
    latency_name = "op_s"
    tail_percentile = 90
    stream = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.points = []
        while len(self.points) < MC_OPS:
            loss = float(self.rng.uniform(10.0, 50.0))
            mu = float(10.0 ** self.rng.uniform(-4.0, -2.0))
            m = int(self.rng.choice((6, 8)))
            eta = transmittance(ChannelSpec(total_loss_db=loss))
            if (2.0 / m) * gain(mu, eta, P_D) * MC_N >= MC_MIN_MATCHED:
                self.points.append((round(loss, 6), float(f"{mu:.6g}"), m))
        self.sim_seed = int(self.rng.integers(0, 2**31))
        self.tally = str(workdir / "tally.csv")
        self.rate_json = str(workdir / "rate.json")
        self._stats = None

    def params(self) -> dict:
        return {
            "n_rounds": MC_N, "batch_size": MC_BATCH, "jobs": 1,
            "points": [{"loss_db": l, "mu": mu, "m_slices": m} for l, mu, m in self.points],
            "first_sim_seed": self.sim_seed, "min_expected_matched": MC_MIN_MATCHED,
            "z_max": MC_Z_MAX,
        }

    def op(self, i: int) -> Op:
        loss, mu, m = self.points[i % len(self.points)]
        seed = self.sim_seed + i
        simulate = [
            "simulate", "--loss-db", repr(loss), "--mu", repr(mu), "--m-slices", str(m),
            "--n-rounds", str(MC_N), "--seed", str(seed), "--batch-size", str(MC_BATCH),
            "--jobs", "1", "-o", self.tally,
        ]
        reproduce = ["reproduce", "--input", self.tally, "--format", "json", "-o", self.rate_json]
        return Op([simulate, reproduce], MC_N, "simulate",
                  {"loss_db": loss, "sim_rounds": MC_N, "batches": -(-MC_N // MC_BATCH),
                   "files": 1, "outputs": [self.tally, self.rate_json]})

    def smallest_op(self) -> Op:
        return self.op(0)

    def after(self, op: Op, results: list[CallResult]) -> None:
        self._stats = None
        if results[0].code == 0:
            tally = parse_tally_csv(self.tally).tally
            self._stats = (tally, pmqkd.simulator.tally_to_stats(tally))

    def check(self, op: Op, results: list[CallResult]) -> list[str]:
        errors = self.exit_codes(results)
        if errors:
            return errors
        if self._stats is None:
            return ["tally was not read back"]
        tally, (q_emp, e_b_emp, _n_mu) = self._stats
        errors += check_round_trip(self.tally, tally, results[0].stdout, self.workdir)
        errors += z_errors(tally, q_emp, e_b_emp, op.expect["loss_db"])
        with open(self.rate_json) as fh:
            rate = json.load(fh)["rate"]
        if not (math.isfinite(rate) and rate >= 0.0):
            errors.append(f"reproduced rate {rate!r} is not finite and >= 0")
        return errors


def check_round_trip(path: str, tally, stdout: str, workdir: Path) -> list[str]:
    """The CSV reads back to the counts simulate reported and rewrites byte-identically."""
    errors = []
    summary = {}
    for token in stdout.replace(",", " ").split():
        key, _, value = token.partition("=")
        if value.isdigit():
            summary[key] = int(value)
    reported = {"n_det": tally.n_det, "doubles": tally.n_double,
                "sifted": tally.n_sifted, "errors": tally.m_s}
    if summary != reported:
        errors.append(f"tally CSV counts {reported} != simulate's report {summary}")
    again = workdir / "tally_again.csv"
    loss = float(next(l for l in Path(path).read_text().splitlines() if l.startswith("# loss_db="))[10:])
    write_tally_csv(tally, str(again), loss_db=loss)
    if again.read_bytes() != Path(path).read_bytes():
        errors.append("tally CSV does not round-trip byte-identically")
    return errors


# --- ingest -----------------------------------------------------------------

INGEST_FILES = 48            # 3 bundled + 39 generated + 6 malformed
INGEST_MALFORMED = (
    "missing_n_det", "bad_header", "non_integer_count",
    "negative_count", "unmatched_pair", "metadata_without_equals",
)
BUNDLED_RATES = {35: 3.00e-6, 40: 8.50e-7, 45: 2.25e-7}   # acceptance criterion 2
BUNDLED_RTOL = 0.15
ORACLE_TOL = 1e-9            # key bits per sifted bit: floating-point reassociation


def click_probabilities(mu: float, eta: float, p_d: float, e_d: float, delta: float):
    """P(only D1 clicks), P(only D2 clicks) at phase difference delta, misalignment included."""
    def ports(phi):
        i1 = mu * eta * (1.0 + math.cos(phi)) / 2.0
        i2 = mu * eta - i1
        p1 = 1.0 - (1.0 - p_d) * math.exp(-i1)
        p2 = 1.0 - (1.0 - p_d) * math.exp(-i2)
        return p1 * (1.0 - p2), p2 * (1.0 - p1)

    a1, a2 = ports(delta)
    b1, b2 = ports(delta + math.pi)
    return (1.0 - e_d) * a1 + e_d * b1, (1.0 - e_d) * a2 + e_d * b2


def generate_tally(rng, m: int, loss_db: float, mu: float, n_rounds: int, p_s: float,
                   include_test: bool, with_m_s: bool, with_n_sifted: bool) -> str:
    """A tally CSV with multinomial counts from the closed-form click model."""
    spec = ChannelSpec(total_loss_db=loss_db)
    eta = transmittance(spec)
    half = m // 2
    pairs = [(a, (a + off) % m) for off in (0, half) for a in range(m)]
    probs = []
    for a, b in pairs:
        delta = 0.0 if a == b else math.pi
        probs.extend(click_probabilities(mu, eta, spec.p_d, spec.e_d, delta))
    probs = np.array(probs) / (m * m)
    others = sum(sum(click_probabilities(mu, eta, spec.p_d, spec.e_d, 2 * math.pi * k / m))
                 for k in range(m) if k not in (0, half)) * m / (m * m)
    cells = rng.multinomial(n_rounds, np.append(probs, [others, 1.0 - probs.sum() - others]))
    counts = cells[: 2 * len(pairs)]
    n_det = int(counts.sum() + cells[-2])
    test = rng.binomial(counts, p_s)
    # Wrong-detector clicks: D2 at phase difference 0, D1 at pi.
    error_cells = np.array([(0, 1) if b == a else (1, 0) for a, b in pairs]).ravel()
    m_s = int((test * error_cells).sum())
    n_sifted = int((counts - test).sum())
    rows = (counts if include_test else counts - test).reshape(-1, 2)

    lines = [f"# loss_db={loss_db!r}", f"# N={n_rounds}", f"# mu={mu!r}", f"# p_s={p_s!r}",
             f"# n_det={n_det}", f"# m_slices={m}"]
    if with_m_s:
        lines.append(f"# m_s={m_s}")
    if include_test and with_n_sifted:
        lines.append(f"# n_sifted={n_sifted}")
    lines.append(f"# counts_include_test={'true' if include_test else 'false'}")
    lines.append("phase_a,phase_b,d1_count,d2_count")
    lines += [f"{a},{b},{d1},{d2}" for (a, b), (d1, d2) in zip(pairs, rows)]
    return "\n".join(lines) + "\n"


def malform(text: str, kind: str) -> str:
    """A copy of a valid tally CSV broken in a way the parser rejects (schema error)."""
    lines = text.splitlines()
    header = lines.index("phase_a,phase_b,d1_count,d2_count")
    first = header + 1
    a, b, d1, d2 = lines[first].split(",")
    if kind == "missing_n_det":
        lines = [l for l in lines if not l.startswith("# n_det=")]
    elif kind == "bad_header":
        lines[header] = "phase_a,phase_b,d1,d2"
    elif kind == "non_integer_count":
        lines[first] = f"{a},{b},{d1}.5,{d2}"
    elif kind == "negative_count":
        lines[first] = f"{a},{b},-{int(d1) + 1},{d2}"
    elif kind == "unmatched_pair":
        m = int(next(l for l in lines if l.startswith("# m_slices="))[11:])
        lines[first] = f"{a},{(int(a) + 1) % m},{d1},{d2}"
    elif kind == "metadata_without_equals":
        lines = [l.replace("=", " ", 1) if l.startswith("# mu=") else l for l in lines]
    else:
        raise ValueError(kind)
    return "\n".join(lines) + "\n"


class Ingest(Workload):
    name = "ingest"
    work_unit = "files"
    throughput_name = "files_per_s"
    latency_name = "op_s"
    tail_percentile = 99
    stream = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = str(workdir / "result.json")
        self.files: list[dict] = []
        for db in sorted(BUNDLED_RATES):
            path = SRC / "pmqkd" / "data" / f"table_{db}db.csv"
            self.files.append({"path": str(path), "kind": f"bundled_{db}db",
                               "reference": oracle.key_rate(path.read_text()),
                               "published": BUNDLED_RATES[db]})
        generated = INGEST_FILES - len(BUNDLED_RATES) - len(INGEST_MALFORMED)
        texts = []
        for i in range(generated):
            m = (6, 8)[i % 2]
            include_test = bool(i // 2 % 2)
            with_m_s = bool(i // 4 % 2)
            text = generate_tally(
                self.rng, m=m, loss_db=round(float(self.rng.uniform(30.0, 50.0)), 4),
                mu=float(f"{10.0 ** self.rng.uniform(-3.5, -2.5):.4g}"),
                n_rounds=int(self.rng.choice((10**10, 10**11))),
                p_s=float(self.rng.choice((0.05, 0.07, 0.1))),
                include_test=include_test, with_m_s=with_m_s,
                with_n_sifted=bool(self.rng.integers(0, 2)),
            )
            texts.append(text)
            path = workdir / f"gen_{i:02d}.csv"
            path.write_text(text)
            self.files.append({"path": str(path), "kind": f"generated_m{m}",
                               "reference": oracle.key_rate(text)})
        for j, kind in enumerate(INGEST_MALFORMED):
            path = workdir / f"bad_{j:02d}.csv"
            path.write_text(malform(texts[int(self.rng.integers(0, len(texts)))], kind))
            self.files.append({"path": str(path), "kind": f"malformed_{kind}"})
        self.order = [int(i) for i in self.rng.permutation(len(self.files))]

    def params(self) -> dict:
        return {
            "files": len(self.files),
            "kinds": sorted({f["kind"] for f in self.files}),
            "malformed_share": len(INGEST_MALFORMED) / len(self.files),
            "output": "json", "oracle_tol_bits_per_sifted_bit": ORACLE_TOL,
        }

    def _reproduce(self, f: dict) -> Op:
        return Op([["reproduce", "--input", f["path"], "--format", "json", "-o", self.out]],
                  1, f["path"], {"file": f, "files": 1, "outputs": [self.out]})

    def op(self, i: int) -> Op:
        return self._reproduce(self.files[self.order[i % len(self.order)]])

    def smallest_op(self) -> Op:
        return self._reproduce(self.files[len(BUNDLED_RATES) - 1])     # bundled 45 dB

    def check(self, op: Op, results: list[CallResult]) -> list[str]:
        f = op.expect["file"]
        if "reference" not in f:
            errors = self.exit_codes(results, EXIT_SCHEMA)
            if Path(self.out).exists():
                errors.append(f"{f['kind']}: malformed input produced an output file")
            return errors
        errors = self.exit_codes(results)
        if errors:
            return errors
        with open(self.out) as fh:
            result = json.load(fh)
        return check_ingest_result(f, result)


def check_ingest_result(f: dict, result: dict) -> list[str]:
    """Gate one reproduced rate against the oracle (and the published rate, if bundled)."""
    errors = []
    ref = f["reference"]
    rate = result["rate"]
    tol = ORACLE_TOL * ref["n_mu"] / ref["n_rounds"]
    if not any(abs(rate - r) <= tol for r in ref["rates"]):
        errors.append(f"{f['kind']}: rate {rate!r} != reference {ref['rates']!r} (tol {tol:.3g})")
    if result["m_s_reconstructed"] != ref["m_s_reconstructed"]:
        errors.append(f"{f['kind']}: m_s_reconstructed {result['m_s_reconstructed']} "
                      f"!= {ref['m_s_reconstructed']}")
    if "published" in f and not abs(rate - f["published"]) <= BUNDLED_RTOL * f["published"]:
        errors.append(f"{f['kind']}: rate {rate:.4g} outside 15% of published {f['published']:.4g}")
    return errors


WORKLOADS = {w.name: w for w in (Curves, MonteCarlo, Ingest)}
