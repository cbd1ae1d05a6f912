"""Command-line surface.

Subcommands: keyrate, scan, simulate, reproduce, optimize.  Each
defines only the options it reads, so an option it would ignore is a usage
error.  A key=value config file (``--config`` or the ``PMQKD_CONFIG``
environment variable) supplies defaults that explicit flags override: the
command line is parsed, the file's entries for the command are inserted right
after the subcommand, and the result is parsed again.  Outputs are data only
(CSV or JSON), never rendered plots.

Every command exits nonzero on error with a one-line diagnostic of the form
``pmqkd: error [<code>] <message>``; codes are listed in ``--help``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from decimal import Decimal

from . import defaults
from .channel import ChannelSpec
from .errors import DomainError, PmqkdError
from .ingest import (
    load_bundled_record,
    parse_flag,
    parse_tally_csv,
    reproduce_key_rate,
    result_to_json,
    write_tally_csv,
)
from .numerics import _require_count
from .optimizer import SearchBounds, optimize
from .pipeline import expected_key_rate
from .security import KeyRateResult, SecurityBudget, _check_slices
from .simulator import DEFAULT_BATCH_SIZE, ProtocolParams, simulate

EXIT_CODES = {
    "usage": 2,
    "domain": 3,
    "schema": 4,
    "no-data": 5,
    "undefined-rate": 6,
    "internal": 70,
}

MAX_RANGE_POINTS = 10**6  # a scan range holds at most this many points

_EPILOG = (
    "error codes: "
    + ", ".join(f"{code}={num}" for code, num in EXIT_CODES.items())
    + "\nconfig file: key=value lines (long option names with dashes or "
    "underscores); flags override it.  Default path: $PMQKD_CONFIG."
)


def _add_channel_args(p: argparse.ArgumentParser, loss: bool = True) -> None:
    """The detector options, plus the one-point loss and the attenuation."""
    g = p.add_argument_group("channel")
    if loss:
        one_of = g.add_mutually_exclusive_group()
        one_of.add_argument("--loss-db", type=float, default=None,
                            help="total channel loss in dB (split over both arms)")
        one_of.add_argument("--distance-km", type=float, default=None,
                            help="total fiber length; converted at --alpha dB/km")
    g.add_argument("--alpha", type=float, default=defaults.ALPHA_DB_PER_KM,
                   help="attenuation coefficient in dB/km")
    _add_detector_args(g)
    g.add_argument("--e-d", type=float, default=defaults.E_D,
                   help="misalignment error probability")


def _add_detector_args(g) -> None:
    """The detector options of every command that models the detectors."""
    g.add_argument("--eta-d", type=float, default=defaults.ETA_D,
                   help="detector efficiency")
    g.add_argument("--p-d", type=float, default=defaults.P_D,
                   help="dark count probability per pulse per detector")


def number(text: str) -> int | float:
    """A number as typed, integral ones as ints (8.0 is 8), for a rule to judge.
    Named for argparse's message on a word that is no number."""
    value = float(text)
    return int(value) if value.is_integer() else value


class _StoreFixedPs(argparse.Action):
    """Stores --p-s and notes that it was given, which --optimize-ps refuses."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.p_s_given = True


def _add_protocol_args(p: argparse.ArgumentParser, mu: bool = True) -> None:
    g = p.add_argument_group("protocol")
    if mu:
        g.add_argument("--mu", type=float, default=None,
                       help="total pulse intensity (mu_a = mu_b = mu/2)")
    g.add_argument("--m-slices", type=number, default=defaults.M_SLICES,
                   help="number of random phase slices (6 or 8)")
    g.add_argument("--n-rounds", type=float, default=defaults.N_ROUNDS,
                   help="number of rounds N")
    g.add_argument("--p-s", type=float, default=defaults.P_S, action=_StoreFixedPs,
                   help="sampling fraction for parameter estimation")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("security budget")
    g.add_argument("--f-ec", type=float, default=defaults.F_EC,
                   help="error correction efficiency factor (>= 1)")
    g.add_argument("--eps", type=float, default=defaults.EPS_CHERNOFF,
                   help="Chernoff failure probability per application")
    g.add_argument("--eps-ka", type=float, default=defaults.EPS_KATO,
                   help="Kato bound failure probability")
    g.add_argument("--xi", type=float, default=defaults.XI,
                   help="privacy amplification surplus bits")
    g.add_argument("--xi-prime", type=float, default=defaults.XI_PRIME,
                   help="error verification bits")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("output")
    g.add_argument("--output", "-o", default=None,
                   help="write the full result to this path in --format "
                        "(without it, only the summary lines are printed)")
    g.add_argument("--format", choices=("csv", "json"), default="json",
                   help="serialization format of --output")


def _channel_from(args, distance_km: float | None = None) -> ChannelSpec:
    """The channel of args; a scan point passes its own distance."""
    loss_db = None
    if distance_km is None:
        loss_db, distance_km = args.loss_db, args.distance_km
        if loss_db is None and distance_km is None:
            raise DomainError("one of --loss-db / --distance-km is required")
    return ChannelSpec(
        eta_d=args.eta_d, p_d=args.p_d, e_d=args.e_d,
        total_loss_db=loss_db, distance_km=distance_km,
        alpha_db_per_km=args.alpha,
    )


def _budget_from(args) -> SecurityBudget:
    return SecurityBudget(eps=args.eps, eps_ka=args.eps_ka, xi=args.xi,
                          xi_prime=args.xi_prime)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"--{name.replace('_', '-')} is required")


def _require_jobs(args) -> None:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def _range_points(start: float, stop: float, step: float, flags: str) -> list[float]:
    """start, start + step, ... up to stop, as the decimal values typed.

    The point count is fixed once, from the decimal forms of the bounds, so
    a stop of 0.3 in steps of 0.1 is reached, and each point is computed
    from start rather than accumulated, so no rounding error builds up.  A
    non-finite, empty or oversized range is a domain error.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"--step must be finite and > 0, got {step}")
    if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
        raise DomainError(f"{flags} must be finite with min <= max, got {start}, {stop}")
    lo, hi, inc = (Decimal(repr(v)) for v in (start, stop, step))
    count = int((hi - lo) / inc) + 1
    if count > MAX_RANGE_POINTS:
        raise DomainError(f"{flags} in steps of {step} give {count} points, "
                          f"more than {MAX_RANGE_POINTS}")
    return [float(lo + i * inc) for i in range(count)]


@contextlib.contextmanager
def _file_errors(flag: str, path: str, verb: str) -> Iterator[None]:
    """Report an OSError on the file a flag names as a domain error naming both."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"{flag}: cannot {verb} {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _output_first(path: str | None) -> Iterator[None]:
    """Open --output for writing before the work; undo that if the work fails.

    An unwritable path then fails before anything is computed.  Opening
    appends nothing, so a file that was there is left as it was.  A file the
    probe created is removed at once, so the work's write creates it rather
    than truncating an empty placeholder (a truncating reopen makes ext4
    flush on close), and a failed command leaves no output file behind.
    """
    if path is None:
        yield
        return
    existed = os.path.lexists(path)
    with _file_errors("--output", path, "write"):
        open(path, "a").close()
    if not existed:
        with contextlib.suppress(OSError):
            os.remove(path)
    try:
        yield
    except BaseException:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _emit(text: str, path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with _file_errors("--output", path, "write"), open(path, "w") as fh:
            fh.write(text)


def _result_lines(result) -> str:
    return (
        f"rate      R   = {result.rate:.6e}\n"
        f"key bits  ell = {result.ell:.6e}\n"
        f"sifted    n   = {result.n_mu:.6e}\n"
        f"QBER      E_b = {result.e_b:.6e}\n"
        f"phase err     = {result.ep_m:.6e} (with concentration: {result.ep_m_bar:.6e})"
    )


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, repr(value)))


def _serialize_result(result, fmt: str) -> str:
    if fmt == "json":
        return result_to_json(result)
    rows: list[tuple[str, str]] = []
    _flatten("", result.to_dict(), rows)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows)


def cmd_keyrate(args) -> int:
    _require(args, "mu")
    channel = _channel_from(args)
    result = expected_key_rate(
        channel, args.mu, m_slices=args.m_slices, n_rounds=args.n_rounds,
        p_s=args.p_s, f=args.f_ec, budget=_budget_from(args),
    )
    if args.output:
        _emit(_serialize_result(result, args.format), args.output)
    print(_result_lines(result))
    return 0


def _run_results(
    channels: list[ChannelSpec], *, n_rounds: float, m_slices: int, p_s: float,
    f: float, budget: SecurityBudget, mu: float | None, optimize_ps: bool,
) -> list[KeyRateResult]:
    """The chain result at each point of a run, in order: fixed mu, or optimized.

    Each optimization after the first starts from the optimum before it.
    """
    if mu is not None:
        return [expected_key_rate(channel, mu, m_slices=m_slices, n_rounds=n_rounds,
                                  p_s=p_s, f=f, budget=budget) for channel in channels]
    results, previous = [], None
    for channel in channels:
        previous = optimize(channel, n_rounds, m_slices, budget=budget, f=f,
                            fixed_p_s=None if optimize_ps else p_s, previous=previous)
        results.append(previous.result)
    return results


def _point_results(args, channels: list[ChannelSpec], optimize_ps: bool,
                   jobs: int) -> Iterator[KeyRateResult]:
    """The chain result at each channel, in order, over at most jobs workers.

    Each worker takes one contiguous run of the points, so each of its
    optimizations starts from a near neighbour's optimum.
    """
    run = functools.partial(
        _run_results, n_rounds=args.n_rounds, m_slices=args.m_slices,
        p_s=args.p_s, f=args.f_ec, budget=_budget_from(args), mu=args.mu,
        optimize_ps=optimize_ps,
    )
    if jobs == 1:
        yield from run(channels)
        return
    # Only a parallel scan pays for loading multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    # The fork start method launches every worker up front: never more than
    # there are points.
    workers = min(jobs, len(channels))
    cuts = [k * len(channels) // workers for k in range(workers + 1)]
    runs = [channels[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(run, runs):  # map keeps order
            yield from results


def cmd_scan(args) -> int:
    _require(args, "d_min", "d_max", "step")
    _require_jobs(args)
    if args.mu is not None and args.optimize_ps:
        raise DomainError("--optimize-ps cannot be combined with a fixed --mu")
    distances = _range_points(args.d_min, args.d_max, args.step, "--d-min/--d-max")
    channels = [_channel_from(args, distance_km=d) for d in distances]
    results = _point_results(args, channels, args.optimize_ps, args.jobs)
    header = ["distance_km", "loss_db", "mu", "p_s", "rate"]
    if args.detail:
        header += ["vacuum_term", "multiphoton_term",
                   *(f"delta_{k}" for k in range(0, args.m_slices, 2)),
                   "ep_m", "kato_delta", "ep_m_bar"]
    lines = [",".join(header)]
    for d_km, res in zip(distances, results):
        row = [d_km, d_km * args.alpha, res.mu, res.p_s, res.rate]
        if args.detail:
            b = res.breakdown
            row += [b.vacuum_term, b.multiphoton_term, *b.deviations, b.ep_m,
                    b.kato_delta, b.ep_m_bar]
        lines.append(",".join(map(repr, row)))
    _emit("\n".join(lines), args.output)
    return 0


def cmd_simulate(args) -> int:
    _require(args, "mu", "output")
    _require_jobs(args)
    n_rounds = _require_count("--n-rounds", "n_rounds", args.n_rounds, least=1)
    channel = _channel_from(args)
    params = ProtocolParams(
        mu=args.mu, m_slices=args.m_slices, n_rounds=n_rounds,
        p_s=args.p_s, channel=channel,
    )
    tally = simulate(params, args.seed, batch_size=args.batch_size)
    with _file_errors("--output", args.output, "write"):
        write_tally_csv(tally, args.output, loss_db=channel.loss_db())
    q = tally.n_det / tally.n_rounds
    print(f"simulated {tally.n_rounds} rounds: n_det={tally.n_det} "
          f"(gain {q:.3e}), doubles={tally.n_double}, "
          f"sifted={tally.n_sifted}, sampled errors={tally.m_s}")
    print(f"tally written to {args.output}")
    return 0


def cmd_reproduce(args) -> int:
    if args.input is None and args.bundled is None:
        raise DomainError("one of --input / --bundled is required")
    if args.input is not None:
        with _file_errors("--input", args.input, "read"):
            record = parse_tally_csv(args.input)
    else:
        record = load_bundled_record(args.bundled)
    result = reproduce_key_rate(
        record, budget=_budget_from(args), f=args.f_ec, eta_d=args.eta_d, p_d=args.p_d,
    )
    if args.output:
        _emit(_serialize_result(result, args.format), args.output)
    print(f"dataset: {record.source} ({record.loss_db} dB, mu={record.tally.mu})")
    if result.m_s_reconstructed:
        print(f"note: sampled error count reconstructed from the QBER "
              f"(m_s = {result.m_s:.0f})")
    print(_result_lines(result))
    return 0


def cmd_optimize(args) -> int:
    channel = _channel_from(args)
    bounds = SearchBounds(mu=(args.mu_min, args.mu_max))
    opt = optimize(
        channel, args.n_rounds, args.m_slices, budget=_budget_from(args),
        bounds=bounds, f=args.f_ec,
        fixed_p_s=None if args.optimize_ps else args.p_s,
    )
    if args.output:
        payload = {
            "mu_opt": opt.mu_opt, "p_s_opt": opt.p_s_opt,
            "rate_opt": opt.rate_opt, "evaluations": opt.evaluations,
            "feasible": opt.feasible,
            "trace": [list(t) for t in opt.trace] if args.trace else None,
        }
        _emit(json.dumps(payload, indent=2), args.output)
    print(f"mu_opt   = {opt.mu_opt:.6e}")
    print(f"p_s_opt  = {opt.p_s_opt:.6f}")
    print(f"rate_opt = {opt.rate_opt:.6e}")
    print(f"evaluations = {opt.evaluations}, feasible = {opt.feasible}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmqkd",
        description="Finite-key analysis, Monte Carlo simulation and data "
                    "reproduction for phase-matching QKD without intensity "
                    "modulation.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None,
                        help="key=value config file (default: $PMQKD_CONFIG)")
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.set_defaults(commands=sub.choices)  # name -> subparser, for the config

    p = sub.add_parser("keyrate", help="single-point finite-key rate with "
                                       "full breakdown")
    _add_channel_args(p); _add_protocol_args(p); _add_budget_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("scan", help="rate vs distance curve "
                                    "(CSV: distance_km,loss_db,mu,p_s,rate)")
    _add_channel_args(p, loss=False); _add_protocol_args(p); _add_budget_args(p)
    p.add_argument("--output", "-o", help="CSV output path (default: stdout)")
    p.add_argument("--d-min", type=float, help="start distance, km (required)")
    p.add_argument("--d-max", type=float, help="end distance, km (required)")
    p.add_argument("--step", type=float, help="distance step, km (required)")
    p.add_argument("--optimize-ps", action="store_true",
                   help="co-optimize p_s instead of keeping --p-s fixed")
    p.add_argument("--jobs", type=int, default=1, help="parallel scan workers")
    p.add_argument("--detail", action="store_true",
                   help="append each point's phase-error breakdown (vacuum_term,"
                        "multiphoton_term,delta_0,...,delta_{M-2},ep_m,kato_delta,"
                        "ep_m_bar); with --alpha 1 the distances are losses in dB")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simulate", help="Monte Carlo run; writes a tally CSV")
    _add_channel_args(p); _add_protocol_args(p)
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                   help="rounds per RNG batch, each one multinomial draw (part "
                        "of the deterministic stream layout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; batches run in-process "
                        "and the output never depends on it")
    p.add_argument("--output", "-o", help="tally CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="key rate from an ingested tally CSV")
    _add_budget_args(p)
    p.add_argument("--input", "-i", default=None, help="tally CSV path")
    p.add_argument("--bundled", type=int, choices=sorted(defaults.BUNDLED_TALLIES),
                   default=None, help="use a packaged reference dataset (dB)")
    _add_detector_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("optimize", help="best (mu, p_s) at one channel point")
    _add_channel_args(p); _add_protocol_args(p, mu=False); _add_budget_args(p)
    p.add_argument("--mu-min", type=float, default=defaults.MU_BOUNDS[0],
                   help="lower end of the mu search")
    p.add_argument("--mu-max", type=float, default=defaults.MU_BOUNDS[1],
                   help="upper end of the mu search")
    p.add_argument("--optimize-ps", action="store_true",
                   help="co-optimize p_s instead of keeping --p-s fixed")
    p.add_argument("--trace", action="store_true",
                   help="include the evaluation trace in the JSON output")
    p.add_argument("--output", "-o", default=None, help="JSON output path")
    p.set_defaults(func=cmd_optimize)

    return parser


def _config_tokens(parser: argparse.ArgumentParser, args: argparse.Namespace,
                   path: str) -> list[str]:
    """The config file's entries as tokens of args.cmd, the command line's parse.

    A key the running subcommand does not define is skipped when another
    subcommand defines it, so one file can serve every command.  A key that
    no subcommand defines is a usage error, and so is ``help``, which would
    print usage and compute nothing.  A switch takes true/false, 1/0 or
    yes/no.  A configured loss is skipped when the command line gave one, so
    ``--distance-km`` overrides a configured ``loss_db``.
    """
    if not os.path.exists(path):
        raise DomainError(f"config file not found: {path}")
    commands = parser.get_default("commands")
    options = commands[args.cmd]._option_string_actions
    gave_loss = (getattr(args, "loss_db", None) is not None
                 or getattr(args, "distance_km", None) is not None)
    tokens: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            action = options.get(flag)
            if action is None:
                if not any(flag in p._option_string_actions for p in commands.values()):
                    parser.error(f"config key {key!r} is not an option of any command")
            elif action.dest == "help":
                parser.error(f"config key {key!r} asks for help; use --help on the command line")
            elif action.nargs == 0:
                try:
                    on = parse_flag(value)
                except ValueError:
                    parser.error(f"config key {key!r} takes true/false, 1/0 or "
                                 f"yes/no, got {value!r}")
                if on:
                    tokens.append(flag)
            elif not (gave_loss and action.dest in ("loss_db", "distance_km")):
                tokens.extend([flag, value])
    return tokens


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        # A configured p_s is a default, which --optimize-ps replaces; a
        # --p-s on the command line is a choice it would ignore.
        p_s_flag = getattr(args, "p_s_given", False)
        path = args.config or os.environ.get("PMQKD_CONFIG")
        if path:
            # Only --config (--config PATH, or --config=PATH and abbreviations)
            # precedes the command.  The config goes right after the command,
            # so the command line's own flags override it.
            at = 0
            while argv[at].startswith("-"):
                at += 1 if "=" in argv[at] else 2
            argv[at + 1:at + 1] = _config_tokens(parser, args, path)
            args = parser.parse_args(argv)
        if p_s_flag and getattr(args, "optimize_ps", False):
            raise DomainError("--optimize-ps cannot be combined with a fixed --p-s")
        if hasattr(args, "m_slices"):  # the chain's rule, for every command that has it
            _check_slices("--m-slices", args.m_slices)
        with _output_first(args.output):
            return args.func(args)
    except PmqkdError as exc:
        sys.stderr.write(f"pmqkd: error [{exc.code}] {exc}\n")
        return EXIT_CODES.get(exc.code, EXIT_CODES["internal"])
    except ArithmeticError as exc:
        sys.stderr.write(f"pmqkd: error [internal] {exc}\n")
        return EXIT_CODES["internal"]


if __name__ == "__main__":
    sys.exit(main())
