"""Run parent/change benchmark pairs and summarise them into one BENCH_*.json.

    python scripts/bench_pairs.py PARENT CHANGE --workloads curves ingest \
        --seeds 511-520 [--seconds 30] [--output BENCH_<commit>.json]

PARENT and CHANGE are checkouts.  For each workload and seed,
`benchmarks/run.py --trace 0` runs once in each checkout, the two sides
alternating: the parent first on the odd pairs (the first, the third, ...)
and the change first on the even ones.  Each result is read from the
checkout's `.bench_out/` as soon as its run ends, so one checkout may stand
on both sides.  The summary records the order the pairs were run in.

For each end-to-end metric of BENCHMARK.json the summary holds both sides'
runs, medians and quartiles, the pairs the change won (ties count for
neither), the relative change of the median, whether the change stays
within the metric's bound, whether that is unresolved, and whether it shows
a gain: won at least nine tenths of the pairs, with the medians further
apart than the parent's quartiles.  A metric is unresolved when the
parent's quartiles lie further apart than the bound allows, unless every
run of the change beats every run of the parent: its runs then cannot tell
a change of the bound's size from noise.  Beside them it carries each
run's operation count (the record's extra.samples), since the harness
keeps records per operation and peak_rss_mb grows with their number.  The output defaults to
BENCH_<change commit>.json in the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE = ("cores", "cores_usable", "cpu_model", "platform", "python", "numpy", "scipy")


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py --trace 0` run in checkout, and its result record."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed in {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def run_pairs(parent: Path, change: Path, workloads: list[str], seeds: list[int],
              seconds: float) -> tuple[dict, dict, dict]:
    """Both sides' records, keyed by (workload, seed), and which side ran first."""
    runs: tuple[dict, dict] = ({}, {})
    parent_first = {}
    for workload in workloads:
        for pair, seed in enumerate(seeds, start=1):
            key = (workload, seed)
            parent_first[key] = pair % 2 == 1
            order = (0, 1) if parent_first[key] else (1, 0)
            for side in order:
                runs[side][key] = record = run_one((parent, change)[side], workload,
                                                   seed, seconds)
                work = record["result"]["metrics"]["work_per_s"]["value"]
                print(f"{workload} seed {seed} {('parent', 'change')[side]}: "
                      f"work_per_s {work:.6g}", flush=True)
    return runs[0], runs[1], parent_first


def parse_seeds(text: str) -> list[int]:
    """'511-520' or '511,515,519'."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    every_run_better = min(sign * b for b in change) > max(sign * a for a in parent)
    return {
        "parent": p, "change": c, "pairs_won": won,
        "median_change": c["median"] / p["median"] - 1.0,
        "within_bound": -gain <= bound * abs(p["median"]),
        "unresolved": p["q3"] - p["q1"] > bound * abs(p["median"]) and not every_run_better,
        "gain_shown": won >= 0.9 * len(parent) and gain > p["q3"] - p["q1"],
    }


def summarise(parent: dict, change: dict, parent_first: dict) -> dict:
    """The summary of both sides' records, keyed alike by (workload, seed)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = list(parent)
    workloads: dict[str, dict] = {}
    for name in dict.fromkeys(wl for wl, _ in keys):
        pairs = [(parent[k], change[k]) for k in keys if k[0] == name]
        entry = {
            "seeds": [p["seed"] for p, _ in pairs],
            "seconds": sorted({r["seconds"] for pair in pairs for r in pair}),
            "parent_first": [parent_first[k] for k in keys if k[0] == name],
            "failed": {"parent": sum(p["result"]["failed"] for p, _ in pairs),
                       "change": sum(c["result"]["failed"] for _, c in pairs)},
            "operations": {side: spread([r["extra"]["samples"] for r in runs])
                           for side, runs in zip(("parent", "change"), zip(*pairs))},
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            values = [[r["result"]["metrics"][metric["name"]]["value"] for r in side]
                      for side in zip(*pairs)]
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"],
                **compare(*values, metric["better"], metric["bound"]),
            }
        workloads[name] = entry
    first_parent, first_change = parent[keys[0]], change[keys[0]]
    return {
        "parent": {k: first_parent["provenance"][k] for k in ("git_commit", "source_sha256")},
        "change": {k: first_change["provenance"][k] for k in ("git_commit", "source_sha256")},
        "machine": {k: first_parent["provenance"][k] for k in MACHINE},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="511-520 or 511,515,519")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--output", "-o", type=Path, default=None,
                        help="default: BENCH_<change commit>.json")
    args = parser.parse_args(argv)
    summary = summarise(*run_pairs(args.parent.resolve(), args.change.resolve(),
                                   args.workloads, args.seeds, args.seconds))
    output = args.output or Path(f"BENCH_{(summary['change']['git_commit'] or 'unknown')[:7]}.json")
    output.write_text(json.dumps(summary, indent=1) + "\n")
    for name, entry in summary["workloads"].items():
        for metric, m in entry["metrics"].items():
            ops = entry["operations"]
            print(f"{name}.{metric}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['median_change']:+.1%}), won {m['pairs_won']}/{len(entry['seeds'])}, "
                  f"gain shown {m['gain_shown']}, within bound {m['within_bound']}"
                  + (" (unresolved)" if m["unresolved"] else "")
                  + (f"; operations per run {ops['parent']['median']:.6g} -> "
                     f"{ops['change']['median']:.6g}" if metric == "peak_rss_mb" else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
