"""Summarise parent/change benchmark pairs into one BENCH_*.json.

    python scripts/bench_pairs.py PARENT_OUT CHANGE_OUT --output BENCH_<commit>.json

PARENT_OUT and CHANGE_OUT are the `.bench_out/` directories that
`benchmarks/run.py --trace 0` filled in a checkout of each side.  Runs are
paired by workload and seed; a seed measured on one side only is ignored.
For each end-to-end metric of BENCHMARK.json the summary holds both sides'
runs, medians and quartiles, the pairs the change won (ties count for
neither), the relative change of the median, whether the change stays
within the metric's bound, and whether it shows a gain: won at least nine
tenths of the pairs, with the medians further apart than the parent's
quartiles.  Each pair records which side ran first, read from the result
files' modification times.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE = ("cores", "cores_usable", "cpu_model", "platform", "python", "numpy", "scipy")


def load_runs(out_dir: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(out_dir.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        record["mtime"] = path.stat().st_mtime
        runs[(record["workload"], record["seed"])] = record
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    return {
        "parent": p, "change": c, "pairs_won": won,
        "median_change": c["median"] / p["median"] - 1.0,
        "within_bound": -gain <= bound * abs(p["median"]),
        "gain_shown": won >= 0.9 * len(parent) and gain > p["q3"] - p["q1"],
    }


def summarise(parent_out: Path, change_out: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_out), load_runs(change_out)
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no workload and seed was measured on both sides")
    workloads: dict[str, dict] = {}
    for name in dict.fromkeys(wl for wl, _ in keys):
        pairs = [(parent[k], change[k]) for k in keys if k[0] == name]
        entry = {
            "seeds": [p["seed"] for p, _ in pairs],
            "seconds": sorted({r["seconds"] for pair in pairs for r in pair}),
            "parent_first": [p["mtime"] < c["mtime"] for p, c in pairs],
            "failed": {"parent": sum(p["result"]["failed"] for p, _ in pairs),
                       "change": sum(c["result"]["failed"] for _, c in pairs)},
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
    parser.add_argument("parent_out", type=Path)
    parser.add_argument("change_out", type=Path)
    parser.add_argument("--output", "-o", type=Path, required=True)
    args = parser.parse_args(argv)
    summary = summarise(args.parent_out, args.change_out)
    args.output.write_text(json.dumps(summary, indent=1) + "\n")
    for name, entry in summary["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name}.{metric}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['median_change']:+.1%}), won {m['pairs_won']}/{len(entry['seeds'])}, "
                  f"gain shown {m['gain_shown']}, within bound {m['within_bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
