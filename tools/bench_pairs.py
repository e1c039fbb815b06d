"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --run equiv:1 --run equiv:2 --pairs 10 --out BENCH_N.json \\
        --title "..." --claim equiv:wall_s:1

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0` once in each checkout, from its root, one run at a time; the
parent goes first in even-numbered pairs and the change in odd ones.  The
last stdout line of a run is its JSON result.  The output file holds both
commits, every run (`runs`) and, per workload and seed, the median and
inclusive quartiles of each end-to-end metric on each side, with the number
of pairs in which the change was lower and higher (`summary`).

Each end-to-end metric of the change checkout's BENCHMARK.json also gets
`worse_than_bound`: whether the change's median is worse than the parent's,
in the metric's `better` direction, by more than its `bound`, taken
relative to the parent's median for metrics in s and MB and absolute for
fractions.  With --claim the claimed metric gets `claim_met`: the change is
better in at least nine tenths of the pairs (ties count for neither side)
and the medians differ, in its favour, by more than the parent's q3 - q1.
--notes merges the keys of a JSON object into the output, for figures
measured some other way.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 30
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no result from {' '.join(cmd)}:\n{proc.stderr}")
    res = json.loads(lines[-1])
    out = {k: res[k] for k in ("correct", "attempted", "failed")}
    out.update({name: m["value"] for name, m in res["metrics"].items()})
    return out


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def worse_than_bound(stats: dict, spec: dict) -> bool:
    """The change's median is worse than the parent's by more than the
    metric's bound: relative for s and MB, absolute for fractions."""
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    worse_by = change - parent if spec["better"] == "lower" else parent - change
    allowed = spec["bound"] if spec["unit"] == "fraction" else spec["bound"] * abs(parent)
    return worse_by > allowed


def claim_met(stats: dict, better: str, pairs: int) -> bool:
    """Better in at least nine tenths of the pairs, and the medians apart,
    in the change's favour, by more than the parent's interquartile range."""
    lower = better == "lower"
    wins = stats["change_lower_in_pairs" if lower else "change_higher_in_pairs"]
    parent, change = stats["parent"], stats["change"]["median"]
    gain = parent["median"] - change if lower else change - parent["median"]
    return 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]


def summarize(runs: list[dict], bounds: dict[str, dict]) -> dict:
    metrics = [k for k in runs[0]["parent"] if k not in ("correct", "attempted", "failed")]
    out = {"pairs": len(runs),
           "all_correct": all(r[s]["correct"] for r in runs for s in SIDES),
           "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES}}
    for m in metrics:
        out[m] = {s: quartiles([r[s][m] for r in runs]) for s in SIDES}
        out[m]["change_lower_in_pairs"] = sum(r["change"][m] < r["parent"][m] for r in runs)
        out[m]["change_higher_in_pairs"] = sum(r["change"][m] > r["parent"][m] for r in runs)
        if m in bounds:
            out[m]["worse_than_bound"] = worse_than_bound(out[m], bounds[m])
    return out


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED",
                    help="a workload and seed to pair; repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--title", default="")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:SEED",
                    help="the workload, metric and seed a speed-up is claimed on")
    ap.add_argument("--notes", type=Path, help="JSON object merged into the output")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    bounds = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    runs, summary = [], {}
    for spec in args.run:
        workload, seed = spec.split(":")
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": int(seed), "pair": i, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, int(seed))
            print(f"{workload}:{seed} pair {i}: wall_s parent {pair['parent']['wall_s']:.4f}"
                  f" change {pair['change']['wall_s']:.4f}", file=sys.stderr)
            pairs.append(pair)
        runs += pairs
        summary[f"{workload}:seed{seed}"] = summarize(pairs, bounds)
    out = {"title": args.title, "parent_commit": git_head(checkouts["parent"]),
           "change_commit": git_head(checkouts["change"]),
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
           "protocol": "alternating pairs, parent first in even-numbered pairs and change "
                       f"first in odd ones; {args.pairs} pairs per workload and seed"}
    if args.claim:
        workload, metric, seed = args.claim.split(":")
        stats = summary[f"{workload}:seed{seed}"]
        out["claim"] = {"workload": workload, "metric": metric, "seed": int(seed),
                        "claim_met": claim_met(stats[metric], bounds[metric]["better"],
                                               stats["pairs"])}
    out["summary"] = summary
    out["runs"] = runs
    if args.notes:
        out.update(json.loads(args.notes.read_text()))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
