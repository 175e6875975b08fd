#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark in alternating pairs.

Usage: scripts/perf_pairs.py <base_tree> <new_tree> --workloads W [W ...]
                             --seed N --seconds S --pairs P

Each tree is a checkout of this repository (for example the parent commit
unpacked with `git archive` next to the working tree). For every workload
the script runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` in each tree P times, swapping which tree goes first on every
pair, so a drift in host load hits both sides alike. run.py builds each
tree into its own `.bench_build/` on first use; nothing else is written.

For each workload and each end-to-end metric of BENCHMARK.json (read from
the repository that holds this script) it prints the median and the lower
and upper quartile of both sides, how many pairs the new tree won (strictly
better in the metric's direction), and the change of the medians. A change
worse than the metric's bound (a relative change, as BENCHMARK.json gives
it) is flagged with "WORSE"; the exit status is 1 when any metric is flagged
or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree, workload, seed, seconds):
    """One untraced run.py invocation in `tree`; returns {metric: value}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"perf_pairs: {workload} failed in {tree} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"perf_pairs: {workload} incorrect in {tree}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def cell(median, q1, q3):
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--pairs", required=True, type=int)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    trees = {"base": os.path.abspath(args.base_tree),
             "new": os.path.abspath(args.new_tree)}

    flagged = 0
    for workload in args.workloads:
        runs = {"base": [], "new": []}
        for i in range(args.pairs):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                runs[side].append(
                    run_once(trees[side], workload, args.seed, args.seconds))
            print(f"  {workload} pair {i + 1}/{args.pairs} done "
                  f"({order[0]} first)", file=sys.stderr)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, "
              f"{args.pairs} pairs; base {trees['base']}, new "
              f"{trees['new']})")
        print(f"{'metric':<16} {'base median [q1, q3]':<36} "
              f"{'new median [q1, q3]':<36} {'wins':>6} {'change':>9}")
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            base = [r[name] for r in runs["base"] if name in r]
            new = [r[name] for r in runs["new"] if name in r]
            if len(base) != args.pairs or len(new) != args.pairs:
                continue  # the workload does not report this metric
            wins = sum((n < b) if lower else (n > b) for b, n in zip(base, new))
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            change = (nmed / bmed - 1) if bmed != 0 else 0.0
            worse = change > m["bound"] if lower else -change > m["bound"]
            flagged += worse
            flag = f"  WORSE than bound {m['bound']:.0%}" if worse else ""
            print(f"{name:<16} {cell(bmed, bq1, bq3):<36} "
                  f"{cell(nmed, nq1, nq3):<36} {wins:>3}/{args.pairs:<2} "
                  f"{change:>+8.1%}{flag}")
        print()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
