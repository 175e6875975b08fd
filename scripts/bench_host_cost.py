#!/usr/bin/env python3
"""Per-bench host-cost table from a directory of BENCH_*.json files.

Usage: scripts/bench_host_cost.py <dir>

Each bench records what its own process cost the host under "host": wall
seconds, user and sys CPU seconds, minor page faults and peak RSS, taken
with getrusage when the file is written. This prints one row per bench and
the totals (peak RSS: the maximum). A file without a "host" object is an
error, so a bench that stops recording it cannot go unnoticed.
"""
import json
import pathlib
import sys


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: bench_host_cost.py <dir>")
    paths = sorted(pathlib.Path(argv[1]).glob("BENCH_*.json"))
    if not paths:
        sys.exit(f"bench_host_cost: no BENCH_*.json in {argv[1]}")
    rows = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if "host" not in doc:
            sys.exit(f"bench_host_cost: {path} has no 'host' object")
        rows.append((doc["bench"], doc["host"]))

    print(f"{'bench':26s} {'wall_s':>8s} {'user_s':>8s} {'sys_s':>8s} "
          f"{'minflt':>10s} {'rss_mb':>8s}")

    def row(name, h):
        print(f"{name:26s} {h['wall_seconds']:8.2f} {h['user_seconds']:8.2f} "
              f"{h['sys_seconds']:8.2f} {h['minflt']:10d} "
              f"{h['peak_rss_mb']:8.1f}")

    for name, h in rows:
        row(name, h)
    total = {k: sum(h[k] for _, h in rows)
             for k in ("wall_seconds", "user_seconds", "sys_seconds", "minflt")}
    total["peak_rss_mb"] = max(h["peak_rss_mb"] for _, h in rows)
    row("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
