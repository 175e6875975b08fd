#!/usr/bin/env python3
"""Exact-identity check between two bench result directories.

Usage: scripts/bench_identical.py <dir_a> <dir_b>

Both directories hold the BENCH_*.json files written by the bench binaries
(each accepts `--out <path>`; by default they write to the working
directory). The check is the refactor oracle, and against bench/baselines/
it is the bench gate of scripts/check_tier1.sh: every deterministic value
must match exactly, with no tolerance.

  * points[].virtual_us  — simulated time of each data point
  * wall_points[].events — simulation events executed by each wall point
  * events               — simulation events the whole bench executed

Wall-clock fields (wall_seconds, events_per_sec) and scalar metrics are
machine-dependent and ignored; bench_engine_overhead holds its own
same-run wall ratios to their floors. A bench file, point, wall point or
event total present on only one side is a difference too. Every difference
is printed by name; the exit status is 0 only when there are none. A point
or wall point named twice in one file would make the comparison ambiguous,
so it ends the check with status 1, naming the file and the point.
"""
import json
import pathlib
import sys


def deterministic_values(path):
    """Map '<point name>:<field>' to its value for one bench file."""
    with open(path) as f:
        doc = json.load(f)
    values = {}
    if "events" in doc:
        values["events"] = doc["events"]
    for section, field in (("points", "virtual_us"), ("wall_points", "events")):
        for p in doc.get(section, []):
            key = f"{p['name']}:{field}"
            if key in values:
                sys.exit(f"bench_identical: {path}: {section} name "
                         f"'{p['name']}' appears twice")
            values[key] = p[field]
    return values


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: bench_identical.py <dir_a> <dir_b>")
    dir_a, dir_b = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    files_a = {p.name for p in dir_a.glob("BENCH_*.json")}
    files_b = {p.name for p in dir_b.glob("BENCH_*.json")}
    if not files_a and not files_b:
        sys.exit(f"bench_identical: no BENCH_*.json in {dir_a} or {dir_b}")

    diffs, compared = [], 0
    for name in sorted(files_a | files_b):
        if name not in files_b:
            diffs.append(f"{name}: only in {dir_a}")
            continue
        if name not in files_a:
            diffs.append(f"{name}: only in {dir_b}")
            continue
        a = deterministic_values(dir_a / name)
        b = deterministic_values(dir_b / name)
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                diffs.append(f"{name}:{key}: only in {dir_a}")
            elif key not in a:
                diffs.append(f"{name}:{key}: only in {dir_b}")
            else:
                compared += 1
                if a[key] != b[key]:
                    diffs.append(f"{name}:{key}: {a[key]} -> {b[key]}")

    for d in diffs:
        print(d)
    files = len(files_a & files_b)
    print(f"bench_identical: {compared} values compared across {files} "
          f"files, {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
