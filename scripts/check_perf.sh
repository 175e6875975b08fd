#!/usr/bin/env bash
# Perf-regression gate: compare freshly produced BENCH_<tag>.json files
# against the committed baselines in bench/baselines/.
#
# Usage: scripts/check_perf.sh <fresh_dir> [baseline_dir]
#
#   fresh_dir     directory holding the BENCH_*.json files a bench run just
#                 produced (each bench accepts `--out <path>`)
#   baseline_dir  committed baselines (default: bench/baselines/)
#
# Four comparisons per bench file:
#
#   * events                 — simulation events the whole bench executed.
#                              Deterministic, so it must equal the baseline's
#                              EXACTLY; a file without it fails.
#   * points[].virtual_us    — deterministic simulated time. Slower than the
#                              baseline by more than PERF_TOL (relative,
#                              default 0.10) fails; getting faster prints a
#                              note so wins can be locked in by refreshing
#                              the baseline.
#   * wall_points[].events   — the event count per wall point is just as
#                              deterministic as virtual time, so it must
#                              match the baseline EXACTLY. A drift means the
#                              workload (not the machine) changed and the
#                              baseline is stale.
#   * wall_points[].events_per_sec — wall throughput is machine-dependent, so
#                              it is only held to a loose floor: fresh must be
#                              >= baseline * PERF_WALL_FRAC (default 0.40).
#                              This catches order-of-magnitude scale-out
#                              collapses (the 64->16K-PE sweep points) without
#                              flaking on box-to-box variance.
#
# Missing or malformed files fail too: a gate that silently skips is no gate.
set -euo pipefail

fresh_dir=${1:?usage: check_perf.sh <fresh_dir> [baseline_dir]}
base_dir=${2:-"$(dirname "$0")/../bench/baselines"}
: "${PERF_TOL:=0.10}"
: "${PERF_WALL_FRAC:=0.40}"

python3 - "$fresh_dir" "$base_dir" "$PERF_TOL" "$PERF_WALL_FRAC" <<'EOF'
import json
import pathlib
import sys

fresh_dir, base_dir = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
tol = float(sys.argv[3])
wall_frac = float(sys.argv[4])

def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1 or "bench" not in doc:
        raise ValueError(f"{path}: not a schema-1 bench file")
    for key in ("events", "points", "wall_points", "metrics"):
        if key not in doc:
            raise ValueError(f"{path}: missing '{key}'")
    names = set()
    for p in doc["points"]:
        if "name" not in p or "virtual_us" not in p:
            raise ValueError(f"{path}: malformed point {p}")
        if p["name"] in names:
            raise ValueError(f"{path}: duplicate point name '{p['name']}' — "
                             "comparison would be ambiguous")
        names.add(p["name"])
    wnames = set()
    for p in doc["wall_points"]:
        if "name" not in p or "events" not in p or "events_per_sec" not in p:
            raise ValueError(f"{path}: malformed wall point {p}")
        if p["name"] in wnames:
            raise ValueError(f"{path}: duplicate wall point '{p['name']}'")
        wnames.add(p["name"])
    return doc

baselines = sorted(base_dir.glob("BENCH_*.json"))
if not baselines:
    sys.exit(f"check_perf: no baselines in {base_dir}")

regressions, compared = [], 0
wall_failures, wall_compared = [], 0
event_failures = []
for base_path in baselines:
    base = load(base_path)
    fresh_path = fresh_dir / base_path.name
    if not fresh_path.exists():
        sys.exit(f"check_perf: {fresh_path} missing (bench not run?)")
    fresh = load(fresh_path)
    if fresh["events"] != base["events"]:
        event_failures.append(
            f"{base_path.name}: events {base['events']} -> {fresh['events']} "
            "(deterministic count changed — stale baseline or broken "
            "determinism)")
    fresh_pts = {p["name"]: p["virtual_us"] for p in fresh["points"]}
    for p in base["points"]:
        name, want = p["name"], p["virtual_us"]
        if name not in fresh_pts:
            sys.exit(f"check_perf: {fresh_path.name}: point '{name}' vanished")
        got = fresh_pts[name]
        compared += 1
        if want > 0 and got > want * (1 + tol):
            regressions.append((base_path.name, name, want, got))
        elif want > 0 and got < want * (1 - tol):
            print(f"  note: {base_path.name}:{name} improved "
                  f"{want:.3f} -> {got:.3f} us (refresh baseline to lock in)")
    fresh_wall = {p["name"]: p for p in fresh["wall_points"]}
    for p in base["wall_points"]:
        name = p["name"]
        if name not in fresh_wall:
            sys.exit(f"check_perf: {fresh_path.name}: wall point '{name}' "
                     "vanished")
        got = fresh_wall[name]
        wall_compared += 1
        # The event count is deterministic: any drift is a workload change,
        # not machine noise, and means the baseline needs a refresh.
        if got["events"] != p["events"]:
            wall_failures.append(
                f"{base_path.name}:{name}: events {p['events']} -> "
                f"{got['events']} (deterministic count changed — stale "
                "baseline or broken determinism)")
        # Throughput only has to clear a loose floor.
        floor = p["events_per_sec"] * wall_frac
        if p["events_per_sec"] > 0 and got["events_per_sec"] < floor:
            wall_failures.append(
                f"{base_path.name}:{name}: events/sec "
                f"{p['events_per_sec']:.0f} -> {got['events_per_sec']:.0f} "
                f"(below floor {floor:.0f} = baseline x {wall_frac})")

if regressions or event_failures or wall_failures:
    if event_failures:
        print(f"check_perf: FAIL — {len(event_failures)} bench event "
              "total(s) differ:")
        for msg in event_failures:
            print(f"  {msg}")
    if regressions:
        print(f"check_perf: FAIL — {len(regressions)} virtual-time "
              f"regression(s) (tolerance {tol:.0%}):")
        for fname, name, want, got in regressions:
            print(f"  {fname}:{name}: {want:.3f} us -> {got:.3f} us "
                  f"(+{(got / want - 1):.1%})")
    if wall_failures:
        print(f"check_perf: FAIL — {len(wall_failures)} wall-point "
              "failure(s):")
        for msg in wall_failures:
            print(f"  {msg}")
    sys.exit(1)
print(f"check_perf: OK — {compared} virtual-time points within {tol:.0%}, "
      f"{wall_compared} wall points (events exact, throughput floor "
      f"{wall_frac}) across {len(baselines)} benches, each bench's events "
      "exact")
EOF
