#!/usr/bin/env bash
# Tier-1 gate: the exact configure/build/ctest sequence CI runs, followed by
# the sanitizer sweep. Run this before merging anything that touches src/.
#
# Usage: scripts/check_tier1.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j "$@")

# Device-backend A/B: the device-initiated suites run under both engines.
# Differential tests pin and compare backends internally; the env-driven
# tests follow GDRSHMEM_DEVICE_BACKEND, so each pass exercises option
# parsing end-to-end plus the selected engine as the process-wide default.
for dev_backend in gpu-ib reverse; do
  echo "== device-backend A/B: GDRSHMEM_DEVICE_BACKEND=$dev_backend =="
  (cd build && GDRSHMEM_DEVICE_BACKEND=$dev_backend \
     ctest --output-on-failure -R 'DeviceApi|Stencil2DDevice')
done

# IB-transport A/B: the byte-exact differential suites run with the
# process-wide default transport flipped across the RC mesh, the DC pool,
# and the relaxed-ordering SRD spray, exercising GDRSHMEM_IB_TRANSPORT
# parsing end-to-end plus every protocol path over the selected QP
# discipline. (Timing-assertion suites stay on their pinned configs —
# transports move the clock, never the bytes.)
for ib_transport in rc dc srd; do
  echo "== ib-transport A/B: GDRSHMEM_IB_TRANSPORT=$ib_transport =="
  (cd build && GDRSHMEM_IB_TRANSPORT=$ib_transport \
     ctest --output-on-failure -R 'TransportDiff|Fuzz|OddSizes')
done

# Benchmark build + smoke: perfbench compiles ../src on its own and reads
# Runtime::stats(), registry counter names and RuntimeOptions fields, none of
# which ctest builds against. Its self-test runs every workload at tiny
# scale, traced and untraced (~50 s cold including the build, ~8 s warm).
python3 perfbench/selftest.py

# Exported-surface scan: an -O0 --gc-sections build of every target into
# build-scan/ (~2 min on 4 cores); fails when a global function defined in
# src/ is linked into no test, bench or example binary.
python3 scripts/api_scan.py

scripts/check_sanitize.sh

# Scale smoke: one 1K-PE barrier+message-rate round under a loose wall
# budget. Catches catastrophic engine scale-out regressions (queue or stack
# management falling over at high PE counts) without the cost of the full
# 64->16K sweep.
build/bench/bench_engine_overhead --scale-smoke

# Checkpoint-service smoke: the faulted open-loop config (proxy crash + P2P
# revocation mid-checkpoint) on both engine backends — digests must match
# bit-for-bit and no acknowledged checkpoint may be lost.
build/bench/bench_checkpoint --smoke

# Bench smoke + perf gate: run every bench, collect each bench's
# BENCH_<tag>.json, and compare the deterministic virtual-time points
# against the committed baselines.
repo=$PWD
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
for bench in "$repo"/build/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  (cd "$smoke_dir" &&
   "$bench" >"$name.log" 2>&1) || {
    echo "bench smoke FAILED: $name"
    tail -20 "$smoke_dir/$name.log"
    exit 1
  }
done
# What each bench cost the host (wall, CPU, minor faults, peak RSS).
scripts/bench_host_cost.py "$smoke_dir"
scripts/check_perf.sh "$smoke_dir" bench/baselines

echo "tier-1 check passed"
