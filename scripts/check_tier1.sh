#!/usr/bin/env bash
# Tier-1 gate: the exact configure/build/ctest sequence CI runs, followed by
# the sanitizer sweep. Run this before merging anything that touches src/.
#
# Usage: scripts/check_tier1.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j "$(nproc)" "$@")

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
# process-wide default transport flipped across the RC mesh, the UD
# datagram trains, the DC pool, and the relaxed-ordering SRD spray,
# exercising GDRSHMEM_IB_TRANSPORT parsing end-to-end plus every protocol
# path over the selected QP discipline. EnhancedProtocolSelection joins
# them so every protocol's payload check, host- and kernel-issued, runs on
# each QP kind, ProxyPutPipeline so the proxy-put's chunk and fin ordering
# does too (srd is where a fin could overtake its chunk),
# ProxyGetPipeline so the staged proxy-get's landed notices do (srd is where
# a notice could overtake its chunk), NbiCopyOverlap so an nbi
# intra-node copy queued on the stream overlaps each QP kind's other-node
# op and still completes at quiet(), RegistrationMiss so a first use of
# an unregistered buffer stages every byte through the bounce slots, and
# its reuse goes zero-copy, on each QP kind, DeviceGetPipeline so a
# kernel-issued get that the proxy pulls through its staging slots lands
# every byte on each QP kind, and StagingRing so the staging ring's shapes
# (its timing cases pin themselves to rc) do too.
# (Timing-assertion suites stay on their pinned configs — transports move
# the clock, never the bytes.)
for ib_transport in rc ud dc srd; do
  echo "== ib-transport A/B: GDRSHMEM_IB_TRANSPORT=$ib_transport =="
  (cd build && GDRSHMEM_IB_TRANSPORT=$ib_transport \
     ctest --output-on-failure \
       -R 'TransportDiff|Fuzz|OddSizes|EnhancedProtocolSelection|ProxyPutPipeline|ProxyGetPipeline|NbiCopyOverlap|RegistrationMiss|DeviceGetPipeline|StagingRing')
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

# Knob census: fails when a GDRSHMEM_* variable RuntimeOptions::from_env
# parses is named by no file under tests/, when the parser's known: list
# differs from what it parses, or when a field of SystemParams, Tuning or
# RuntimeOptions is named by no C++ file (reads sources, builds nothing).
python3 scripts/knob_scan.py

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

# Run every bench binary in build dir $1 with $2 as the working directory,
# so each bench's BENCH_<tag>.json lands there.
run_benches() {
  local bench name
  for bench in "$repo/$1"/bench/bench_*; do
    [ -x "$bench" ] || continue
    name=$(basename "$bench")
    (cd "$2" &&
     "$bench" >"$name.log" 2>&1) || {
      echo "bench smoke FAILED: $1/$name"
      tail -20 "$2/$name.log"
      exit 1
    }
  done
}

# Bench smoke: run every bench and collect each bench's BENCH_<tag>.json.
# bench_engine_overhead fails here when a same-run wall ratio falls below
# its floor.
repo=$PWD
smoke_dir=$(mktemp -d)
release_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir" "$release_dir"' EXIT
run_benches build "$smoke_dir"
# What each bench cost the host (wall, CPU, minor faults, peak RSS).
scripts/bench_host_cost.py "$smoke_dir"

# Build independence: virtual time depends only on the program, not on how
# the simulator was compiled. Build the benches again at -O3 (Release) and
# require every virtual_us point and event count to equal the
# RelWithDebInfo run above (~1 min of build and 15 s of runs on 4 cores).
cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release \
  -DGDRSHMEM_BUILD_TESTS=OFF -DGDRSHMEM_BUILD_EXAMPLES=OFF
cmake --build build-release -j
run_benches build-release "$release_dir"
scripts/bench_identical.py "$smoke_dir" "$release_dir"

# Bench gate: every virtual_us point, wall-point event count and bench
# event total must equal the committed baselines exactly.
scripts/bench_identical.py "$smoke_dir" bench/baselines

echo "tier-1 check passed"
