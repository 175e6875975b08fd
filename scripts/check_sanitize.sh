#!/usr/bin/env bash
# Build every test binary (and the checkpoint bench) under ASan+UBSan and
# run the tests under BOTH engine execution backends. This is the guard for
# fiber stack bugs (overflow into the guard page, use-after-unwind across
# swapcontext), for the explicit event-heap/pool code, and for the owners of
# completions and repost closures in the protocol code — run it after
# touching src/.
#
# Usage: scripts/check_sanitize.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

tests=(test_sim test_hw test_cudart test_ib test_core test_omb test_apps)

cmake --preset asan-ubsan -DGDRSHMEM_BUILD_BENCH=ON
cmake --build build-asan -j "$(nproc)" --target "${tests[@]}" bench_checkpoint

for backend in fibers threads; do
  for t in "${tests[@]}"; do
    echo "== sanitized ${t}, GDRSHMEM_SIM_BACKEND=${backend} =="
    GDRSHMEM_SIM_BACKEND=${backend} "./build-asan/tests/${t}" "$@"
  done
done

# The faulted checkpoint smoke (proxy crash + P2P revocation) runs both
# engine backends itself and compares their digests.
echo "== sanitized bench_checkpoint --smoke =="
./build-asan/bench/bench_checkpoint --smoke

echo "sanitizer check passed for all test binaries on both backends"
