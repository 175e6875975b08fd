#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <p2p-small|p2p-large|halo2d|ckpt> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Builds perfbench/ (and the runtime sources
it compiles) into .bench_build/perfbench, then runs the benchmark binary
with every GDRSHMEM_* variable removed from its environment, so a stray
setting on the host cannot change what is measured. With --trace 1 the
spans of the last traced episode are written to
.bench_build/traces/<workload>-seed<n>.json. The last line of stdout is the
result object; build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("p2p-small", "p2p-large", "halo2d", "ckpt")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GDRSHMEM_")}
    for k in sorted(set(os.environ) - set(env)):
        print(f"run.py: ignoring {k}", file=sys.stderr)
    return env


def build(env):
    """Configure once, then build incrementally. Returns the binary path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, env=env, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, env=env, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    env = clean_env()
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
