#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny scale through run.py, traced
and untraced, and checks that each run is correct, exits 0 and prints every
end-to-end (untraced) or per-layer (traced) metric of BENCHMARK.json with its
unit. Then checks that a second seed also runs clean, that run.py ignores
GDRSHMEM_* variables, and that the benchmark binary itself refuses them.
Finishes in seconds once the benchmark is built.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")


def run(workload, seed, trace, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(result, expected, what):
    assert result["correct"] is True, f"{what}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, what
    got = result["metrics"]
    for m in expected:
        assert m["name"] in got, f"{what}: missing metric {m['name']}"
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}"
    extra = set(got) - {m["name"] for m in expected}
    assert not extra, f"{what}: metrics not in BENCHMARK.json: {sorted(extra)}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        check(run(w, 1, 0), bench["end_to_end"], f"{w} untraced")
        check(run(w, 1, 1), bench["per_layer"], f"{w} traced")
        check(run(w, 2, 0), bench["end_to_end"], f"{w} second seed")
        print(f"selftest: {w} ok")

    # Hermetic configuration: run.py drops GDRSHMEM_* (the binary would
    # refuse to start otherwise), and the binary itself refuses them.
    env = dict(os.environ, GDRSHMEM_SIM_BACKEND="threads")
    check(run(workloads[0], 1, 0, env), bench["end_to_end"], "stray GDRSHMEM_*")
    p = subprocess.run([BINARY, "--workload", workloads[0], "--seed", "1",
                        "--seconds", "0", "--trace", "0", "--smoke"],
                       env=env, capture_output=True, text=True)
    assert p.returncode != 0 and not p.stdout.strip(), "binary accepted GDRSHMEM_*"
    print("selftest: environment ok")
    print("selftest: PASS")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
