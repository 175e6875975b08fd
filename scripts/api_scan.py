#!/usr/bin/env python3
"""Link-level scan: which global functions defined in src/ are linked into
no test, bench or example binary.

Builds every target into its own tree, build-scan/, at -O0 with
-ffunction-sections -fdata-sections and links with -Wl,--gc-sections, so
each binary keeps exactly the functions it can reach and no inlining hides
a call; a rerun rebuilds only what changed. The defined set is every strong
global text symbol (nm type T) of the src/ static libraries; a function is
linked when some test, bench or example binary still defines it after
garbage collection.

Prints the totals, the number of functions reached only from tests, and
the name of every unlinked function; the full per-function table goes to
build-scan/api_scan.txt. Exits 1 when any function is unlinked.

Blind spot: a virtual function is linked wherever its class's vtable is,
so an override that nothing calls still counts as linked. Unused virtual
functions have to be found by reading their callers.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-scan"
KINDS = ("tests", "bench", "examples")


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, text=True, **kw)


def run_quietly(cmd):
    """Run a build step; show its output only when it fails."""
    r = subprocess.run(cmd, text=True, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        sys.exit(f"api_scan: {' '.join(cmd[:2])} failed")


def build(build_dir):
    run_quietly(["cmake", "-S", str(ROOT), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Debug",
                 "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
                 "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
                 "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
                 "-DGDRSHMEM_SANITIZE=OFF",
                 "-DGDRSHMEM_BUILD_TESTS=ON",
                 "-DGDRSHMEM_BUILD_BENCH=ON",
                 "-DGDRSHMEM_BUILD_EXAMPLES=ON",
                 # Listing the tests at build time would run every test.
                 "-DCMAKE_GTEST_DISCOVER_TESTS_DISCOVERY_MODE=PRE_TEST"])
    run_quietly(["cmake", "--build", str(build_dir),
                 "-j", str(os.cpu_count() or 1)])


def nm_defined(path, extern_only):
    """Map each symbol `path` defines (mangled) to its nm type letter."""
    cmd = ["nm", "--defined-only"] + (["--extern-only"] if extern_only else [])
    out = run(cmd + [str(path)], capture_output=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            syms[parts[2]] = parts[1]
    return syms


def is_elf_executable(path):
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def binaries(build_dir):
    found = {}
    for kind in KINDS:
        d = build_dir / kind
        found[kind] = sorted(p for p in d.iterdir() if is_elf_executable(p))
        if not found[kind]:
            sys.exit(f"api_scan: no {kind} binaries under {d}")
    return found


def demangle(names):
    out = run(["c++filt"], input="\n".join(names), capture_output=True).stdout
    return dict(zip(names, out.splitlines()))


def main():
    build(BUILD_DIR)

    libs = sorted((BUILD_DIR / "src").rglob("libgdrshmem_*.a"))
    if not libs:
        sys.exit(f"api_scan: no src/ libraries under {BUILD_DIR / 'src'}")
    defined = set()
    for lib in libs:
        defined |= {s for s, t in nm_defined(lib, extern_only=True).items()
                    if t == "T"}

    bins = binaries(BUILD_DIR)
    reach = {s: {k: 0 for k in KINDS} for s in defined}
    for kind, paths in bins.items():
        for path in paths:
            for s in defined & nm_defined(path, extern_only=False).keys():
                reach[s][kind] += 1

    unlinked = sorted(s for s in defined if not any(reach[s].values()))
    tests_only = [s for s in defined
                  if reach[s]["tests"] and not reach[s]["bench"]
                  and not reach[s]["examples"]]

    names = demangle(sorted(defined))
    report = BUILD_DIR / "api_scan.txt"
    with open(report, "w") as f:
        f.write("tests bench examples  function\n")
        for s in sorted(defined, key=names.get):
            r = reach[s]
            f.write(f"{r['tests']:5} {r['bench']:5} {r['examples']:8}  "
                    f"{names[s]}\n")

    counts = ", ".join(f"{len(v)} {k}" for k, v in bins.items())
    print(f"api_scan: {len(defined)} global functions in {len(libs)} src/ "
          f"libraries, scanned against {counts} binaries")
    print(f"api_scan: {len(tests_only)} reached only from tests")
    print(f"api_scan: {len(unlinked)} linked into no test, bench or example "
          f"binary")
    for s in sorted(unlinked, key=names.get):
        print(f"  {names[s]}")
    print(f"api_scan: per-function table in {report}")
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main())
