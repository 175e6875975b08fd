#!/usr/bin/env python3
"""Knob census: which GDRSHMEM_* environment variables that
RuntimeOptions::from_env parses no test names.

Reads src/core/options.cpp, takes every `key == "GDRSHMEM_<NAME>"` branch
as a parsed variable, and lists each one with the files under tests/ that
spell its full name (GDRSHMEM_TRACE_CAP does not count for GDRSHMEM_TRACE).
It also checks the `known:` list in the parser's unknown-variable error
against the parsed names, so the message a typo gets stays true.

Exits 1 when a parsed variable is named by no file under tests/, or when
the `known:` list and the parsed names differ. Runs in well under a second
and builds nothing.

Usage: scripts/knob_scan.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OPTIONS = ROOT / "src" / "core" / "options.cpp"
TESTS = ROOT / "tests"


def parsed_names(source):
    """The NAME of every `key == "GDRSHMEM_NAME"` branch, in order."""
    return re.findall(r'key == "GDRSHMEM_([A-Z0-9_]+)"', source)


def known_names(source):
    """The names the unknown-variable error lists after `known:`."""
    start = source.find("unknown GDRSHMEM_* variable (known: ")
    if start < 0:
        sys.exit(f"knob_scan: no unknown-variable `known:` list in {OPTIONS}")
    # The list is a run of adjacent string literals, from the one holding
    # "(known: " to the end of the call: join their contents.
    first = source.rfind('"', 0, start)
    end = source.find(");", start)
    text = "".join(re.findall(r'"([^"]*)"', source[first:end]))
    inner = text[text.find("known: ") + len("known: "):text.rfind(")")]
    return [n.strip() for n in inner.split(",") if n.strip()]


def files_naming(name, files):
    pattern = re.compile(r"GDRSHMEM_" + name + r"(?![A-Z0-9_])")
    return [f for f, text in files.items() if pattern.search(text)]


def main():
    source = OPTIONS.read_text()
    parsed = parsed_names(source)
    known = known_names(source)
    files = {str(p.relative_to(ROOT)): p.read_text(errors="replace")
             for p in sorted(TESTS.rglob("*")) if p.is_file()}

    untested = []
    width = max(len(n) for n in parsed)
    print(f"knob_scan: {len(parsed)} GDRSHMEM_* variables parsed by "
          f"RuntimeOptions::from_env, with the files under tests/ naming "
          f"each")
    for name in parsed:
        naming = files_naming(name, files)
        if not naming:
            untested.append(name)
        print(f"  {name:<{width}}  {', '.join(naming) or '-'}")

    missing = [n for n in parsed if n not in known]
    extra = [n for n in known if n not in parsed]
    print(f"knob_scan: {len(untested)} named by no file under tests/")
    for name in untested:
        print(f"  GDRSHMEM_{name}")
    if missing or extra:
        print("knob_scan: the parser's known: list differs from the parsed "
              "names")
        for name in missing:
            print(f"  parsed, not in known: {name}")
        for name in extra:
            print(f"  in known:, not parsed: {name}")
    else:
        print("knob_scan: the parser's known: list matches the parsed names")
    return 1 if untested or missing or extra else 0


if __name__ == "__main__":
    sys.exit(main())
