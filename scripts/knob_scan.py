#!/usr/bin/env python3
"""Knob census: which GDRSHMEM_* environment variables that
RuntimeOptions::from_env parses no test names, and which fields of the
option structs no code names.

Variables: reads src/core/options.cpp, takes every `key == "GDRSHMEM_<NAME>"`
branch as a parsed variable, and lists each one with the files under tests/
that spell its full name (GDRSHMEM_TRACE_CAP does not count for
GDRSHMEM_TRACE). It also checks the `known:` list in the parser's
unknown-variable error against the parsed names, so the message a typo gets
stays true.

Fields: takes the data members of hw::SystemParams, core::Tuning and
core::RuntimeOptions from their headers (one declaration per line, ending
in `;`) and looks for each as a member access (`.name` or `->name`) in the
C++ files under src/, include/, tests/, bench/, perfbench/ and examples/,
skipping hidden directories. A field that no file names is a knob nothing
reads or sets.

Exits 1 when a parsed variable is named by no file under tests/, when the
`known:` list and the parsed names differ, or when a field is named by no
file. Runs in well under a second and builds nothing.

Usage: scripts/knob_scan.py
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OPTIONS = ROOT / "src" / "core" / "options.cpp"
TESTS = ROOT / "tests"
# The structs of the field census: (qualified name, declaring header).
STRUCTS = [("hw::SystemParams", ROOT / "src" / "hw" / "params.hpp"),
           ("core::Tuning", ROOT / "src" / "core" / "tuning.hpp"),
           ("core::RuntimeOptions", ROOT / "src" / "core" / "runtime.hpp")]
CODE_DIRS = ["src", "include", "tests", "bench", "perfbench", "examples"]
CODE_SUFFIXES = {".c", ".cc", ".cpp", ".h", ".hpp"}


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


def struct_fields(header, qualified):
    """(name, line number) of each data member of `struct <Name> { ... };`
    in `header`: a line at the struct's own brace depth that ends in `;`
    and declares neither a function nor a static member or alias."""
    name = qualified.split("::")[-1]
    lines = header.read_text().splitlines()
    opening = next((i for i, line in enumerate(lines)
                    if re.match(r"struct " + name + r" \{", line)), None)
    if opening is None:
        sys.exit(f"knob_scan: no `struct {name} {{` in {header}")
    fields = []
    depth = 0
    for i in range(opening, len(lines)):
        code = lines[i].split("//")[0].strip()
        after = depth + code.count("{") - code.count("}")
        if (depth == 1 and after == 1 and code.endswith(";") and
                not re.match(r"(static|using|friend|typedef)\b", code)):
            decl = re.sub(r"\{[^{}]*\}\s*;$", ";", code)  # brace initializer
            decl = decl.split("=")[0].rstrip(" ;")
            if not decl.endswith(")"):
                fields.append((re.search(r"(\w+)$", decl).group(1), i + 1))
        depth = after
        if depth == 0 and i > opening:
            return fields
    sys.exit(f"knob_scan: `struct {name}` in {header} never closes")


def field_census():
    """Print the field census; return the fields that no file names, as
    (struct, field, header, line)."""
    code = [p.read_text(errors="replace") for d in CODE_DIRS
            for p in sorted((ROOT / d).rglob("*"))
            if p.is_file() and p.suffix in CODE_SUFFIXES and
            not any(part.startswith(".") for part in p.relative_to(ROOT).parts)]
    unnamed = []
    counts = []
    for qualified, header in STRUCTS:
        fields = struct_fields(header, qualified)
        counts.append(f"{qualified} ({len(fields)})")
        for name, line in fields:
            access = re.compile(r"(?:\.|->)" + name + r"\b")
            if not any(access.search(text) for text in code):
                unnamed.append((qualified, name,
                                header.relative_to(ROOT), line))
    print(f"knob_scan: fields of {', '.join(counts)}, each looked for as "
          f"`.field` or `->field` under {', '.join(CODE_DIRS)}")
    print(f"knob_scan: {len(unnamed)} field(s) named by no file")
    for qualified, name, header, line in unnamed:
        print(f"  {qualified}::{name}  ({header}:{line})")
    return unnamed


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
    unnamed = field_census()
    return 1 if untested or missing or extra or unnamed else 0


if __name__ == "__main__":
    sys.exit(main())
