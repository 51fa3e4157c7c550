#!/usr/bin/env python3
"""Fail when src/ defines a function that no shipped binary reaches.

The shipped binaries are every executable under bench/ and examples/
plus perfbench_measure, built from the unmodified
perfbench/CMakeLists.txt. This script configures its own build trees
at -O0 with -ffunction-sections -fdata-sections and links them with
-Wl,--gc-sections, so each binary keeps exactly the functions it can
reach. The linker counts what a vtable or a function-pointer table
(KernelOps) references as reached, which a direct-call graph would
miss, and -O0 keeps a reached callee from being inlined away.

It then lists the longsight:: functions that debug line info places
under src/ in the ls_* libraries, drops every one that a shipped
binary keeps, and fails naming each function that is left and is not
on the allowlist (ci/unreached-allowlist.txt). It also fails on an
allowlist entry that names no unreached function, on an empty symbol
set, and when longsight::scfSelect is not among the reached
functions, so a broken parse cannot pass.

Template instantiations are ignored: they follow their callers (the
util/logging.hh formatters). Lambdas follow their enclosing function.
Blind spot: an inline function in a header that only tests call is
never emitted into a library object, so this check cannot see it.

Allowlist lines read `<kind> <signature> # <reason>`, where kind is
one of
  oracle    a reference that tests compare shipped code against,
  accessor  a read-only view that tests observe shipped state through,
  hook      an admission hook that a planned serving path will call,
and the signature is the function as c++filt prints it.

Usage:
  python3 ci/check-unreached.py [--build-dir DIR] [--jobs N] [--no-build]

Not part of tier-1: the two -O0 trees take a few minutes on 4 cores.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "ci/unreached-allowlist.txt"
KINDS = ("oracle", "accessor", "hook")
SENTINEL = "longsight::scfSelect("
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# A mangled name nested in namespace longsight (free or member
# function, any cv/ref qualifier). Lambdas mangle as _ZZ... and never
# match: they follow their enclosing function.
LONGSIGHT = re.compile(r"^_ZN[VKRO]*9longsight")
# Compiler clones (.cold, .isra.0, .part.1, .constprop.0) of a function.
CLONE = re.compile(r"(\.[a-z_]+(\.\d+)?)+$")
NM_LINE = re.compile(
    r"^[0-9a-f]+ ([TtWw]) (\S+)(?:\t(.+):(\d+))?$")
OPERATORS = re.compile(r"operator(<<=?|<=>|<=|<|\(\))")


def run(cmd, **kw):
    subprocess.run(cmd, check=True, **kw)


def configure_and_build(source, tree, targets_of, jobs):
    """Configure `source` into `tree`, then build targets_of(codemodel)."""
    query = tree / ".cmake/api/v1/query/codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    run(["cmake", "-S", str(source), "-B", str(tree), *FLAGS],
        stdout=subprocess.DEVNULL)
    targets = list(codemodel_targets(tree))
    names = targets_of(targets)
    run(["cmake", "--build", str(tree), "-j", str(jobs), "--target",
         *sorted(names)], stdout=subprocess.DEVNULL)
    return targets


def codemodel_targets(tree):
    """Yield every target of `tree` from the CMake file API reply."""
    reply = tree / ".cmake/api/v1/reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    model = json.loads(
        (reply / index["reply"]["codemodel-v2"]["jsonFile"]).read_text())
    for target in model["configurations"][0]["targets"]:
        yield json.loads((reply / target["jsonFile"]).read_text())


def artifacts(tree, targets, keep):
    return [tree / a["path"] for t in targets if keep(t)
            for a in t.get("artifacts", [])]


def is_shipped(target):
    return (target["type"] == "EXECUTABLE"
            and target["paths"]["source"] in ("bench", "examples"))


def is_src_library(target):
    return (target["type"] == "STATIC_LIBRARY"
            and target["name"].startswith("ls_")
            and target["paths"]["source"].startswith("src"))


def nm_functions(path):
    """(binding, mangled, file:line) of each text symbol in `path`."""
    out = subprocess.run(["nm", "--defined-only", "-l", str(path)],
                         check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        m = NM_LINE.match(line)
        if m and LONGSIGHT.match(m.group(2)):
            where = f"{m.group(3)}:{m.group(4)}" if m.group(3) else ""
            yield m.group(1), CLONE.sub("", m.group(2)), where


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    return dict(zip(names, out))


def is_template(demangled):
    """True for a function or class template instantiation."""
    if not demangled.startswith("longsight::"):
        return True  # a function template prints its return type first
    head = OPERATORS.sub("operator", demangled).split("(", 1)[0]
    return "<" in head


def function_keys(symbols, names):
    """Map each non-template function to a key: its demangled name,
    plus its file for a local symbol (two TUs may each define one).
    Constructor and destructor variants share a key."""
    keyed = {}
    for binding, mangled, where in symbols:
        name = names[mangled]
        if is_template(name):
            continue
        file = where.rsplit(":", 1)[0]
        key = (name, file if binding.islower() else "")
        keyed.setdefault(key, where)
    return keyed


def load_allowlist(path):
    entries, errors = {}, []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, reason = line.partition(" # ")
        kind, _, signature = body.partition(" ")
        signature = signature.strip()
        if kind not in KINDS or not signature or not reason.strip():
            errors.append(f"{path.name}:{lineno}: expected "
                          f"'<{'|'.join(KINDS)}> <signature> # <reason>'")
        elif signature in entries:
            errors.append(f"{path.name}:{lineno}: duplicate {signature}")
        else:
            entries[signature] = lineno
    return entries, errors


def relative(where):
    src = str(ROOT / "src") + "/"
    return where[len(str(ROOT)) + 1:] if where.startswith(src) else where


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / "build-unreached")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--no-build", action="store_true",
                    help="reuse the trees of an earlier run")
    args = ap.parse_args()

    main_tree = args.build_dir.resolve() / "main"
    bench_tree = args.build_dir.resolve() / "perfbench"
    if args.no_build:
        targets = list(codemodel_targets(main_tree))
    else:
        targets = configure_and_build(
            ROOT, main_tree,
            lambda ts: [t["name"] for t in ts if is_shipped(t)],
            args.jobs)
        configure_and_build(ROOT / "perfbench", bench_tree,
                            lambda ts: ["perfbench_measure"], args.jobs)
    libraries = artifacts(main_tree, targets, is_src_library)
    binaries = artifacts(main_tree, targets, is_shipped)
    binaries.append(bench_tree / "perfbench_measure")

    src = str(ROOT / "src") + "/"
    defined = [s for lib in libraries for s in nm_functions(lib)
               if s[2].startswith(src)]
    reached = [s for b in binaries for s in nm_functions(b)]
    names = demangle({s[1] for s in defined + reached})
    defined = function_keys(defined, names)
    reached = function_keys(reached, names)

    failures = []
    if not libraries or not defined:
        failures.append("no longsight:: functions found in the ls_* "
                        "libraries under src/")
    if not binaries or not reached:
        failures.append("no longsight:: functions found in the shipped "
                        "binaries")
    if not any(name.startswith(SENTINEL) for name, _ in reached):
        failures.append(f"{SENTINEL}...) is not among the reached "
                        "functions: the symbol parse is broken")

    unreached = {k: w for k, w in defined.items() if k not in reached}
    allowed, errors = load_allowlist(ALLOWLIST)
    failures += errors
    listed = {name for name, _ in unreached}
    for signature, lineno in sorted(allowed.items(), key=lambda e: e[1]):
        if signature not in listed:
            failures.append(f"{ALLOWLIST.name}:{lineno}: stale entry, "
                            f"no unreached function {signature}")
    for (name, _), where in sorted(unreached.items(),
                                   key=lambda e: (e[1], e[0])):
        if name not in allowed:
            failures.append(f"{relative(where)}: {name} is defined in "
                            "src/ but no shipped binary reaches it")

    print(f"check-unreached: {len(defined)} src/ functions, "
          f"{len(defined) - len(unreached)} reached by "
          f"{len(binaries)} shipped binaries, "
          f"{len(unreached)} unreached, {len(allowed)} allowlisted")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
