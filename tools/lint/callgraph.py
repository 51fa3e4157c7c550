#!/usr/bin/env python3
"""Shared compiler-call-graph machinery for the tools/lint analyses.

Both static-analysis passes — the hot-path contract lint
(ls_contract_lint.py) and the parallel-safety race lint
(ls_race_lint.py) — lean on the compiler itself instead of a parser
library: every TU is recompiled at -O0 with

  -fcallgraph-info=su,da     one VCG call graph per TU, exact call-site
                             locations (file:line:col) on every edge,
  -fdump-tree-gimple-lineno  the GIMPLE statement stream per TU, which
                             is where write-sets and lock acquisitions
                             are read from.

This module owns everything the two passes share:

  * compile_tu()        one cached compile producing BOTH artifacts,
                        so running the second lint after the first is a
                        pure cache hit;
  * the lint cache      content-addressed on a hash of the preprocessed
                        TU + the compile command, with a manifest
                        (manifest.json) mapping each TU to its live
                        key.  prune_cache() drops entries whose TU no
                        longer exists or whose preprocess-hash went
                        stale, so the cache no longer grows without
                        bound across rebuilds;
  * VCG parsing         parse_ci() merges per-TU graphs on mangled
                        symbol names (cross-TU reachability resolves
                        exactly like the linker would), finalize_graph()
                        demangles labels through c++filt and redirects
                        C1/D1 ctor-dtor aliases to their defined C2/D2
                        bodies;
  * project TU listing  from compile_commands.json.

The contract lint reads only the .ci side; the race lint reads both.
"""

import concurrent.futures
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

# Bump when the compile flags or artifact set change: old cache entries
# stop matching and the next prune_cache() sweeps them out.
CACHE_VERSION = "v2-ci+gimple"

MANIFEST_NAME = "manifest.json"

# Annotation-ABI marker functions shared by both lints (see
# src/util/annotations.hh). Markers are identified by mangled name:
# pretty labels carry return types and vary with the pretty-printer,
# mangles do not.
EXEMPT_MARKER = "_ZN9longsight8contract25ls_contract_exempt_markerEv"
PARALLEL_BODY_MARKER = "_ZN9longsight8contract23ls_parallel_body_markerEv"

# [[noreturn]] failure handlers: reachable from everywhere via
# LS_ASSERT, cold by definition (the process is about to die), so
# whatever they do is never steady-state behaviour. Matched by mangled
# prefix: GCC truncates the pretty label of long template
# instantiations, so the label cannot be relied on here.
BUILTIN_PRUNE_MANGLED = ("_ZN9longsight5panicI", "_ZN9longsight5fatalI")


# --------------------------------------------------------------------------
# VCG call-graph parsing
# --------------------------------------------------------------------------

NODE_RE = re.compile(r'^node: \{ title: "((?:[^"\\]|\\.)*)" '
                     r'label: "((?:[^"\\]|\\.)*)"')
EDGE_RE = re.compile(r'^edge: \{ sourcename: "((?:[^"\\]|\\.)*)" '
                     r'targetname: "((?:[^"\\]|\\.)*)"'
                     r'(?: label: "((?:[^"\\]|\\.)*)")?')

SYMBOL_RE = re.compile(r"^[A-Za-z_$.][A-Za-z0-9_$.]*$")


class Node:
    __slots__ = ("key", "mangled", "pretty", "loc", "edges", "defined")

    def __init__(self, key, mangled, pretty, loc, defined):
        self.key = key
        self.mangled = mangled
        self.pretty = pretty
        self.loc = loc          # "file:line" of the definition, or ""
        self.edges = []         # list of (target_key, callsite "f:l:c")
        self.defined = defined


def split_title(title, tu_tag):
    """Return (canonical key, mangled) for a VCG node title.

    Titles are either a plain symbol (external / global) or
    "<aux>:<symbol>" for symbols local to the TU. TU-local statics
    (_ZL..., or unmangled C names behind the aux prefix) must stay
    TU-scoped to avoid cross-TU collisions; everything else merges on
    the bare mangled name so cross-TU calls resolve.
    """
    mangled = title
    local = False
    if ":" in title:
        head, tail = title.rsplit(":", 1)
        if SYMBOL_RE.match(tail):
            mangled = tail
            local = True
    if local and (mangled.startswith("_ZL") or mangled.startswith("_ZZ")
                  or not mangled.startswith("_Z")):
        return (tu_tag + ":" + mangled, mangled)
    return (mangled, mangled)


def unescape(s):
    return s.replace('\\"', '"').replace("\\\\", "\\")


def parse_ci(path, tu_tag, graph):
    """Merge one .ci file into `graph` (dict key -> Node)."""
    with open(path, "r", errors="replace") as f:
        for line in f:
            m = NODE_RE.match(line)
            if m:
                key, mangled = split_title(m.group(1), tu_tag)
                label = unescape(m.group(2)).split("\\n")
                pretty = label[0]
                loc = label[1] if len(label) > 1 else ""
                node = graph.get(key)
                if node is None:
                    graph[key] = Node(key, mangled, pretty, loc, True)
                elif not node.defined:
                    node.pretty = pretty
                    node.loc = loc
                    node.defined = True
                continue
            m = EDGE_RE.match(line)
            if m:
                src, _ = split_title(m.group(1), tu_tag)
                dst, dmangled = split_title(m.group(2), tu_tag)
                callsite = unescape(m.group(3) or "")
                if src not in graph:
                    graph[src] = Node(src, src, src, "", False)
                if dst not in graph:
                    graph[dst] = Node(dst, dmangled, dmangled, "", False)
                graph[src].edges.append((dst, callsite))


def demangle_graph(graph):
    """Replace label prettys with c++filt demanglings where available.

    GCC's .ci labels truncate long template signatures (a variadic
    instantiation can render as ") [with Args = ...]"), and nodes that
    are only referenced, never defined, carry no label at all. The
    mangled name is always intact, so one batch c++filt run recovers a
    canonical signature for every C++ node; sink patterns then match a
    single, stable format.
    """
    nodes = [n for n in graph.values() if n.mangled.startswith("_Z")]
    if not nodes:
        return
    try:
        proc = subprocess.run(
            ["c++filt"], input="\n".join(n.mangled for n in nodes) + "\n",
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return  # no binutils: fall back to the raw labels
    if proc.returncode != 0:
        return
    out = proc.stdout.splitlines()
    if len(out) != len(nodes):
        return
    for node, dem in zip(nodes, out):
        if dem and dem != node.mangled:
            node.pretty = dem


def resolve_ctor_aliases(graph):
    """Redirect complete-object ctor/dtor references to the defined body.

    GCC emits one definition for a constructor (the base-object C2
    symbol) and aliases the complete-object C1 symbol to it; call
    edges, however, target C1. Without redirection the walk dead-ends
    in an undefined node and never sees the constructor body. Only
    verified aliases are installed: the candidate must exist, be
    defined, and demangle to the same signature.
    """
    alias = {}
    for key, node in graph.items():
        if node.defined:
            continue
        for a, b in (("C1", "C2"), ("D1", "D2"), ("D0", "D2")):
            if a not in key:
                continue
            cand = key.replace(a, b, 1)
            target = graph.get(cand)
            if (target is not None and target.defined
                    and target.pretty == node.pretty):
                alias[key] = cand
                break
    if not alias:
        return
    for node in graph.values():
        node.edges = [(alias.get(dst, dst), cs) for dst, cs in node.edges]


def finalize_graph(graph):
    demangle_graph(graph)
    resolve_ctor_aliases(graph)


# --------------------------------------------------------------------------
# Waivers and project-path classification
# --------------------------------------------------------------------------

class SourceIndex:
    """Caches source lines; answers waiver and in-project queries.

    A finding at file:line:col is waived by

        // LS_LINT_ALLOW(<category>): reason

    on the offending line or the line directly above. Each lint
    instantiates the index with its own category vocabulary, so a
    waiver for one category never silences another.
    """

    def __init__(self, project_root, categories):
        self.root = os.path.realpath(project_root)
        self.waiver_re = re.compile(
            r"//\s*LS_LINT_ALLOW\((%s)\)" % "|".join(categories))
        self.file_lines = {}

    def lines_of(self, path):
        if path not in self.file_lines:
            try:
                with open(path, "r", errors="replace") as f:
                    self.file_lines[path] = f.readlines()
            except OSError:
                self.file_lines[path] = []
        return self.file_lines[path]

    def resolve(self, callsite, directory):
        """(realpath, line) from a "file:line:col" location, or None."""
        parts = callsite.split(":")
        if len(parts) < 2:
            return None
        file_part = ":".join(parts[:-2]) if len(parts) >= 3 else parts[0]
        try:
            lineno = int(parts[-2])
        except ValueError:
            return None
        path = file_part
        if not os.path.isabs(path):
            path = os.path.join(directory, path)
        return os.path.realpath(path), lineno

    def waived(self, callsite, directory, category):
        loc = self.resolve(callsite, directory)
        if loc is None:
            return False
        path, lineno = loc
        if not path.startswith(self.root):
            return False
        lines = self.lines_of(path)
        for cand in (lineno, lineno - 1):
            if 1 <= cand <= len(lines):
                m = self.waiver_re.search(lines[cand - 1])
                if m and m.group(1) == category:
                    return True
        return False

    def in_project(self, callsite, directory):
        file_part = callsite.rsplit(":", 2)[0] \
            if callsite.count(":") >= 2 else callsite
        if not file_part:
            return False
        path = file_part
        if not os.path.isabs(path):
            path = os.path.join(directory, path)
        return os.path.realpath(path).startswith(self.root)


# --------------------------------------------------------------------------
# Compilation of TUs to .ci call graphs + .gimple statement dumps
# --------------------------------------------------------------------------

STRIP_ARGS = {"-c", "-S", "-E"}
STRIP_NEXT = {"-o", "-MF", "-MT", "-MQ"}


def base_command(entry):
    """Compiler argv from a compile_commands entry, minus output args."""
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry["command"])
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a in STRIP_NEXT:
            skip = True
            continue
        if (a in STRIP_ARGS or a.startswith("-fcallgraph-info")
                or a.startswith("-fdump-tree")):
            continue
        out.append(a)
    return out


class CacheStats:
    """Hit/miss accounting for one lint run over the compile cache."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def __str__(self):
        return "%d hit(s), %d miss(es)" % (self.hits, self.misses)


def compile_tu(args, directory, cache_dir, verbose, stats=None):
    """Compile one TU for analysis; returns {"ci": path, "gimple": path}.

    One compile produces both artifacts, cached on a hash of the
    preprocessed TU (so edits to any transitively included header
    invalidate it) plus the command, so whichever lint runs second
    reuses the first one's work.
    """
    # The analyses need every call edge and statement to survive: -O0
    # disables inlining, -fno-inline guards against flags in the
    # original command re-enabling it.
    lint_args = args + ["-O0", "-fno-inline", "-w"]
    pre = subprocess.run(lint_args + ["-E", "-o", "-"],
                         cwd=directory, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    if pre.returncode != 0:
        raise RuntimeError("preprocess failed: %s\n%s" %
                           (" ".join(lint_args),
                            pre.stderr.decode(errors="replace")))
    h = hashlib.sha256()
    h.update(CACHE_VERSION.encode())
    h.update(" ".join(lint_args).encode())
    h.update(pre.stdout)
    key = h.hexdigest()[:24]
    ci = os.path.join(cache_dir, key + ".ci")
    gimple = os.path.join(cache_dir, key + ".gimple")
    if os.path.exists(ci) and os.path.exists(gimple):
        if stats is not None:
            stats.hits += 1
        return {"key": key, "ci": ci, "gimple": gimple}
    # Compile into a private directory, then rename both artifacts into
    # place. The contract and race lints share this cache and can both
    # miss on one TU at the same moment (ctest -j); two compilers
    # writing one dump path interleave their output into a corrupt
    # GIMPLE file, while a rename publishes only a complete one.
    work = tempfile.mkdtemp(prefix=key + ".", dir=cache_dir)
    try:
        asm = os.path.join(work, key + ".s")
        tmp_gimple = os.path.join(work, key + ".gimple")
        cc = subprocess.run(lint_args +
                            ["-fcallgraph-info=su,da",
                             "-fdump-tree-gimple-lineno=" + tmp_gimple,
                             "-S", "-o", asm],
                            cwd=directory, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
        if cc.returncode != 0:
            raise RuntimeError("lint compile failed: %s\n%s" %
                               (" ".join(lint_args),
                                cc.stderr.decode(errors="replace")))
        produced = os.path.splitext(asm)[0] + ".ci"
        if not os.path.exists(produced):
            raise RuntimeError("no .ci produced for " +
                               " ".join(lint_args))
        if not os.path.exists(tmp_gimple):
            raise RuntimeError("no GIMPLE dump produced for " +
                               " ".join(lint_args))
        os.replace(tmp_gimple, gimple)
        os.replace(produced, ci)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if stats is not None:
        stats.misses += 1
    if verbose:
        print("  compiled %s" % args[-1], file=sys.stderr)
    return {"key": key, "ci": ci, "gimple": gimple}


def load_manifest(cache_dir):
    path = os.path.join(cache_dir, MANIFEST_NAME)
    try:
        with open(path) as f:
            data = json.load(f)
        if isinstance(data, dict):
            return data
    except (OSError, ValueError):
        pass
    return {}


def prune_cache(cache_dir, live_keys, tu_keys, verbose=False):
    """Garbage-collect the lint cache after a successful run.

    `tu_keys` maps each TU path compiled this run to its live cache
    key; entries for TUs that no longer exist on disk are dropped from
    the manifest, and any cache artifact whose key is not live for some
    existing TU (i.e. its preprocess-hash went stale, or its TU was
    deleted) is removed. Returns the number of files deleted.
    """
    manifest = load_manifest(cache_dir)
    manifest.update(tu_keys)
    manifest = {tu: key for tu, key in manifest.items()
                if os.path.exists(tu)}
    keep = set(live_keys) | set(manifest.values())
    removed = 0
    try:
        entries = os.listdir(cache_dir)
    except OSError:
        entries = []
    for name in entries:
        stem, ext = os.path.splitext(name)
        if ext not in (".ci", ".gimple", ".s"):
            continue
        if stem in keep:
            continue
        try:
            os.remove(os.path.join(cache_dir, name))
            removed += 1
        except OSError:
            pass
    try:
        with open(os.path.join(cache_dir, MANIFEST_NAME), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
    except OSError:
        pass
    if verbose and removed:
        print("lint-cache: pruned %d stale artifact(s)" % removed,
              file=sys.stderr)
    return removed


def project_tus(build_dir, project_root, only=None):
    """(argv, directory, source-path) for every src/ TU in the build."""
    build_dir = os.path.realpath(build_dir)
    ccj = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(ccj):
        raise SystemExit("error: %s not found (configure with "
                         "CMAKE_EXPORT_COMPILE_COMMANDS=ON)" % ccj)
    with open(ccj) as f:
        entries = json.load(f)
    root = os.path.realpath(project_root)
    src_root = os.path.join(root, "src") + os.sep
    tus = []
    for e in entries:
        path = os.path.realpath(os.path.join(e["directory"], e["file"]))
        if not path.startswith(src_root) or not path.endswith(".cc"):
            continue
        if only and not any(sub in path for sub in only):
            continue
        tus.append((base_command(e), e["directory"], path))
    if not tus:
        raise SystemExit("error: no src/ TUs in compile_commands.json")
    return tus


def compile_all(tus, cache_dir, jobs, verbose):
    """Compile every TU concurrently; returns ({path: artifacts}, stats).

    Prunes stale cache entries afterwards, so the cache holds exactly
    one artifact pair per live TU.
    """
    os.makedirs(cache_dir, exist_ok=True)
    stats = CacheStats()
    results = {}
    errors = []

    def one(tu):
        args, directory, path = tu
        return path, compile_tu(args, directory, cache_dir, verbose, stats)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
        for fut in concurrent.futures.as_completed(
                [ex.submit(one, tu) for tu in tus]):
            try:
                path, art = fut.result()
            except RuntimeError as err:
                errors.append(str(err))
                continue
            results[path] = art
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        raise SystemExit("error: %d TU(s) failed to compile for lint"
                         % len(errors))
    prune_cache(cache_dir,
                [a["key"] for a in results.values()],
                {path: a["key"] for path, a in results.items()},
                verbose)
    if verbose:
        print("lint-cache: %s" % stats, file=sys.stderr)
    return results, stats
