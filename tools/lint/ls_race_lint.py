#!/usr/bin/env python3
"""Parallel-safety static analysis for the LongSight thread-pool paths.

Second analysis pass over the same compiler artifacts as the contract
lint (shared machinery in callgraph.py), enforcing the repo's
bit-identical-at-any-thread-count guarantee at analysis time instead
of only dynamically (TSan rows, 1-vs-8-thread tests):

  race          A parallelFor/parallelForEach body (annotated with
                LS_PARALLEL_BODY() as its first statement) reaches a
                plain write to a global, a static, or state captured
                by reference — the classic cross-lane data race.
                Atomics never appear as plain GIMPLE stores, so they
                pass; per-lane state is declared with
                LS_LANE_LOCAL(name); everything else needs
                // LS_LINT_ALLOW(race): reason, or a fix.
  lockorder     Two locks are acquired in opposite orders somewhere in
                the program (cross-TU): lock B taken while holding A
                creates edge A->B in the acquisition graph; any cycle
                is a latent deadlock and fails the lint.
  parallel-root A parallelFor/parallelForEach call site whose body
                lambda does not carry LS_PARALLEL_BODY() — new code
                cannot silently opt out of the race checker.

Mechanism
---------
Each TU is compiled once (cached, shared with the contract lint) with
both -fcallgraph-info=su,da and -fdump-tree-gimple-lineno. The VCG
graphs, merged on mangled names, give whole-program reachability from
every LS_PARALLEL_BODY root; the GIMPLE dumps give each function's
write-set and lock-acquisition sequence with exact file:line:col
locations. GIMPLE prints pretty function headers, not mangles, so the
two views are joined on a normalized qualified name (template
arguments, parameter lists, and lambda signatures collapsed); name
collisions union their facts, which only ever adds findings — the
conservative direction for a linter.

Write classification per GIMPLE statement:
  name = _2;            plain store. If "name" is not a local or a
                        parameter of the function it is a global or a
                        static (function-local statics included) ->
                        flagged when reachable from a parallel body.
  arr[_5] = v;          indexed store to a shared array: flagged
                        unless the array is declared LS_LANE_LOCAL.
  *_6 = _7;  where      _6 loaded from __closure->__x: a write through
                        a by-reference lambda capture -> flagged.
  __atomic_*, .fetch_*  atomic RMW ops are calls, not stores: pass.
  this->field = v;      not flagged: per-object state is the calling
                        code's partitioning decision; the clang
                        thread-safety layer (LS_GUARDED_BY) covers the
                        shared-object case.

Lock identity at an acquisition site: `&this->mu_` inside Class::fn
canonicalizes to Class::mu_; a global mutex keeps its name; a mutex of
a function-local object is unordered-with-everything and ignored. The
scoped wrappers (std::lock_guard/unique_lock/scoped_lock, and the
project's SpinGuard/MutexLock in src/util/sync.hh) are recognized at
their project call sites; the wrapper bodies themselves are skipped so
all instances of a wrapper class do not collapse into one lock.

Usage:
  ls_race_lint.py --build-dir BUILD [--json OUT] [--jobs N] [-v]
  ls_race_lint.py --fixture FILE.cc [--project-root DIR] [--json OUT]
"""

import argparse
import json
import os
import re
import sys

import callgraph
from callgraph import (BUILTIN_PRUNE_MANGLED, EXEMPT_MARKER,
                       PARALLEL_BODY_MARKER)

CATEGORIES = ("race", "lockorder", "parallel-root")

CATEGORY_WHY = {
    "race": "shared write in parallel region",
    "lockorder": "lock-order inversion",
    "parallel-root": "unannotated parallel body",
}


# --------------------------------------------------------------------------
# Name normalization: joins VCG (c++filt) names with GIMPLE headers
# --------------------------------------------------------------------------

def strip_groups(s, open_c, close_c):
    out = []
    depth = 0
    for ch in s:
        if ch == open_c:
            depth += 1
        elif ch == close_c and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


_OPERATOR_RE = re.compile(r'operator\s*(\(\)|\[\]|""\s*\w+|[^\w\s(]+)')
_LAMBDA_NUM_RE = re.compile(r"\{lambda#?\d*\}")
_BRACKET_RE = re.compile(r"\[[^\]]*\]")
_CV_TAIL = {"const", "volatile", "&", "&&", "noexcept"}


def normalize_name(s):
    """Canonical join key for a function name.

    Collapses everything the two pretty-printers disagree on: return
    types, parameter lists, template arguments ("long" vs "long int",
    defaulted allocators), lambda spellings ({lambda(T)#1} vs
    <lambda(T)>), and anonymous-namespace markers. Distinct lambdas in
    one enclosing function collapse to one key; their facts union.
    """
    s = s.replace("(anonymous namespace)", "@anon")
    s = s.replace("{anonymous}", "@anon")
    s = _OPERATOR_RE.sub(
        lambda m: "operator@" + "".join("%x" % ord(c) for c in m.group(1)),
        s)
    s = strip_groups(s, "(", ")")
    s = _LAMBDA_NUM_RE.sub("@lambda", s)
    s = s.replace("<lambda>", "@lambda")
    s = strip_groups(s, "<", ">")
    s = _BRACKET_RE.sub("", s)
    # Qualifiers of an ENCLOSING member function sit mid-name after
    # paren stripping ("computeInto const::{lambda...}"); fuse them so
    # the last-token split below keeps the full qualified path.
    s = re.sub(r"\s+(?:const|volatile|noexcept|&&?)(\s*::)", r"\1", s)
    toks = s.split()
    while toks and toks[-1] in _CV_TAIL:
        toks.pop()
    if not toks:
        return ""
    return toks[-1].rstrip(";").lstrip(":*&")


def class_of(norm_name):
    """Enclosing scope of a normalized name ('' for free functions)."""
    return norm_name.rsplit("::", 1)[0] if "::" in norm_name else ""


# --------------------------------------------------------------------------
# GIMPLE parsing
# --------------------------------------------------------------------------

LOC_RE = re.compile(r"\[([^\[\]]*?):(\d+):(\d+)\]\s*")
# SSA-ish temporaries and compiler-synthesized names: _2, D.83198,
# g_counter.1_3, i.0_1, retval.6, SR.12 — never user state.
TEMP_RE = re.compile(r"^(_\d+|D\.\d+|\S+\.\d+(_\d+)?)$")
IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

SCOPED_ACQ_RE = re.compile(
    r"^(std::lock_guard<.*>::lock_guard|"
    r"std::unique_lock<.*>::unique_lock|"
    r"std::scoped_lock<.*>::scoped_lock|"
    r"longsight::SpinGuard::SpinGuard|"
    r"longsight::MutexLock::MutexLock)$")
SCOPED_REL_RE = re.compile(
    r"^(std::lock_guard<.*>::~lock_guard|"
    r"std::unique_lock<.*>::~unique_lock|"
    r"std::scoped_lock<.*>::~scoped_lock|"
    r"longsight::SpinGuard::~SpinGuard|"
    r"longsight::MutexLock::~MutexLock)$")
DIRECT_ACQ_RE = re.compile(
    r"^(std::(recursive_|timed_|shared_)?mutex::lock|"
    r"longsight::Mutex::lock|"
    r"longsight::SpinLock::lock|"
    r"pthread_mutex_lock)$")
DIRECT_REL_RE = re.compile(
    r"^(std::(recursive_|timed_|shared_)?mutex::unlock|"
    r"longsight::Mutex::unlock|"
    r"longsight::SpinLock::unlock|"
    r"pthread_mutex_unlock)$")

# Lock acquisitions inside the project's own wrapper bodies are skipped
# (the wrapper's this->_M_device would merge every instance into one
# lock); wrappers are instead recognized at their call sites above.
WRAPPER_SCOPES = (
    "longsight::Mutex", "longsight::MutexLock", "longsight::CondVar",
    "longsight::SpinLock", "longsight::SpinGuard",
)


class FuncFacts:
    __slots__ = ("name", "writes", "acquire_edges", "direct_locks",
                 "calls", "held_calls")

    def __init__(self, name):
        self.name = name
        # (file, line, col, var, kind) — kind: "global" | "captured"
        self.writes = []
        # (held_lockid, acquired_lockid, file, line, col)
        self.acquire_edges = []
        # lockids acquired anywhere in this function body
        self.direct_locks = set()
        # normalized callee names (for the lock transitive closure)
        self.calls = set()
        # (tuple of held lockids, callee, file, line, col)
        self.held_calls = []


def _decl_name(text):
    """Declared identifier from a GIMPLE decl line (sans 'static')."""
    text = text.split("[value-expr", 1)[0]
    text = text.split("=", 1)[0].rstrip().rstrip(";")
    if not text:
        return None
    tok = text.split()[-1].lstrip("*&")
    tok = tok.split("[", 1)[0]
    return tok if tok else None


def _split_args(argstr):
    out = []
    depth = 0
    cur = []
    for ch in argstr:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def _extract_call(text):
    """(callee, [args]) if `text` is `name (args)`, else None."""
    text = text.rstrip(";").rstrip()
    if not text.endswith(")") or text.startswith(("(", "if ", "goto ")):
        return None
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        ch = text[i]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
            if depth == 0:
                name = text[:i].rstrip()
                if not name or name.endswith((",", "=", "&", "*")):
                    return None
                return name, _split_args(text[i + 1:-1])
    return None


class GimpleParser:
    """Extracts per-function write-sets and lock sequences from a dump."""

    def __init__(self, project_root, directory, facts):
        self.root = os.path.realpath(project_root)
        self.directory = directory
        self.facts = facts            # dict norm_name -> FuncFacts
        self.path_cache = {}

    def in_project(self, fname):
        hit = self.path_cache.get(fname)
        if hit is None:
            p = fname
            if not os.path.isabs(p):
                p = os.path.join(self.directory, p)
            hit = os.path.realpath(p).startswith(self.root + os.sep)
            self.path_cache[fname] = hit
        return hit

    def parse(self, path):
        with open(path, "r", errors="replace") as f:
            lines = f.readlines()
        i = 0
        n = len(lines)
        while i < n:
            line = lines[i]
            if (not line[:1].isspace() and line.strip()
                    and not line.startswith(("__attribute__", ";;", "}",
                                             "{", "["))
                    and "(" in line):
                header = line.rstrip("\n")
                # Join wrapped headers until parens balance.
                while (header.count("(") > header.count(")")
                       and i + 1 < n):
                    i += 1
                    header += " " + lines[i].strip()
                i += 1
                i = self._parse_body(header, lines, i)
            else:
                i += 1
        return self.facts

    def _parse_body(self, header, lines, i):
        name = normalize_name(header)
        ff = self.facts.get(name)
        if ff is None:
            ff = self.facts[name] = FuncFacts(name)
        in_wrapper = class_of(name) in WRAPPER_SCOPES
        # Parameter names: last token of each top-level comma group.
        params = set()
        pstart = header.find("(")
        if pstart >= 0:
            inner = strip_groups(header[pstart + 1:header.rfind(")")],
                                 "(", ")")
            for piece in _split_args(inner):
                tok = _decl_name(piece + ";")
                if tok:
                    params.add(tok)
        locals_ = set(params)
        taint = {}       # temp -> captured variable name
        vals = {}        # temp -> RHS text (for lock-expr resolution)
        held = []        # [(lockid, guard_name, loc)]
        cls = class_of(name)

        def canon_lock(expr):
            """Canonical lock identity, or None to ignore."""
            expr = expr.strip()
            for _ in range(4):
                if expr.startswith("&"):
                    expr = expr[1:].strip()
                elif TEMP_RE.match(expr) and expr in vals:
                    expr = vals[expr].strip()
                else:
                    break
            if TEMP_RE.match(expr):
                return None
            expr = re.sub(r"\.D\.\d+", "", expr)
            if expr.startswith("this->"):
                return (cls + "::" + expr[6:]) if cls else expr[6:]
            base = re.split(r"\.|->|\[", expr, 1)[0]
            if not IDENT_RE.match(base):
                return None
            if base in locals_ or TEMP_RE.match(base):
                return None     # function-local object: unordered
            return expr

        def acquire(lockid, floc):
            for h, _, _ in held:
                ff.acquire_edges.append((h, lockid) + floc)
            ff.direct_locks.add(lockid)

        def note_write(lhs, floc, in_proj):
            """Classify a store's LHS; returns True if it was a temp."""
            if TEMP_RE.match(lhs):
                return True
            if not in_proj:
                return False
            if lhs.startswith("*"):
                # Store through a pointer: shared only if the pointer
                # is a loaded by-reference capture. An untainted deref
                # (matrix row, scratch slot, heap cell handed to this
                # lane) has an unknowable target — stay quiet.
                t = lhs.lstrip("*").strip()
                if t in taint:
                    ff.writes.append(floc + (taint[t], "captured"))
                return False
            if lhs.startswith("MEM"):
                # MEM[(T *)addr] block store; same rule as *ptr above.
                for t in re.findall(r"_\d+", lhs):
                    if t in taint:
                        ff.writes.append(floc + (taint[t], "captured"))
                        break
                return False
            m = re.match(r"^__closure->__(\w+)$", lhs)
            if m:
                ff.writes.append(floc + (m.group(1), "captured"))
                return False
            m = re.match(r"^(\w+(?:\.\d+)?(?:_\d+)?)->", lhs)
            if m:
                # p->f = v is a store through p, like *p = v. GIMPLE
                # loads a global pointer into a temporary before
                # dereferencing it (g_ptr.0_1->x = 1), so a bare name
                # here is a parameter or a local — even when a header
                # split by interleaved dump output hid the parameter
                # list. Only a loaded by-reference capture is shared.
                if m.group(1) in taint:
                    ff.writes.append(floc + (taint[m.group(1)],
                                             "captured"))
                return False
            base = re.split(r"\.|->|\[", lhs, 1)[0].strip()
            if (TEMP_RE.match(base)
                    or re.match(r"^(_\d+|D\.\d+|\w+\.\d+)", lhs)):
                # Member store into a compiler temporary (compound
                # literal / closure-object construction).
                return False
            if (IDENT_RE.match(base) and base != "this"
                    and base not in locals_):
                ff.writes.append(floc + (base, "global"))
            return False

        n = len(lines)
        while i < n:
            raw = lines[i]
            i += 1
            if raw.startswith("}"):
                break
            text = raw.strip()
            if not text or text in ("{", "}", "try", "catch", "finally"):
                continue
            locs = LOC_RE.findall(raw)
            clean = LOC_RE.sub("", raw).strip()
            if not locs:
                if "{CLOBBER" in clean or clean.startswith(("<", "goto",
                                                            "return")):
                    continue
                if clean.endswith(";"):
                    is_static = clean.startswith("static ")
                    dn = _decl_name(clean)
                    if dn and not is_static:
                        locals_.add(dn)
                continue
            fname, lno, col = locs[0]
            floc = (fname, int(lno), int(col))
            in_proj = self.in_project(fname)

            lhs = rhs = None
            if not clean.startswith(("if ", "if(", "goto", "return",
                                     "switch")):
                eq = clean.find(" = ")
                if eq > 0:
                    lhs = clean[:eq].strip()
                    rhs = clean[eq + 3:].strip().rstrip(";")

            # ---- call handling (locks, call graph) ----
            call = _extract_call(rhs if rhs is not None else clean)
            if call:
                callee_raw, args = call
                callee_raw = callee_raw.strip()
                if SCOPED_ACQ_RE.match(callee_raw):
                    if not in_wrapper and in_proj and len(args) >= 2:
                        guard = args[0].lstrip("&").strip()
                        for mexpr in args[1:]:
                            lid = canon_lock(mexpr)
                            if lid:
                                acquire(lid, floc)
                                held.append((lid, guard, floc))
                elif SCOPED_REL_RE.match(callee_raw):
                    guard = args[0].lstrip("&").strip() if args else ""
                    for k in range(len(held) - 1, -1, -1):
                        if held[k][1] == guard:
                            del held[k]
                            break
                elif DIRECT_ACQ_RE.match(callee_raw):
                    if not in_wrapper and in_proj and args:
                        lid = canon_lock(args[0])
                        if lid:
                            acquire(lid, floc)
                            held.append((lid, None, floc))
                elif DIRECT_REL_RE.match(callee_raw):
                    lid = canon_lock(args[0]) if args else None
                    for k in range(len(held) - 1, -1, -1):
                        if held[k][0] == lid:
                            del held[k]
                            break
                elif callee_raw.startswith(("__atomic", "__builtin",
                                            "__cxa", "__gthread")):
                    pass
                else:
                    cn = normalize_name(callee_raw)
                    if cn and (cn[0].isalpha() or cn[0] in "_@~"):
                        ff.calls.add(cn)
                        if held and in_proj:
                            ff.held_calls.append(
                                (tuple(h for h, _, _ in held), cn) + floc)
                # Taint never flows from call results; a call's LHS is
                # either a result temp or a real store of the result.
                if lhs is not None:
                    if note_write(lhs, floc, in_proj):
                        vals.pop(lhs, None)
                        taint.pop(lhs, None)
                continue

            # ---- assignment handling (writes, taint, lock temps) ----
            if lhs is None:
                continue
            if note_write(lhs, floc, in_proj):
                vals[lhs] = rhs
                m = re.match(r"^__closure->__(\w+)$", rhs)
                if m:
                    taint[lhs] = m.group(1)
                else:
                    # Propagate capture taint through casts and pointer
                    # arithmetic; a deref or any other shape clears it.
                    m = (re.match(r"^\((?:[^()]*)\)\s*(\S+)$", rhs)
                         or re.match(r"^(\S+)\s*[+-]\s*\S+$", rhs))
                    src = m.group(1) if m else None
                    if src is not None and src in taint:
                        taint[lhs] = taint[src]
                    else:
                        taint.pop(lhs, None)
        return i


# --------------------------------------------------------------------------
# LS_LANE_LOCAL collection
# --------------------------------------------------------------------------

LANE_LOCAL_RE = re.compile(r"LS_LANE_LOCAL\(\s*([A-Za-z_]\w*)\s*\)")


def collect_lane_local(paths):
    """Names declared lane-partitioned anywhere in the given sources."""
    names = set()
    for path in paths:
        try:
            with open(path, "r", errors="replace") as f:
                for line in f:
                    if "#define" in line:
                        continue   # the macro's own definition
                    for m in LANE_LOCAL_RE.finditer(line):
                        names.add(m.group(1))
        except OSError:
            continue
    return names


def project_sources(project_root, subdirs=("src",)):
    out = []
    for sub in subdirs:
        base = os.path.join(project_root, sub)
        for dirpath, _, files in os.walk(base):
            for fn in sorted(files):
                if fn.endswith((".cc", ".hh", ".h")):
                    out.append(os.path.join(dirpath, fn))
    return out


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

class RaceChecker:
    def __init__(self, graph, facts, project_root, lane_local,
                 verbose=False):
        self.graph = graph
        self.facts = facts
        self.src = callgraph.SourceIndex(project_root, CATEGORIES)
        self.lane_local = lane_local
        self.verbose = verbose
        self.diagnostics = []
        self.indirect_edges = 0
        self.marker_keys = set()
        self.exempt_keys = set()
        for key, node in graph.items():
            if node.mangled == PARALLEL_BODY_MARKER:
                self.marker_keys.add(key)
            elif node.mangled == EXEMPT_MARKER:
                self.exempt_keys.add(key)
        self.roots = set()
        self.exempt = set()
        for key, node in graph.items():
            for dst, _ in node.edges:
                if dst in self.marker_keys:
                    self.roots.add(key)
                if dst in self.exempt_keys:
                    self.exempt.add(key)

    # -- shared-write BFS -------------------------------------------------

    def check_shared_writes(self, directory):
        reported = set()
        for root_key in sorted(self.roots):
            root = self.graph[root_key]
            seen = {root_key}
            queue = [root_key]
            while queue:
                key = queue.pop(0)
                node = self.graph.get(key)
                if node is None:
                    continue
                self._check_node_writes(node, root, directory, reported,
                                        is_root=(key == root_key))
                for dst, _ in node.edges:
                    if (dst in seen or dst in self.marker_keys
                            or dst in self.exempt_keys
                            or dst in self.exempt):
                        continue
                    if dst == "__indirect_call":
                        self.indirect_edges += 1
                        continue
                    target = self.graph.get(dst)
                    if target is None:
                        continue
                    if target.mangled.startswith(BUILTIN_PRUNE_MANGLED):
                        continue
                    seen.add(dst)
                    queue.append(dst)

    def _check_node_writes(self, node, root, directory, reported,
                           is_root=False):
        ff = self.facts.get(normalize_name(node.pretty))
        if ff is None:
            return
        for fname, line, col, var, kind in ff.writes:
            if var in self.lane_local:
                continue
            if kind == "captured" and not is_root:
                # By-reference captures of lambdas created INSIDE the
                # lane refer to that lane's stack; only the parallel
                # body's own closure spans lanes.
                continue
            loc = "%s:%d:%d" % (fname, line, col)
            if (loc, var) in reported:
                continue
            if self.src.waived(loc, directory, "race"):
                continue
            reported.add((loc, var))
            what = ("state captured by reference" if kind == "captured"
                    else "global/static state")
            self.diagnostics.append({
                "file": fname, "line": line, "col": col, "loc": loc,
                "category": "race",
                "root": root.pretty,
                "var": var,
                "detail": "write to %s '%s'" % (what, var),
                "directory": directory,
            })

    # -- lock-order cycles ------------------------------------------------

    def check_lock_order(self, directory):
        # Transitive lock closure over the GIMPLE-level call graph.
        # Recursion is restricted to project-namespace callees: fact
        # nodes are keyed by template-stripped names, so one std node
        # (std::construct_at, std::vector::...) unions every
        # instantiation across the tree and would bridge unrelated
        # call chains into false cycles. Locks only live in project
        # wrappers, so project-to-project chains carry all real edges;
        # acquisitions reached only through std callbacks are out of
        # scope (as they already are for the indirect-call-free BFS).
        memo = {}

        def project_fn(fn):
            return fn.startswith(("longsight::", "@anon")) \
                or "::@anon" in fn or "@anon::" in fn

        def locks_tc(fn):
            done = memo.get(fn)
            if done is not None:
                return done
            memo[fn] = set()        # cycle guard
            ff = self.facts.get(fn)
            if ff is None:
                return memo[fn]
            acc = set(ff.direct_locks)
            for callee in ff.calls:
                if project_fn(callee):
                    acc |= locks_tc(callee)
            memo[fn] = acc
            return acc

        # Edge set: (held, acquired) -> first (file, line, col)
        edges = {}

        def add_edge(a, b, fname, line, col):
            if a == b:
                return   # re-entry of one lock: left to TSA/runtime
            loc = "%s:%d:%d" % (fname, line, col)
            if self.src.waived(loc, directory, "lockorder"):
                return
            edges.setdefault((a, b), (fname, line, col))

        for ff in self.facts.values():
            for a, b, fname, line, col in ff.acquire_edges:
                add_edge(a, b, fname, line, col)
            for held, callee, fname, line, col in ff.held_calls:
                for b in locks_tc(callee):
                    for a in held:
                        add_edge(a, b, fname, line, col)

        adj = {}
        for (a, b) in edges:
            adj.setdefault(a, set()).add(b)

        # Report every edge that lies on a cycle: b reaches a.
        def reaches(start, goal):
            seen = set()
            stack = [start]
            while stack:
                x = stack.pop()
                if x == goal:
                    return True
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj.get(x, ()))
            return False

        for (a, b), (fname, line, col) in sorted(edges.items()):
            if reaches(b, a):
                self.diagnostics.append({
                    "file": fname, "line": line, "col": col,
                    "loc": "%s:%d:%d" % (fname, line, col),
                    "category": "lockorder",
                    "root": a,
                    "var": b,
                    "detail": "'%s' acquired while holding '%s', but the "
                              "reverse order also exists" % (b, a),
                    "directory": directory,
                })

    # -- parallel-root coverage -------------------------------------------

    PARALLEL_CALL_RE = re.compile(r"(?:\.|->)parallelFor(?:Each)?\s*\(")
    ROOT_WINDOW = 8

    def check_parallel_roots(self, paths, directory):
        for path in paths:
            base = os.path.basename(path)
            if base.startswith("thread_pool."):
                continue   # the implementation itself
            lines = self.src.lines_of(path)
            for idx, line in enumerate(lines):
                m = self.PARALLEL_CALL_RE.search(line)
                if m is None:
                    continue
                window = lines[idx:idx + self.ROOT_WINDOW]
                if any("LS_PARALLEL_BODY" in w for w in window):
                    continue
                loc = "%s:%d:%d" % (path, idx + 1, m.start() + 1)
                if self.src.waived(loc, directory, "parallel-root"):
                    continue
                self.diagnostics.append({
                    "file": path, "line": idx + 1, "col": m.start() + 1,
                    "loc": loc,
                    "category": "parallel-root",
                    "root": "", "var": "",
                    "detail": "parallelFor body without LS_PARALLEL_BODY()"
                              " within %d lines" % self.ROOT_WINDOW,
                    "directory": directory,
                })

    def run(self, directory, source_paths):
        self.check_shared_writes(directory)
        self.check_lock_order(directory)
        self.check_parallel_roots(source_paths, directory)
        self.diagnostics.sort(
            key=lambda d: (d["file"], d["line"], d["col"], d["category"]))
        return self.diagnostics


def print_diagnostics(diags, stream=sys.stdout):
    for d in diags:
        print("%s: error: [ls-race:%s] %s"
              % (d["loc"], d["category"], d["detail"]), file=stream)
        if d.get("root"):
            if d["category"] == "race":
                print("    parallel root: %s" % d["root"], file=stream)
            elif d["category"] == "lockorder":
                print("    cycle through: %s -> %s -> ... -> %s"
                      % (d["root"], d["var"], d["root"]), file=stream)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def analyze(artifacts, project_root, source_paths, verbose):
    """Build graph + facts from compile artifacts and run all checks."""
    graph = {}
    facts = {}
    for path, art in sorted(artifacts.items()):
        callgraph.parse_ci(art["ci"], os.path.basename(path), graph)
        GimpleParser(project_root, os.path.dirname(path),
                     facts).parse(art["gimple"])
    callgraph.finalize_graph(graph)
    lane_local = collect_lane_local(source_paths)
    checker = RaceChecker(graph, facts, project_root, lane_local, verbose)
    if verbose:
        print("race-lint: %d TUs, %d graph nodes, %d GIMPLE functions, "
              "%d parallel roots, %d lane-local names"
              % (len(artifacts), len(graph), len(facts),
                 len(checker.roots), len(lane_local)), file=sys.stderr)
        for k in sorted(checker.roots):
            print("  root: %s" % graph[k].pretty, file=sys.stderr)
    diags = checker.run(project_root, source_paths)
    return diags, checker


def lint_build(build_dir, project_root, jobs, verbose, only=None):
    build_dir = os.path.realpath(build_dir)
    root = os.path.realpath(project_root)
    tus = callgraph.project_tus(build_dir, root, only)
    cache_dir = os.path.join(build_dir, "lint-cache")
    artifacts, _stats = callgraph.compile_all(tus, cache_dir, jobs, verbose)
    sources = project_sources(root)
    diags, checker = analyze(artifacts, root, sources, verbose)
    return diags, checker, len(tus)


def lint_fixture(path, project_root, verbose):
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    args = ["g++" if "CXX" not in os.environ else os.environ["CXX"],
            "-std=c++20", "-I",
            os.path.join(os.path.realpath(project_root), "src"), path]
    cache_dir = os.path.join(directory, ".lint-cache")
    os.makedirs(cache_dir, exist_ok=True)
    art = callgraph.compile_tu(args, directory, verbose=verbose,
                               cache_dir=cache_dir)
    # The fixture directory is the analysis root: only writes and lock
    # sites inside the fixture itself are considered.
    diags, checker = analyze({path: art}, directory, [path], verbose)
    return diags, checker, 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", help="CMake build dir with "
                                        "compile_commands.json")
    ap.add_argument("--fixture", help="lint one standalone fixture file")
    ap.add_argument("--project-root",
                    default=os.path.realpath(
                        os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir)))
    ap.add_argument("--json", help="write diagnostics as JSON to this file")
    ap.add_argument("--jobs", type=int,
                    default=max(1, (os.cpu_count() or 1)))
    ap.add_argument("--only", action="append",
                    help="restrict to TUs whose path contains SUBSTR")
    ap.add_argument("-v", "--verbose", action="store_true")
    opts = ap.parse_args()

    if bool(opts.build_dir) == bool(opts.fixture):
        ap.error("exactly one of --build-dir / --fixture is required")

    if opts.fixture:
        diags, checker, ntus = lint_fixture(
            opts.fixture, opts.project_root, opts.verbose)
    else:
        diags, checker, ntus = lint_build(
            opts.build_dir, opts.project_root, opts.jobs, opts.verbose,
            opts.only)

    print_diagnostics(diags)
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump({"diagnostics": diags,
                       "roots": sorted(
                           checker.graph[k].pretty for k in checker.roots),
                       "tus": ntus}, f, indent=1)
    if diags:
        print("ls-race-lint: %d parallel-safety violation(s) across %d "
              "parallel root(s) in %d TU(s)"
              % (len(diags), len(checker.roots), ntus), file=sys.stderr)
        return 1
    print("ls-race-lint: OK (%d parallel roots, %d TUs, %d indirect "
          "edges not traversed)" % (len(checker.roots), ntus,
                                    checker.indirect_edges))
    return 0


if __name__ == "__main__":
    sys.exit(main())
