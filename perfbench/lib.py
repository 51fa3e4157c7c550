"""Helpers for perfbench/run.py: seeded inputs, the tail-percentile
rule, span self time, and the Chrome trace export. Pure functions of
their arguments, so perfbench/test_lib.py can pin them down."""

import hashlib
import math
import random
import statistics

# Per workload: thread count of the measured run, the thread count its
# warm-up digest is cross-checked at, and the unit one "op" stands for.
WORKLOADS = {
    "decode_long": {"threads": 1, "alt_threads": 2, "op": "turn"},
    "prompt_sparse": {"threads": 2, "alt_threads": 1, "op": "prompt"},
    "serve_mixed": {"threads": 2, "alt_threads": 1, "op": "iteration"},
}

# trace.coverage (replay time / pipeline time for the same ops) must
# stay inside this band: the replay issues the pipeline's calls, so a
# pipeline change it does not mirror moves the ratio.
COVERAGE_BAND = (0.80, 1.25)

STANDING_CONTEXT = 8192  # decode_long's prefilled context, tokens
MIX_LENGTH = 2000        # requests generated; far more than a run uses


def stratified(rng, lo, hi, count, block=16):
    """count integers in [lo, hi]: each run of `block` values is a
    seeded shuffle of the same evenly spaced ladder, so every seed
    draws the same size distribution and only the order differs."""
    ladder = [lo + round((hi - lo) * i / (block - 1)) for i in range(block)]
    out = []
    while len(out) < count:
        rung = ladder[:]
        rng.shuffle(rung)
        out.extend(rung)
    return out[:count]


# The first requests of each mix, which the set-up's warm-up ops
# consume: fixed mid-range sizes, so set-up does the same amount of
# work for every seed (only the token data changes).
WARMUP_LEAD = {
    "decode_long": [(2, 2)] * 2,
    "prompt_sparse": [(6144, 2)] * 2,
    "serve_mixed": [(1280, 40)] * 6,
}


def make_mix(workload, seed):
    """The workload's (prompt_tokens, output_tokens) requests for a seed.

    decode_long: the standing context, then short-answer turns of 1-4
    user tokens and 2 answer tokens. prompt_sparse: 4K-8K prompts, 2
    output tokens (the first sets TTFT, the second gives a TBT).
    serve_mixed: 512-2048-token prompts with 16-64 output tokens.
    """
    if workload not in WARMUP_LEAD:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    n = MIX_LENGTH
    if workload == "decode_long":
        head = [(STANDING_CONTEXT, 0)]
        rest = [(u, 2) for u in stratified(rng, 1, 4, n, block=4)]
    elif workload == "prompt_sparse":
        head = []
        rest = [(p, 2) for p in stratified(rng, 4096, 8192, n)]
    else:
        head = []
        rest = list(zip(stratified(rng, 512, 2048, n),
                        stratified(rng, 16, 64, n)))
    return head + WARMUP_LEAD[workload] + rest


def pipeline_seed(seed):
    """The 63-bit seed the pipelines draw their token streams from."""
    digest = hashlib.sha256(f"longsight-perfbench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# Candidate percentiles for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def highest_tail(n):
    """The highest ladder percentile with MIN_BEYOND samples beyond it,
    or None when even the lowest has too few."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values, p):
    """Nearest-rank p-th percentile; refuses a tail with fewer than
    MIN_BEYOND samples beyond it."""
    n = len(values)
    if samples_beyond(n, p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; have {n} samples")
    return sorted(values)[rank(n, p) - 1]


def median(values):
    if not values:
        raise TooFewSamples("no samples")
    return statistics.median(values)


def windowed_rate(tokens, ms, windows=10):
    """Tokens per second as the median over `windows` consecutive runs
    of calls (each sum of tokens / sum of time), so a burst of host
    interference moves one window, not the result."""
    n = len(tokens)
    if n < windows:
        raise TooFewSamples(f"{windows} windows need {windows} calls; have {n}")
    bounds = [round(i * n / windows) for i in range(windows + 1)]
    rates = [1000.0 * sum(tokens[a:b]) / sum(ms[a:b])
             for a, b in zip(bounds, bounds[1:])]
    return statistics.median(rates)


def union_length(intervals):
    """Total length covered by a set of [begin, end) intervals."""
    total = 0
    cur_begin = cur_end = None
    for begin, end in sorted(intervals):
        if cur_end is None or begin > cur_end:
            if cur_end is not None:
                total += cur_end - cur_begin
            cur_begin, cur_end = begin, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_begin
    return total


def self_times(spans):
    """Map span id -> its duration minus the union of its children's
    intervals (clipped to the span). spans: dicts with id, parent,
    begin, end."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        clipped = [(max(c["begin"], s["begin"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        result[s["id"]] = (s["end"] - s["begin"]) - covered
    return result


def read_spans(path):
    """Spans as perfbench_measure writes them: name tid id parent begin end."""
    spans = []
    with open(path) as f:
        for line in f:
            name, tid, sid, parent, begin, end = line.split()
            spans.append({"name": name, "tid": int(tid), "id": int(sid),
                          "parent": int(parent), "begin": int(begin),
                          "end": int(end)})
    return spans


def self_time_by_name(spans):
    """name -> (count, total ns, self ns)."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        count, total, own = out.get(s["name"], (0, 0, 0))
        out[s["name"]] = (count + 1, total + s["end"] - s["begin"],
                          own + selfs[s["id"]])
    return out


def busy_under(spans, prefix):
    """Self time summed over every span inside (or being) a span whose
    name starts with prefix: the thread-summed time of those calls."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    memo = {}

    def inside(s):
        if s["id"] in memo:
            return memo[s["id"]]
        parent = by_id.get(s["parent"])
        hit = s["name"].startswith(prefix) or (
            parent is not None and inside(parent))
        memo[s["id"]] = hit
        return hit

    return sum(selfs[s["id"]] for s in spans if inside(s))


def chrome_trace(spans, metadata, limit=50000):
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)
    of the first `limit` spans by start time, which keeps the file of a
    long serving run to a few MB."""
    kept = sorted(spans, key=lambda s: s["begin"])[:limit]
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
               "ts": s["begin"] / 1000.0,
               "dur": (s["end"] - s["begin"]) / 1000.0,
               "args": {"id": s["id"], "parent": s["parent"]}}
              for s in kept]
    other = dict(metadata, spans_total=len(spans), spans_written=len(kept))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}
