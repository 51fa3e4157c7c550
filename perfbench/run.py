#!/usr/bin/env python3
"""LongSight benchmark: one command per workload run.

    python3 perfbench/run.py --workload decode_long --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
LongSight libraries from src/) under $CARGO_TARGET_DIR or .bench_build,
generates the workload's inputs from --seed, runs the measurement
program, checks its outputs, and prints a provenance line, a metric
table and, as the last line, the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the layer
replay and reports the per-layer metrics, with a self-time summary and
a Chrome trace-event file. Exits 1 on any correctness failure and 2
when the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import lib  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_TYPE = "Release"
TIME_LIMIT_S = 175.0  # every run must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir, deadline):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench_measure"


def source_digest(root):
    """Commit id when the checkout is a git tree, else a hash of src/."""
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=root, capture_output=True, text=True,
                           timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:12]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    """The end-to-end metrics of an untraced run."""
    return {
        "decode_tok_s": metric(
            lib.windowed_rate(raw["decode_tokens"], raw["decode_ms"]),
            "tok/s"),
        "prefill_tok_s": metric(
            lib.windowed_rate(raw["prefill_tokens"], raw["prefill_ms"]),
            "tok/s"),
        "tbt_ms_p50": metric(lib.median(raw["tbt_ms"]), "ms"),
        "tbt_ms_p90": metric(lib.tail(raw["tbt_ms"], 90), "ms"),
        "ttft_ms_p50": metric(lib.median(raw["ttft_ms"]), "ms"),
        "ttft_ms_p90": metric(lib.tail(raw["ttft_ms"], 90), "ms"),
        "setup_s": metric(lib.median(raw["setup_s"]), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "retained_mass_mean": metric(
            sum(raw["mass"]) / len(raw["mass"]), "ratio"),
    }


# Per-layer time metrics: the span whose self time they sum, per op.
LAYER_SPANS = {
    "model.workload.append_ms": "workload.append",
    "model.workload.draw_ms": "workload.draw",
    "model.workload.generate_ms": "workload.generate",
    "core.kv_cache.append_ms": "kv_cache.append",
    "drex.offload_ms": "drex.offload",
    "drex.write_ms": "drex.write",
    "tensor.kernels.score_select_ms": "kernels.score_select",
    "core.attention.combine_ms": "attention.combine",
    "core.attention.dense_verify_ms": "attention.dense_verify",
    "core.prefill_attention.advance_ms": "prefill_attention.advance",
    "sim.decode_pipeline.step_self_ms": "pipeline.decode_step",
}
# The harness share: synthetic token generation plus verification
# (verify A is the software score/select, verify B the dense pass).
HARNESS_SPANS = ("workload.append", "workload.draw", "workload.generate",
                 "kernels.score_select", "attention.dense_verify")


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(raw, by_name, spans):
    ops = raw["ops"]
    own = {name: v[2] for name, v in by_name.items()}
    m = {name: metric(own.get(span, 0) / 1e6 / ops, "ms")
         for name, span in LAYER_SPANS.items()}
    busy = lib.busy_under(spans, "pipeline.")
    m.update({
        "core.kv_block_pool.occupancy": metric(mean(raw["occupancy"]),
                                               "ratio"),
        "drex.offload_sim_us": metric(
            raw["offload_sim_us"] / max(1, raw["offloads"]), "sim_us"),
        "drex.write_tokens": metric(raw["write_tokens"] / ops, "count"),
        "tensor.kernels.keys_scanned": metric(raw["keys_scanned"] / ops,
                                              "count"),
        "tensor.kernels.survivor_frac": metric(
            raw["survivors"] / max(1, raw["keys_scanned"]), "ratio"),
        "core.prefill_attention.block_skip_frac": metric(
            raw["prefill_block_skip_frac"], "ratio"),
        "core.prefill_attention.attended_frac": metric(
            raw["prefill_attended_frac"], "ratio"),
        "sim.decode_pipeline.harness_frac": metric(
            sum(own.get(s, 0) for s in HARNESS_SPANS) / max(1, busy),
            "ratio"),
        "serve.queue_wait_ms": metric(mean(raw["queue_wait_ms"]), "ms"),
        "serve.batch_size_mean": metric(mean(raw["batch_sizes"]), "count"),
        "serve.chunk_stall_ms": metric(mean(raw["chunk_stall_ms"]), "ms"),
        "trace.coverage": metric(raw["replay_s"] / raw["real_s"], "ratio"),
        "trace.overhead_frac": metric(
            raw["span_count"] * raw["span_cost_ns"] / (raw["replay_s"] * 1e9),
            "ratio"),
    })
    return m


def print_metrics(metrics, extra):
    width = max(len(k) for k in list(metrics) + list(extra))
    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def print_self_times(by_name, raw, op):
    # Shares are of busy time; a queue wait is time no call ran.
    total_self = sum(v[2] for name, v in by_name.items()
                     if name != "serve.queue_wait") or 1
    ops = raw["ops"]
    print(f"self time per {op} (replay, thread-summed; {ops} {op}s):")
    print(f"  {'span':<28} {'count':>8} {'total ms':>10} {'self ms':>10}"
          f" {'self %':>7}")
    for name, (count, total, own) in sorted(by_name.items(),
                                            key=lambda kv: -kv[1][2]):
        share = ("   wait" if name == "serve.queue_wait"
                 else f"{100.0 * own / total_self:6.1f}%")
        print(f"  {name:<28} {count / ops:8.1f} {total / 1e6 / ops:10.3f}"
              f" {own / 1e6 / ops:10.3f} {share}")
    print(f"  untraced pipeline: {raw['real_s'] * 1e3 / ops:.3f} ms per "
          f"{op}; replay: {raw['replay_s'] * 1e3 / ops:.3f} ms per {op}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(lib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = lib.WORKLOADS[args.workload]

    root = pathlib.Path.cwd()
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        program = build(build_dir, time.monotonic() + 850.0)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: cannot build: {e}")
        return 2
    # A first run's build may take its own long budget; the measured
    # part must still end within the per-run limit.
    deadline = max(deadline, time.monotonic() + 150.0)

    work = build_dir / "runs"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    mix_path = work / f"{tag}.mix"
    mix_path.write_text("".join(f"{p} {o}\n" for p, o in
                                lib.make_mix(args.workload, args.seed)))
    spans_path = work / f"{tag}.spans"
    cmd = [str(program), "--workload", args.workload, "--mix", str(mix_path),
           "--seed", str(lib.pipeline_seed(args.seed)),
           "--seconds", str(args.seconds), "--threads", str(spec["threads"]),
           "--alt-threads", str(spec["alt_threads"]),
           "--trace", str(args.trace), "--spans", str(spans_path)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: perfbench_measure did not finish: {e}")
        return 2
    if r.returncode != 0 or not r.stdout.strip():
        log(f"perfbench: perfbench_measure exited with {r.returncode}")
        return 2
    raw = json.loads(r.stdout.strip().splitlines()[-1])

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "commit": source_digest(root),
        "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "kernel_backend": raw["kernel_backend"],
        "threads": raw["threads"], "alt_threads": raw["alt_threads"],
        "host_time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print("provenance " + json.dumps(provenance))

    problems = []
    if raw["failed"]:
        problems.append(f"{raw['failed']} failed operations "
                        f"(first: {raw['first_failure']})")
    try:
        if args.trace == 0:
            if raw["warmup_failed"]:
                problems.append("a warm-up step failed")
            if not raw["digest_same_seed"]:
                problems.append("output digest differs between same-seed "
                                "set-ups")
            if not raw["digest_threads"]:
                problems.append(f"output digest differs between "
                                f"{spec['threads']} and "
                                f"{spec['alt_threads']} threads")
            metrics = end_to_end(raw)
            print(f"{args.workload}: end-to-end (digest {raw['digest']}; "
                  f"{len(raw['tbt_ms'])} TBT and {len(raw['ttft_ms'])} TTFT "
                  f"samples, highest supported tails "
                  f"p{lib.highest_tail(len(raw['tbt_ms']))} / "
                  f"p{lib.highest_tail(len(raw['ttft_ms']))})")
            failed_frac = raw["failed"] / max(1, raw["attempted"])
            print_metrics(metrics, {
                "failed_frac": metric(failed_frac, "ratio"),
                "retained_mass_min": metric(raw["mass_min"], "ratio")})
        else:
            spans = lib.read_spans(spans_path)
            by_name = lib.self_time_by_name(spans)
            metrics = per_layer(raw, by_name, spans)
            if raw["drift"]:
                problems.append(f"replay results differ from the pipeline "
                                f"on {raw['drift']} steps")
            if raw["device_mismatches"] or raw["real_failed"]:
                problems.append("replay device top-k differs from its "
                                "software selection")
            lo, hi = lib.COVERAGE_BAND
            coverage = metrics["trace.coverage"]["value"]
            if not lo <= coverage <= hi:
                problems.append(f"trace.coverage {coverage:.3f} outside "
                                f"[{lo}, {hi}]")
            trace_path = build_dir / "traces" / f"{tag}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(
                lib.chrome_trace(spans, provenance), separators=(",", ":")))
            print_self_times(by_name, raw, spec["op"])
            print(f"{args.workload}: per-layer (per {spec['op']}; "
                  f"Chrome trace {os.path.relpath(trace_path, root)})")
            print_metrics(metrics, {})
    except (lib.TooFewSamples, ZeroDivisionError, KeyError) as e:
        log(f"perfbench: cannot compute metrics: {e}")
        return 2

    for p in problems:
        log(f"perfbench: INCORRECT: {p}")
    result = {"correct": not problems, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
