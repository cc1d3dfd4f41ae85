#!/usr/bin/env python3
"""Layered benchmark of awgshuffle, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, one process each
    python3 perfbench/run.py --smoke                    # seconds-scale run of all three

A run imports the package from ``src/`` of the checkout, measures whole
passes over its workload's ladder for about ``--seconds`` seconds, checks
every output, and prints ``# ``-prefixed summary lines followed by one JSON
result line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports per-layer metrics from a traced phase (see ``layers.py``) and
writes its spans to ``.perfbench_out/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

import layers
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 11
# Enough operations that at least ten lie above the 90th percentile.
MIN_OPS = 100
IMPORT_PROBES = 5
CLI_COMMANDS = ("synth", "verify", "trace", "tradeoff", "oracle")
# Share of --seconds for the traced passes of a traced run; the untraced
# passes interleaved with them take as much again.
TRACE_PHASE_SHARE = 0.3


def make_env() -> wl.Env:
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    return wl.Env(workdir, dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))


def run_passes(workload, pkg, env, rec, rng, ladder, seconds: float, min_ops: int = 1) -> int:
    """Whole passes over ``ladder`` for at most about ``seconds``, but at
    least one pass and until ``min_ops`` operations have run."""
    start = perf_counter()
    passes = 0
    while True:
        workload.run_pass(pkg, env, rec, rng, ladder)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds and len(rec.latencies) >= min_ops:
            return passes


def ops_per_s(rec: wl.Recorder) -> float:
    return len(rec.latencies) / sum(rec.corrected())


def timed_probe(argv: list[str]) -> tuple[float, str]:
    """Seconds from starting ``argv`` to its first stdout line, and that line."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    return elapsed, (line.strip() if proc.returncode == 0 else "")


def measure_setup(name: str, seed: int, rec: wl.Recorder) -> float:
    """Median time from process start to the end of one warm-up operation.

    Not corrected by the reference job: start-up is mostly exec, page
    faults and imports, whose speed the job does not track.
    """
    times = []
    for _ in range(SETUP_PROBES):
        rec.attempted += 1
        elapsed, line = timed_probe([sys.executable, os.path.abspath(__file__),
                                     "--probe-setup", "--workload", name, "--seed", str(seed)])
        if line != "ready":
            rec.fail(f"setup probe of {name} did not get ready")
        times.append(elapsed)
    return statistics.median(times)


def probe_setup(name: str, seed: int) -> int:
    pkg = wl.Package(ROOT)
    env = make_env()
    try:
        workload = wl.WORKLOADS[name]
        rec = wl.Recorder()
        workload.run_pass(pkg, env, rec, random.Random(f"{name}:{seed}"), workload.warmup)
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)
    if rec.failed:
        print("\n".join(rec.failures), file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def end_to_end_metrics(latencies: list[float], channels: int, setup_s: float) -> dict:
    busy = sum(latencies)
    lat_ms = [x * 1e3 for x in latencies]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat_ms) / busy, "1/s"),
        "channels_per_s": (channels / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def cli_process_metrics(pkg, env, rng, ladder, seconds: float, rec: wl.Recorder) -> dict:
    """Wall time per CLI command in fresh processes, and the package import time."""
    workload = wl.WORKLOADS["cli-queries"]
    env.cli_inprocess = False
    run_passes(workload, pkg, env, rec, rng, ladder, seconds)
    metrics = {}
    for command in CLI_COMMANDS:
        times = rec.by_kind.get(command)
        metrics[f"cli.{command}.process_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import awgshuffle.cli; print((time.perf_counter() - t) * 1e3, flush=True)")
    imports = []
    for _ in range(IMPORT_PROBES):
        rec.attempted += 1
        _, line = timed_probe([sys.executable, "-c", code, pkg.src])
        try:
            imports.append(float(line))
        except ValueError:
            rec.fail("import probe printed no time")
    metrics["cli.import_ms"] = (statistics.median(imports) if imports else 0.0, "ms")
    return metrics


def traced_metrics(workload, pkg, env, rng, ladder, memory_ladder, seconds, recs,
                   spans_path) -> dict:
    """Per-layer metrics: alternating untraced and traced passes, then a
    tracemalloc pass (and, for cli-queries, fresh CLI processes)."""
    phase = seconds * TRACE_PHASE_SHARE
    is_cli = workload.name == "cli-queries"
    env.cli_inprocess = is_cli  # replay the queries through cli_main in this process

    tracer = layers.Tracer()
    untraced, traced = wl.Recorder(), wl.Recorder(tracer)
    recs += [untraced, traced]
    passes = 0
    start = perf_counter()
    while True:
        workload.run_pass(pkg, env, untraced, rng, ladder)
        installed = layers.Installed(tracer)
        try:
            workload.run_pass(pkg, env, traced, rng, ladder)
        finally:
            installed.remove()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > 2 * phase:
            break

    mem_tracer = layers.Tracer(memory=True)
    mem_rec = wl.Recorder(mem_tracer)
    recs.append(mem_rec)
    installed = layers.Installed(mem_tracer)
    tracemalloc.start()
    try:
        workload.run_pass(pkg, env, mem_rec, rng, memory_ladder)
    finally:
        tracemalloc.stop()
        installed.remove()

    metrics = layers.layer_metrics(tracer, passes, traced.channels, mem_tracer)
    plain_rate, traced_rate = ops_per_s(untraced), ops_per_s(traced)
    metrics["tracing.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["tracing.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["tracing.overhead_ops_per_s"] = (traced_rate - plain_rate, "1/s")
    metrics["tracing.overhead_share"] = (1 - traced_rate / plain_rate, "ratio")
    if is_cli:
        process = wl.Recorder()
        recs.append(process)
        metrics.update(cli_process_metrics(pkg, env, rng, ladder, phase, process))
    else:
        metrics["cli.import_ms"] = (0.0, "ms")
        for command in CLI_COMMANDS:
            metrics[f"cli.{command}.process_ms"] = (0.0, "ms")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    # Machine speed changes per core within a fraction of a second; on one
    # core the reference job sees the speed the operations (and the CLI
    # processes, which inherit the mask) run at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = wl.WORKLOADS[name]
    ladder = workload.smoke_ladder if smoke else workload.ladder
    pkg = wl.Package(ROOT)
    recs = [wl.Recorder()]  # recs[0]: warm-up and set-up probes
    setup_s = None if trace else measure_setup(name, seed, recs[0])
    env = make_env()
    rng = random.Random(f"{name}:{seed}")
    try:
        workload.run_pass(pkg, env, recs[0], rng, workload.warmup)
        if trace:
            spans_path = os.path.join(ROOT, ".perfbench_out", f"spans-{name}-seed{seed}.jsonl")
            memory_ladder = workload.warmup if smoke else workload.memory_ladder
            metrics = traced_metrics(workload, pkg, env, rng, ladder, memory_ladder, seconds,
                                     recs, spans_path)
            passes = None
        else:
            rec = wl.Recorder()
            recs.append(rec)
            passes = run_passes(workload, pkg, env, rec, rng, ladder, seconds,
                                1 if smoke else MIN_OPS)
            corrected = rec.corrected()
            metrics = end_to_end_metrics(corrected, rec.channels, setup_s)
            raw = end_to_end_metrics(rec.latencies, rec.channels, setup_s)
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    for rec in recs:
        for what in rec.failures:
            print(f"perfbench: FAILED {what}", file=sys.stderr)
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"
          f"  smoke {int(smoke)}")
    print("# ladder " + " ".join(f"{e[0]}:{wl.shape_text(e[1])}" if name == "cli-queries"
                                 else wl.shape_text(e) for e in ladder))
    if passes is not None:
        beyond = sum(1 for x in corrected if x * 1e3 > metrics["op_p90_ms"][0])
        print(f"# passes {passes}  ops {len(corrected)}  ops above p90 {beyond}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value:.6g} {unit}"
              + (f"  (as measured {raw[key][0]:.6g})" if passes is not None else ""))
    print(f"# failed_ops_ratio {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_many(names, seed: int, seconds: float, traces, smoke: bool) -> int:
    """Each workload in its own process; prints their summaries and one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        for trace in traces:
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            combined["correct"] &= result["correct"] and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["workloads"][f"{name}/trace{trace}"] = result["metrics"]
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default 25, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny ladders, every check kept; with 'all', traced and untraced")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    workload = args.workload or ("all" if args.smoke else None)
    if workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 25.0)
    if workload == "all":
        traces = [args.trace] if args.trace is not None else ([0, 1] if args.smoke else [0])
        return run_many(list(wl.WORKLOADS), args.seed, seconds, traces, args.smoke)
    return run_workload(workload, args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
