#!/usr/bin/env python3
"""schurest benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory): exact-small, exact-large,
cli-cold, scan.  Run from the root of a source checkout; the library is
imported from ``src``.  The run

1. measures set-up (import, seeded inputs, cache warm-up) three times:
   twice in fresh child processes and once in this process;
2. runs whole rounds of operations, closed loop with one client, until
   ``--seconds`` have passed, checking every output outside the timed region;
3. prints a summary, then as its last line one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` rounds alternate between untraced and traced, the latter
with spans around every public function of every schurest module; the
metrics are then the per-layer ones, and ``trace.overhead`` is the traced
mean operation time over the untraced one.  Spans and a result file with
the run facts go to ``perfbench/out``.  The exit code is 0 when every
operation passed its check, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("exact-small", "exact-large", "cli-cold", "scan")
SETUP_PROBES = 2  # fresh processes that measure set-up, besides this one
BLAS_THREADS = "1"  # matrices are at most 4x4; threads cannot help
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# op_ms.tail is the highest of these percentiles with >= 10 samples beyond it
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare_environment(workdir: str) -> None:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = SRC
    os.environ["TMPDIR"] = workdir  # `verify` writes temporary files
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def set_up(args, workdir: str):
    """Import, seeded inputs and warm-up; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, tiny=args.tiny)
    wl.setup(args.seed, workdir)
    return wl, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """Set-up time measured in fresh processes, one alive at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Segment:
    """Latencies and problems of the operations of one kind of round."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.children: list = []  # (ChildResult, op id) on cli-cold
        self.rss_kb = 0  # this process's peak RSS when the first round ended

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_loop(wl, seconds: float, tracer=None) -> tuple[Segment, Segment]:
    """Whole rounds until `seconds` have passed; returns (untraced, traced).

    With a tracer, rounds alternate between untraced and traced, so that
    drift in the machine's speed falls on both alike.
    """
    plain, traced = Segment(), Segment()
    start = time.perf_counter()
    index = op_id = 0
    while True:
        tracing = tracer is not None and index % 2 == 1
        if tracer is not None:
            if tracing:
                tracer.install()
            else:
                tracer.uninstall()
            wl.traced = tracing  # cli-cold then starts traced child processes
        seg = traced if tracing else plain
        for op in wl.round(index):
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                result = wl.run(op)
                error = None
            except Exception as exc:  # counted as a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            seg.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.drain()
            problems = [error] if error else wl.check(op, result)
            if problems:
                seg.failed += 1
                seg.problems.extend(problems)
            if hasattr(result, "maxrss_kb"):
                seg.children.append((result, op_id))
            op_id += 1
        index += 1
        if index == 1:
            # read here, the peak would grow with the number of rounds that fit
            seg.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - start >= seconds and (tracer is None or index >= 2):
            if tracer is not None:
                tracer.uninstall()
            return plain, traced


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_summary(latencies) -> dict:
    ms = sorted(x * 1e3 for x in latencies)
    count = len(ms)
    tail_q = next((q for q in TAIL_LADDER if count * (100.0 - q) / 100.0 >= 10), 50.0)
    return {
        "samples": count,
        "p50_ms": percentile(ms, 50.0),
        "tail_percentile": tail_q,
        "tail_beyond": int(count * (100.0 - tail_q) / 100.0),
        "tail_ms": percentile(ms, tail_q),
        "busy_s": sum(latencies),
    }


def end_to_end(seg: Segment, setup_times, cli: bool) -> tuple[dict, dict]:
    lat = latency_summary(seg.latencies)
    if cli:
        rss_kb = max((child.maxrss_kb for child, _ in seg.children), default=0)
    else:
        rss_kb = seg.rss_kb
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": seg.attempted / lat["busy_s"],
        "op_ms.p50": lat["p50_ms"],
        "op_ms.tail": lat["tail_ms"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "latency": lat,
        "setup_samples_s": setup_times,
    }
    return values, extra


def run_facts(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head  # a checkout without .git inside another repository has none
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": commit,
    }


def trace_metrics(wl, seg: Segment, tracer, untraced: Segment, seed: int) -> tuple[dict, dict]:
    import tracer as tracing

    spans = list(tracer.spans)
    counters = dict(tracer.counters)
    cli = None
    if seg.children:
        cli = {"import_s": 0.0, "main_s": 0.0, "process_s": 0.0}
        for child, op in seg.children:
            header, child_spans = tracing.read_dump(child.spans_path)
            base = len(spans)
            spans.extend((name, layer, s, e, parent + base if parent >= 0 else -1, op, outer)
                         for name, layer, s, e, parent, _op, outer in child_spans)
            tracing.merge_counters(counters, header["counters"])
            cli["import_s"] += header["import_s"] / len(seg.children)
            cli["main_s"] += header["main_s"] / len(seg.children)
            # wall time outside main, less the tracer's own dump
            outside_s = child.wall_s - header["main_s"] - header["dump_s"]
            cli["process_s"] += outside_s / len(seg.children)
    totals = tracing.span_totals(spans)
    metrics = tracing.layer_metrics(totals, counters, seg.attempted, cli)
    overhead = (sum(seg.latencies) / seg.attempted) / (sum(untraced.latencies) / untraced.attempted)
    metrics["trace.overhead"] = (overhead, "1")
    busy = sum(seg.latencies)
    shares = {layer: totals.get(f"{layer}.busy_ns", 0.0) * 1e-9 / busy
              for layer in tracing.LAYERS}
    if cli is not None:
        shares["cli.import"] = cli["import_s"] * len(seg.children) / busy
        shares["cli.process"] = cli["process_s"] * len(seg.children) / busy
    shares["self"] = {layer: totals.get(f"{layer}.self_ns", 0.0) * 1e-9 / busy
                      for layer in tracing.LAYERS}
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.jsonl.gz")
    tracing.write_dump(spans_file, spans, {"counters": counters, "cli": cli})
    return metrics, {"shares": shares, "spans": len(spans), "spans_file": spans_file}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schurest", "__init__.py")):
        sys.stderr.write(f"error: no schurest sources under {SRC}; run from a source checkout\n")
        return 2
    if args.seconds < 0 or (args.seconds == 0 and not args.setup_probe):
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    prepare_environment(workdir)
    try:
        if args.setup_probe:
            _, setup_s = set_up(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: str) -> int:
    setup_times = probe_setup(args)
    wl, own_setup = set_up(args, workdir)
    setup_times.append(own_setup)
    cli = args.workload == "cli-cold"
    if cli:
        wl.capture_expected()  # the reference outputs: not user set-up, not timed

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = run_loop(wl, args.seconds, tracer)
    e2e, extra = end_to_end(plain, setup_times, cli)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    problems = plain.problems + traced.problems
    if args.trace:
        metrics, trace_info = trace_metrics(wl, traced, tracer, plain, args.seed)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
        trace_info = None

    facts = run_facts(args)
    lat = extra["latency"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<14} {failed / attempted:.6g} 1  ({failed}/{attempted})")
    if args.workload == "scan":
        blocks_per_s = e2e["ops_per_s"] * sum(wl.expected_blocks)
        print(f"  {'blocks_per_s':<14} {blocks_per_s:.6g} 1/s")
    print(f"  latency samples {lat['samples']}; op_ms.tail is p{lat['tail_percentile']:g} "
          f"with {lat['tail_beyond']} samples beyond; set-up samples "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    if trace_info is not None:
        shares = trace_info["shares"]
        print("  busy share of traced operation time, nested layers included: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items() if k != "self" and v > 0))
        print("  self share of traced operation time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares["self"].items() if v > 0))
        print(f"  tracing overhead {metrics['trace.overhead'][0]:.3f}x over "
              f"{trace_info['spans']} spans; spans in {os.path.relpath(trace_info['spans_file'], ROOT)}")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    print("facts " + json.dumps(facts))

    os.makedirs(OUT, exist_ok=True)
    record = {"facts": facts, "end_to_end": e2e, "extra": extra, "failed": failed,
              "attempted": attempted, "problems": problems[:100],
              "metrics": {k: v for k, (v, _u) in metrics.items()}, "trace": trace_info}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
