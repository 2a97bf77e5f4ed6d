#!/usr/bin/env python3
"""Per-size op times, engine stage times and benchmark runs, written to BENCH_<label>.json.

    python3 tools/op_times.py LABEL --what "one line on the change" [--baseline CHECKOUT]

Run it from a source checkout.  With ``--baseline``, every measurement is
taken PAIRS times on each checkout, alternating, the side that runs first
swapping every pair; without it, PAIRS times on this checkout alone.  Every
measurement runs in fresh processes:

- op times, one child of this script per side and pair.  It imports the
  library from its checkout's ``src`` and the workloads from this
  checkout's ``perfbench``, so both trees run the same inputs.  The child
  times ``exact-small`` and ``exact-large`` set-up cold (their ``setup``,
  which builds the seeded pairs and warms every cache), then runs whole
  rounds of each workload's operation (``estimate_report`` then
  ``tail_report``) for OP_SECONDS[workload], each operation timed alone and
  filed under its (d, n); each round cycles through the sizes, so no
  operation finds the table of the one before in ``distribution``'s
  one-table memo.  Last it calls ``distribution`` on each size's first two
  pairs in turn, so that every call misses the memo and runs the engine,
  for STAGE_SECONDS (three calls at least), with the engine
  stages wrapped in timers: ``e`` (distribution._elementary), ``h``
  (_complete), ``minors`` (_block_dets), ``fft`` (np.fft.fftn) and
  ``assembly`` (_assemble).  A stage that the tree does not define reads
  null; ``other`` is the rest of the call.
- benchmark runs: the command of ``BENCHMARK.json`` in each checkout, on
  every workload listed there, for its ``run_seconds``, with ``--trace 0``
  and seed BENCH_SEED + pair.
- with a baseline, one more child that loads both trees' packages (the
  baseline's as ``schurest_baseline``) and runs AB_ROUNDS[workload] rounds
  of both exact workloads, each operation once on each tree, the tree that
  runs first swapping every round.  Child processes can differ by more than
  a small per-size change, since the host's speed drifts between them;
  alternating inside one process cancels that drift.  Each tree has its own
  memo, and each tree's operations cycle through the sizes, so none of
  them reads a table an earlier one built.

The file gets, per side, each (d, n)'s op-time quartiles over all its
operations, the median of the children's medians and the stage medians;
each end-to-end benchmark metric's quartiles over the runs, with every
run's latency sample count and the percentile ``op_ms.tail`` read; and the
machine's facts.  With a baseline it also gets, per (d, n) and per metric,
the number of pairs in which the change was the better side, and per (d, n)
each tree's median over the alternating rounds and the rounds in which the
change was faster.  Times come from ``time.perf_counter``, CPU time and
peak RSS from ``resource.getrusage``.  BLAS runs on one thread and no process writes
bytecode, so neither tree gains a ``__pycache__`` the other lacks.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact-small", "exact-large")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
SEED = 7  # the op-time children's inputs
# a (4, 16) operation takes about 0.06 s, so exact-large gets about 230 of them
# per child
OP_SECONDS = {"exact-small": 3.0, "exact-large": 15.0}
STAGE_SECONDS = 0.4  # per size and child
AB_ROUNDS = {"exact-small": 400, "exact-large": 30}
BENCH_SEED = 3100
# each engine stage: the (module, function) a timer wraps while distribution runs
STAGES = {
    "e": ("schurest.distribution", "_elementary"),
    "h": ("schurest.distribution", "_complete"),
    "minors": ("schurest.distribution", "_block_dets"),
    "fft": ("numpy.fft", "fftn"),
    "assembly": ("schurest.distribution", "_assemble"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", nargs="?")
    p.add_argument("--what", default="")
    p.add_argument("--baseline", help="root of a second checkout to alternate with")
    # the src directory a child imports; two of them, change first, alternate
    p.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and not args.label:
        p.error("LABEL is required")
    return args


def quiet_env():
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(BLAS_VARS, "1"))


def timed(table, name, func):
    """func, adding each call's duration to table[name]."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            table[name] += time.perf_counter() - start
    return wrapper


def stage_times(workload):
    """ms per distribution call on each size's first two pairs, per stage.

    The calls alternate the two pairs, as one pair called again would
    return the memo's table without running the engine.
    """
    module = importlib.import_module("schurest.distribution")
    targets = {name: (importlib.import_module(owner), attr)
               for name, (owner, attr) in STAGES.items()}
    out = {}
    for d, n in workload.sizes:
        pairs = workload.pairs[(d, n)][:2]
        spent = dict.fromkeys(STAGES, 0.0)
        saved = {}
        for name, (owner, attr) in targets.items():
            if hasattr(owner, attr):
                saved[name] = getattr(owner, attr)
                setattr(owner, attr, timed(spent, name, saved[name]))
        calls, total = 0, 0.0
        try:
            while calls < 3 or total < STAGE_SECONDS:
                start = time.perf_counter()
                module.distribution(*pairs[calls % 2], n)
                total += time.perf_counter() - start
                calls += 1
        finally:
            for name, func in saved.items():
                setattr(targets[name][0], targets[name][1], func)
        row = {name: (1e3 * spent[name] / calls if name in saved else None) for name in STAGES}
        row["other"] = 1e3 * (total - sum(spent[name] for name in saved)) / calls
        row["distribution"] = 1e3 * total / calls
        row["calls"] = calls
        out[f"{d},{n}"] = row
    return out


def child(src):
    """One op-time measurement on the library in src; prints one JSON object."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import workloads

    result = {"setup_s": {}, "op_ms": {}, "stage_ms": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            wl = workloads.make(name)
            start = time.perf_counter()
            wl.setup(SEED, workdir)
            result["setup_s"][name] = time.perf_counter() - start
            samples = {f"{d},{n}": [] for d, n in wl.sizes}
            index, start = 0, time.perf_counter()
            while index == 0 or time.perf_counter() - start < OP_SECONDS[name]:
                for op in wl.round(index):
                    begin = time.perf_counter()
                    wl.run(op)
                    samples[f"{op[0]},{op[1]}"].append(1e3 * (time.perf_counter() - begin))
                    wl.capture.seen.clear()
                index += 1
            result["op_ms"][name] = samples
            result["stage_ms"].update(stage_times(wl))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    print(json.dumps(result))


def load_package(name, src):
    """The schurest package in src, imported as `name`, with the modules workloads uses."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "schurest", "__init__.py"),
        submodule_search_locations=[os.path.join(src, "schurest")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("estimator", "scaling", "states"):
        importlib.import_module(f"{name}.{sub}")
    return package


def load_workloads(package):
    """A copy of perfbench's workloads module that imports package as schurest."""
    sys.modules["schurest"] = package
    spec = importlib.util.spec_from_file_location(
        f"workloads_{package.__name__}", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def alternate(change_src, baseline_src):
    """Both trees in one process, each operation once on each, alternating; prints JSON.

    The workloads' outcome-table capture imports schurest at call time, so
    each side's package is bound to that name while its side runs.
    """
    packages = {"change": load_package("schurest", change_src),
                "baseline": load_package("schurest_baseline", baseline_src)}
    modules = {side: load_workloads(package) for side, package in packages.items()}
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            wls = {}
            for side, module in modules.items():
                sys.modules["schurest"] = packages[side]
                wls[side] = module.make(name)
                wls[side].setup(SEED, workdir)
            ms = {side: {f"{d},{n}": [] for d, n in wls["change"].sizes} for side in wls}
            for index in range(AB_ROUNDS[name]):
                turn = ("change", "baseline") if index % 2 == 0 else ("baseline", "change")
                for k, (d, n) in enumerate(wls["change"].sizes):
                    for side in turn:
                        sys.modules["schurest"] = packages[side]
                        op = wls[side].round(index)[k]
                        begin = time.perf_counter()
                        wls[side].run(op)
                        ms[side][f"{d},{n}"].append(1e3 * (time.perf_counter() - begin))
                        wls[side].capture.seen.clear()
            for size, change in ms["change"].items():
                baseline = ms["baseline"][size]
                out[size] = {"change": round(statistics.median(change), 4),
                             "baseline": round(statistics.median(baseline), 4),
                             "change_faster_rounds": sum(map(float.__lt__, change, baseline)),
                             "rounds": len(change)}
    print(json.dumps(out))


def run_child(*checkouts):
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           *(os.path.join(checkout, "src") for checkout in checkouts)]
    done = subprocess.run(cmd, env=quiet_env(), capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"child on {', '.join(checkouts)} failed: "
                           f"{done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_benchmark(checkout, command, workload, seed, seconds):
    """One benchmark run: its JSON line, with the latency facts of its result file."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=quiet_env(), capture_output=True, text=True,
                          timeout=1800)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"benchmark on {checkout} failed: {done.stderr.strip()[-800:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        latency = json.load(fh)["extra"]["latency"]
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "samples": latency["samples"], "tail_percentile": latency["tail_percentile"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs):
    """Per (d, n): pooled quartiles, the median of child medians and the stage medians."""
    out = {"op_ms": {}, "stage_ms": {}, "setup_s": {}, "children": len(runs)}
    for name in WORKLOADS:
        out["setup_s"][name] = round(statistics.median(r["setup_s"][name] for r in runs), 3)
        sizes = {}
        for size in runs[0]["op_ms"][name]:
            pooled = [v for r in runs for v in r["op_ms"][name][size]]
            sizes[size] = {**quartiles(pooled), "samples": len(pooled), "median_of_children":
                           round(statistics.median(statistics.median(r["op_ms"][name][size])
                                                   for r in runs), 4)}
        out["op_ms"][name] = sizes
    for size, row in runs[0]["stage_ms"].items():
        out["stage_ms"][size] = {
            name: (None if row[name] is None
                   else round(statistics.median(r["stage_ms"][size][name] for r in runs), 4))
            for name in (*STAGES, "other", "distribution")}
    out["cpu_s"] = round(statistics.median(r["cpu_s"] for r in runs), 3)
    out["peak_rss_mb"] = round(statistics.median(r["peak_rss_mb"] for r in runs), 1)
    return out


def faster_pairs(change, baseline):
    """Per (d, n): the pairs in which the change's child median beat the baseline's."""
    return {size: sum(statistics.median(c["op_ms"][name][size])
                      < statistics.median(b["op_ms"][name][size])
                      for c, b in zip(change, baseline))
            for name in WORKLOADS for size in change[0]["op_ms"][name]}


def summarize_benchmark(runs, metrics):
    """Per workload: each metric's quartiles per side, pair wins, and every run's latency facts."""
    out = {}
    for workload, sides in runs.items():
        row = {"failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
               "samples": {side: [r["samples"] for r in rs] for side, rs in sides.items()},
               "tail_percentile": {side: [r["tail_percentile"] for r in rs]
                                   for side, rs in sides.items()},
               "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            entry = {side: quartiles([r["metrics"][name] for r in rs])
                     for side, rs in sides.items()}
            if "baseline" in sides:
                entry["change_better_pairs"] = sum(
                    (c["metrics"][name] < b["metrics"][name]) == lower
                    and c["metrics"][name] != b["metrics"][name]
                    for c, b in zip(sides["change"], sides["baseline"]))
            row["metrics"][name] = entry
        out[workload] = row
    return out


def describe(checkout):
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def main(argv=None):
    args = parse_args(argv)
    if args.child is not None:
        if len(args.child) == 1:
            child(args.child[0])
        else:
            alternate(*args.child)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = {"change": ROOT}
    if args.baseline:
        sides["baseline"] = os.path.abspath(args.baseline)
    trees = {side: describe(path) for side, path in sides.items()}
    order = list(sides)
    ops = {side: [] for side in sides}
    bench = {w["name"]: {side: [] for side in sides} for w in spec["workloads"]}
    for pair in range(PAIRS):
        turn = order if pair % 2 == 0 else order[::-1]
        for side in turn:
            ops[side].append(run_child(sides[side]))
        for workload, runs in bench.items():
            for side in turn:
                runs[side].append(run_benchmark(sides[side], spec["command"], workload,
                                                BENCH_SEED + pair, spec["run_seconds"]))
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    in_process = run_child(ROOT, sides["baseline"]) if args.baseline else None
    report = {
        "label": args.label,
        "what": args.what,
        "machine": machine(),
        "timer": "time.perf_counter per operation and per stage call; resource.getrusage "
                 "for CPU time and peak RSS; fresh processes, sides alternating",
        "settings": {"pairs": PAIRS, "op_seconds": OP_SECONDS, "stage_seconds": STAGE_SECONDS,
                     "seed": SEED, "benchmark": {
                         "command": [*spec["command"], "--workload", "W", "--seed",
                                     f"{BENCH_SEED}+pair", "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"]}},
        "trees": trees,
        **{side: summarize(side_runs) for side, side_runs in ops.items()},
    }
    if args.baseline:
        report["change_faster_pairs"] = faster_pairs(ops["change"], ops["baseline"])
        report["in_process"] = {"rounds": AB_ROUNDS, "op_ms": in_process}
    report["benchmark"] = summarize_benchmark(bench, spec["end_to_end"])
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
