"""In-memory spans around the public functions of each schurest module.

A span is recorded for every call into a public function of a layer
module (the modules of ``src/schurest``).  Modules import each other's
functions by name (``estimator`` does ``from .distribution import
distribution``), so a wrapper is bound under every name that refers to the
original function in any schurest module, not only in the defining one.

Spans are plain tuples ``(name, layer, start_ns, end_ns, parent, op, outer)``
kept in a list and written out when the run ends.  ``parent`` is the index
of the enclosing span (-1 at the top), ``op`` the operation id set by the
benchmark, and ``outer`` marks a span with no enclosing span of its own
layer, so that a layer's busy time counts nested calls once.

The tracer also reads the health values that the library computes and
returns but does not report: ``max_imag``, ``neg_clip``, the normalisation
of every returned outcome distribution, and the mass of every scan.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

from schurest.distribution import OutcomeDistribution
from schurest.scaling import UniformReferenceScan

LAYERS = (
    "partitions",
    "states",
    "distribution",
    "estimator",
    "bounds",
    "scaling",
    "verification",
    "cli",
)

# estimator functions whose own time is the exact statistics over the table
STATS_FUNCTIONS = ("exact_mse", "exact_mse_star", "tail_probabilities", "normality_report")


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            found[name] = obj
    return found


class Tracer:
    """Collects spans and counters; ``install`` binds the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.op = 0
        self.bindings = None
        self.pending: list = []
        self.counters = {
            "atoms": 0,
            "neg_clip_ops": 0,
            "max_imag": 0.0,
            "norm_defect": 0.0,
            "unit_defect": 0.0,
            "blocks": 0,
            "mass_defect": 0.0,
        }

    # ---------------------------------------------------------------- binding

    def install(self) -> None:
        """Bind a wrapper under every name of every public layer function."""
        if self.bindings is None:
            modules = [importlib.import_module(f"schurest.{layer}") for layer in LAYERS]
            wrappers = {}
            for layer, module in zip(LAYERS, modules):
                for name, fn in public_functions(module).items():
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
            self.bindings = [
                (module, attr, value, wrappers[id(value)])
                for module in modules
                for attr, value in vars(module).items()
                if id(value) in wrappers
            ]
        for module, attr, _original, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self.bindings or ():
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            outer = depth[layer] == 0
            spans.append(None)
            stack.append(index)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                spans[index] = (name, layer, start, end, parent, self.op, outer)
            if isinstance(result, (OutcomeDistribution, UniformReferenceScan)):
                self.pending.append(result)
            return result

        return traced

    def drain(self) -> None:
        """Read health values from the results returned since the last drain.

        Called outside the timed operation, so the sums do not count as
        time spent in the caller's span.
        """
        seen = set()  # nested spans can return the same object
        for result in self.pending:
            if id(result) not in seen:
                seen.add(id(result))
                self._observe(result)
        self.pending.clear()

    def _observe(self, result) -> None:
        c = self.counters
        if isinstance(result, OutcomeDistribution):
            c["atoms"] += len(result.p)
            c["max_imag"] = max(c["max_imag"], float(result.max_imag))
            c["neg_clip_ops"] += int(result.neg_clip < 0)
            c["norm_defect"] = max(c["norm_defect"], abs(result.total_probability() - 1.0))
            c["unit_defect"] = max(c["unit_defect"], abs(result.total_unit_probability() - 1.0))
        else:
            c["blocks"] += int(result.block_count)
            c["mass_defect"] = max(c["mass_defect"], abs(result.total_mass - 1.0))

    # ----------------------------------------------------------------- output

    def dump(self, path, extra=None) -> None:
        """Write the spans and a header with the counters, ``extra`` and the
        time the dump itself took."""
        start = time.perf_counter()
        self.drain()
        header = {"counters": self.counters, **(extra or {})}
        write_dump(path, self.spans, header, start)


def write_dump(path, spans, header: dict, start: float | None = None) -> None:
    """One JSON list per span and line, then the header as the last line;
    gzip-compressed when the path ends in ``.gz``."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        if start is not None:
            header = {**header, "dump_s": time.perf_counter() - start}
        fh.write(json.dumps(header) + "\n")


def read_dump(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return json.loads(lines[-1]), [tuple(json.loads(line)) for line in lines[:-1]]


def merge_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key in ("max_imag", "norm_defect", "unit_defect", "mass_defect"):
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0) + value


def span_totals(spans) -> dict[str, float]:
    """Nanosecond and count totals per layer and for the named sub-spans.

    ``<layer>.busy_ns`` sums spans with no enclosing span of the same layer;
    ``<layer>.self_ns`` sums each span's duration minus its direct children.
    """
    child_ns = [0] * len(spans)
    foreign_child_ns = [0] * len(spans)
    for name, layer, start, end, parent, _op, _outer in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if spans[parent][1] != layer:
                foreign_child_ns[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, layer, start, end, _parent, _op, outer) in enumerate(spans):
        dur = end - start
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_ns"] += dur - child_ns[i]
        if outer:
            totals[f"{layer}.busy_ns"] += dur
        short = name.split(".", 1)[1]
        if short in ("brute_distribution", "cycle_poly_distribution"):
            totals[f"distribution.{short.split('_distribution')[0]}.busy_ns"] += dur
        elif short == "annotate_estimates":
            totals["estimator.annotate.busy_ns"] += dur
        elif layer == "estimator" and short in STATS_FUNCTIONS:
            totals["estimator.stats.busy_ns"] += dur - foreign_child_ns[i]
        elif short == "sandwiched_renyi":
            totals["states.renyi.busy_ns"] += dur
            totals["states.renyi_evals"] += 1
        elif short == "uniform_reference_scan":
            totals["scaling.scan.busy_ns"] += dur
    return totals


def layer_metrics(totals: dict, counters: dict, ops: int, cli: dict | None = None) -> dict:
    """Per-layer metrics, per operation, from summed span totals and counters."""
    per_op = 1.0 / max(ops, 1)

    def busy(key):
        return totals.get(key, 0.0) * 1e-9 * per_op

    dist_busy_s = totals.get("distribution.busy_ns", 0.0) * 1e-9
    scan_ns = totals.get("scaling.scan.busy_ns", 0.0)
    blocks = counters.get("blocks", 0)
    cli = cli or {}
    values = {
        "partitions.busy_s": (busy("partitions.busy_ns"), "s"),
        "partitions.calls": (totals.get("partitions.calls", 0) * per_op, "count"),
        "distribution.busy_s": (busy("distribution.busy_ns"), "s"),
        "distribution.self_s": (busy("distribution.self_ns"), "s"),
        "distribution.calls": (totals.get("distribution.calls", 0) * per_op, "count"),
        "distribution.brute.busy_s": (busy("distribution.brute.busy_ns"), "s"),
        "distribution.cycle_poly.busy_s": (busy("distribution.cycle_poly.busy_ns"), "s"),
        "distribution.atoms": (counters.get("atoms", 0) * per_op, "count"),
        "distribution.atoms_per_s": (
            counters.get("atoms", 0) / dist_busy_s if dist_busy_s else 0.0, "1/s"),
        "distribution.max_imag": (counters.get("max_imag", 0.0), "1"),
        "distribution.neg_clip_ops": (counters.get("neg_clip_ops", 0), "count"),
        "distribution.norm_defect": (counters.get("norm_defect", 0.0), "1"),
        "distribution.unit_defect": (counters.get("unit_defect", 0.0), "1"),
        "estimator.annotate.busy_s": (busy("estimator.annotate.busy_ns"), "s"),
        "estimator.stats.busy_s": (busy("estimator.stats.busy_ns"), "s"),
        "bounds.busy_s": (busy("bounds.busy_ns"), "s"),
        "bounds.self_s": (busy("bounds.self_ns"), "s"),
        "bounds.calls": (totals.get("bounds.calls", 0) * per_op, "count"),
        "states.busy_s": (busy("states.busy_ns"), "s"),
        "states.renyi.busy_s": (busy("states.renyi.busy_ns"), "s"),
        "states.renyi_evals": (totals.get("states.renyi_evals", 0) * per_op, "count"),
        "scaling.busy_s": (busy("scaling.busy_ns"), "s"),
        "scaling.blocks": (blocks * per_op, "count"),
        "scaling.ns_per_block": (scan_ns / blocks if blocks else 0.0, "ns"),
        "scaling.mass_defect": (counters.get("mass_defect", 0.0), "1"),
        "cli.import_s": (cli.get("import_s", 0.0), "s"),
        "cli.main_s": (cli.get("main_s", 0.0), "s"),
        "cli.process_s": (cli.get("process_s", 0.0), "s"),
        "verification.busy_s": (busy("verification.busy_ns"), "s"),
    }
    return {k: (v if math.isfinite(v) else 0.0, unit) for k, (v, unit) in values.items()}
