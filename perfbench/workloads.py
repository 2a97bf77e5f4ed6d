"""The benchmark workloads: seeded inputs, one operation, and its output check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The seed changes the inputs and never
the sizes, so every seed does the same amount of work.  Importing this
module imports numpy and schurest; the benchmark times that import as part
of set-up.

Checks run outside the timed region.  Each returns a list of problems; an
empty list means the operation's output is correct.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from schurest import estimator, scaling, states

CHECK_TOL = 1e-9
CHILD_TIMEOUT_S = 150

# exact-small: the random-batch grid of acceptance criteria 04-06; `auto`
# picks the brute backend at every size here.
EXACT_SMALL = [(2, n) for n in range(2, 9)] + [(3, n) for n in range(2, 7)]
# exact-large: the cycle_poly caps.
EXACT_LARGE = [(2, 30), (3, 20), (4, 16)]
EXACT_EPSILON = 0.3
# scan: the calibrated d=2 and d=3 budgets of criterion 12, and d=4 at a
# reduced n so that one sweep stays near a second (about 6e6 Young indices).
SCAN_SIZES = [(2, 1200), (3, 2621), (4, 1000)]
SCAN_EPSILON = 0.5
SCAN_Q_RANGE = (0.8, 0.95)

TINY = {
    "exact-small": [(2, 2), (2, 3), (3, 2)],
    "exact-large": [(2, 10), (3, 9)],
    "scan": [(2, 40), (3, 30), (4, 24)],
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)  # any integer the caller passes


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def partition_count(n: int, parts: int) -> int:
    """Partitions of n into at most `parts` parts, by the recurrence
    p_k(m) = p_{k-1}(m) + p_k(m - k); independent of the library's scan."""
    counts = [1] + [0] * n  # k = 0: only the empty partition of 0
    for k in range(1, parts + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
    return counts[n]


class DistributionCapture:
    """Keeps the outcome tables that estimator's report functions compute.

    Bound in place of ``schurest.estimator.distribution``; it forwards to
    the defining module's attribute at call time, so a tracer that wraps
    ``schurest.distribution.distribution`` still sees every call.
    """

    def __init__(self):
        self.seen: list = []

    def __call__(self, *args, **kwargs):
        from schurest import distribution as module

        dist = module.distribution(*args, **kwargs)
        self.seen.append(dist)
        return dist


class ExactWorkload:
    """One operation = estimate_report then tail_report on one (rho, sigma, n)."""

    def __init__(self, name: str, sizes, pairs_per_size: int):
        self.name = name
        self.sizes = sizes
        self.pairs_per_size = pairs_per_size
        self.pairs: dict = {}
        self.capture = DistributionCapture()

    def setup(self, seed: int, workdir: str) -> None:
        rng = _rng(seed)
        for d, n in self.sizes:
            self.pairs[(d, n)] = [
                (
                    states.random_mixed(d, s1, floor=0.05),
                    states.random_mixed(d, s2, floor=0.05),
                )
                for s1, s2 in zip(_seeds(rng, self.pairs_per_size), _seeds(rng, self.pairs_per_size))
            ]
        estimator.distribution = self.capture
        for op in self.round(0):  # warm the combinatorics caches
            self.run(op)
        self.capture.seen.clear()

    def round(self, index: int):
        k = index % self.pairs_per_size
        return [(d, n, *self.pairs[(d, n)][k]) for d, n in self.sizes]

    def run(self, op):
        d, n, rho, sigma = op
        est = estimator.estimate_report(rho, sigma, n)
        tail = estimator.tail_report(rho, sigma, n, EXACT_EPSILON)
        return est, tail

    def check(self, op, result) -> list[str]:
        d, n, _, _ = op
        est, tail = result
        where = f"d={d} n={n}"
        problems = []
        dists, self.capture.seen = self.capture.seen, []
        if len(dists) != 2:
            problems.append(f"{where}: expected 2 outcome tables, saw {len(dists)}")
        for dist in dists:
            norm = abs(dist.total_probability() - 1.0)
            unit = abs(dist.total_unit_probability() - 1.0)
            if not norm <= CHECK_TOL:
                problems.append(f"{where}: |sum p - 1| = {norm:.3e}")
            if not unit <= CHECK_TOL:
                problems.append(f"{where}: |sum mult q_unit - 1| = {unit:.3e}")
        if not est.mse <= est.mse_bound + CHECK_TOL:
            problems.append(f"{where}: mse {est.mse!r} above bound {est.mse_bound!r}")
        if not tail.delta_plus <= tail.bound_plus + CHECK_TOL:
            problems.append(f"{where}: delta_plus {tail.delta_plus!r} above {tail.bound_plus!r}")
        if not tail.delta_minus <= tail.bound_minus + CHECK_TOL:
            problems.append(f"{where}: delta_minus {tail.delta_minus!r} above {tail.bound_minus!r}")
        return problems

class ScanWorkload:
    """One operation = one sweep of uniform_reference_scan over the sizes."""

    name = "scan"

    def __init__(self, sizes):
        self.sizes = sizes
        self.expected_blocks = [partition_count(n, d) for d, n in sizes]

    def setup(self, seed: int, workdir: str) -> None:
        rng = _rng(seed)
        lo, hi = SCAN_Q_RANGE
        self.qs = [float(q) for q in rng.uniform(lo, hi, size=8)]
        for d, _ in self.sizes:
            scaling.uniform_reference_scan(d, 12, self.qs[0], SCAN_EPSILON)

    def round(self, index: int):
        return [self.qs[index % len(self.qs)]]

    def run(self, q):
        return [scaling.uniform_reference_scan(d, n, q, SCAN_EPSILON) for d, n in self.sizes]

    def check(self, q, result) -> list[str]:
        problems = []
        for (d, n), expected, scan in zip(self.sizes, self.expected_blocks, result):
            if scan.block_count != expected:
                problems.append(f"d={d} n={n}: {scan.block_count} blocks, expected {expected}")
            defect = abs(scan.total_mass - 1.0)
            if not defect <= CHECK_TOL:
                problems.append(f"d={d} n={n} q={q!r}: |total_mass - 1| = {defect:.3e}")
        return problems

@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    spans_path: str | None


class CliColdWorkload:
    """One operation = one fresh ``python -m schurest.cli`` process."""

    name = "cli-cold"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.traced = False
        self.started = 0
        self.child_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

    def commands(self, paths):
        r, s = paths["rho"], paths["sigma"]
        if self.tiny:
            return [
                ["estimate", "--rho", r[2], "--sigma", s[2], "--n", "4"],
                ["distribution", "--rho", r[3], "--sigma", s[3], "--n", "3", "--format", "csv"],
                ["complexity-scan", "--d", "2", "--c", "5"],
            ]
        return [
            ["estimate", "--rho", r[2], "--sigma", s[2], "--n", "30"],
            ["tail", "--rho", r[3], "--sigma", s[3], "--n", "20", "--epsilon", str(EXACT_EPSILON)],
            ["distribution", "--rho", r[4], "--sigma", s[4], "--n", "16", "--format", "csv"],
            ["normality", "--rho", r[2], "--sigma", s[2], "--n-range", "4:24:4"],
            ["complexity-scan", "--d", "2", "3"],
            ["verify"],
        ]

    def setup(self, seed: int, workdir: str) -> None:
        from schurest import cli  # noqa: F401  (import cost belongs to set-up)

        self.workdir = workdir
        rng = _rng(seed)
        paths = {"rho": {}, "sigma": {}}
        for d in (2, 3, 4):
            s1, s2 = _seeds(rng, 2)
            for role, s in (("rho", s1), ("sigma", s2)):
                path = os.path.join(workdir, f"{role}{d}.json")
                states.save_state(path, states.random_mixed(d, s, floor=0.05))
                paths[role][d] = path
        self.argvs = self.commands(paths)

    def capture_expected(self) -> None:
        """Stdout of main(argv) in this process; each child must reproduce it."""
        from schurest import cli

        self.expected = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"in-process {' '.join(argv)} exited {code}")
            self.expected.append(buf.getvalue().encode())

    def round(self, index: int):
        return list(range(len(self.argvs)))

    def run(self, index: int) -> ChildResult:
        argv = self.argvs[index]
        spans_path = None
        self.started += 1
        if self.traced:
            spans_path = os.path.join(self.workdir, f"child-{self.started}.jsonl")
            cmd = [sys.executable, self.child_script, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "schurest.cli", *argv]
        err_path = os.path.join(self.workdir, "child.stderr")
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.workdir)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 rather than wait: it returns the child's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
        wall = time.perf_counter() - start
        with open(err_path, "rb") as err:
            stderr = err.read()
        return ChildResult(proc.returncode, out, stderr, wall, usage.ru_maxrss, spans_path)

    def check(self, index: int, result: ChildResult) -> list[str]:
        label = self.argvs[index][0]
        problems = []
        if result.code != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{label}: exit code {result.code} {tail}")
        elif result.stdout != self.expected[index]:
            problems.append(f"{label}: stdout differs from the in-process output")
        return problems


def make(name: str, tiny: bool = False):
    if name == "exact-small":
        return ExactWorkload(name, TINY[name] if tiny else EXACT_SMALL, pairs_per_size=8)
    if name == "exact-large":
        return ExactWorkload(name, TINY[name] if tiny else EXACT_LARGE, pairs_per_size=4)
    if name == "scan":
        return ScanWorkload(TINY[name] if tiny else SCAN_SIZES)
    if name == "cli-cold":
        return CliColdWorkload(tiny)
    raise ValueError(f"unknown workload {name!r}")
