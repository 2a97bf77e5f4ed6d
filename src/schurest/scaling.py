"""Large-n tail scans for a maximally mixed reference state.

With the reference at I/d every weight inside a block carries the same
unit probability, the estimate collapses to a function of the block alone,
x(block) = log d - log(dimV)/n, and the block marginal is dimV times the
Schur polynomial of the state's spectrum.  For geometric spectra
r_i proportional to q^(i-1) the Schur value has a stable product form, so
the whole outcome distribution at n in the thousands reduces to one pass
over Young indices with vectorized log-space arithmetic.  This powers the
sample-complexity checks at n of order d^2 times a constant in the
hundreds, far beyond the generic engine.

The scan walks one batch per smallest part a of the Young index: the
batch is a + (0, *partitions.young_columns(n - d a, d - 1)), and one
kernel turns its 1-D columns into log dimV and log Schur values, so each
batch costs a few numpy calls rather than a Python loop per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bounds import sample_complexity_bound, tomography_baseline
from .partitions import young_columns
from .states import DensityMatrix, relative_varentropy

SCAN_MAX_D = 4


def geometric_spectrum(d: int, q: float) -> np.ndarray:
    """Normalized strictly decreasing spectrum with ratio q in (0,1)."""
    if not 0 < q < 1:
        raise ValueError("need 0 < q < 1")
    raw = q ** np.arange(d, dtype=float)
    return raw / raw.sum()


class _LogSum:
    """Streaming log-sum-exp over batches of log-weights."""

    def __init__(self):
        self.peak = -math.inf
        self.scaled = 0.0

    def add(self, log_values: np.ndarray) -> None:
        if log_values.size == 0:
            return
        top = float(log_values.max())
        if top == -math.inf:
            return
        if top > self.peak:
            if self.peak > -math.inf:
                self.scaled *= math.exp(self.peak - top)
            self.peak = top
        self.scaled += float(np.exp(log_values - self.peak).sum())

    @property
    def log(self) -> float:
        if self.scaled == 0.0:
            return -math.inf
        return self.peak + math.log(self.scaled)

    @property
    def value(self) -> float:
        return math.exp(self.log) if self.log < 50 else math.inf


class _ScanTables:
    """Integer-indexed lookup tables for one (n, d, q) scan.

    Every transcendental evaluation in the scan has a small-integer
    argument (shifted parts and their gaps live in [0, n + d]), so the
    inner loop over hundreds of millions of Young indices reduces to
    fancy indexing into precomputed vectors.
    """

    def __init__(self, n: int, d: int, q: float):
        size = n + d + 1
        self.n = n
        self.log_factorial = gammaln(np.arange(size, dtype=float) + 1.0)
        self.log_int = np.zeros(size)
        self.log_int[1:] = np.log(np.arange(1, size, dtype=float))
        self.log_q = math.log(q)
        # log(1 - q^gap); gap 0 never occurs since shifted parts are distinct
        self.log_one_minus_qpow = np.full(size, -math.inf)
        self.log_one_minus_qpow[1:] = np.log1p(
            -np.exp(np.arange(1, size, dtype=float) * self.log_q)
        )
        pair_i, pair_j = np.triu_indices(d, k=1)
        self.empty_shape_log = float(
            ((d - 1 - pair_j) * self.log_q + self.log_one_minus_qpow[pair_j - pair_i]).sum()
        )

    def batch_logs(self, a: int, columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(log dimV, log Schur value) of the Young indices a + (0, *columns).

        In the increasing convention part i is shifted by i and carries the
        linear weight d - 1 - i.  Gaps and factorials are read through
        offset views of the tables, so no shifted copy of a column is made;
        part 0 is a itself, so its gaps are the columns.
        """
        d = len(columns) + 1
        size = len(columns[0])
        log_v = np.full(size, math.lgamma(self.n + 1))
        log_s = np.full(size, float(sum((d - 1 - i) * (a + i) for i in range(d))))
        for i in range(1, d - 1):
            log_s += (d - 1 - i) * columns[i - 1]
        log_s *= self.log_q
        log_s -= self.empty_shape_log
        for j in range(d - 1, 0, -1):
            for i in range(j - 1, -1, -1):
                gap = columns[j - 1] if i == 0 else columns[j - 1] - columns[i - 1]
                log_v += self.log_int[j - i :][gap]
                log_s += self.log_one_minus_qpow[j - i :][gap]
        factorials = self.log_factorial[d - 1 + a :][columns[-1]]
        for i in range(d - 2, 0, -1):
            factorials += self.log_factorial[i + a :][columns[i - 1]]
        log_v -= factorials + self.log_factorial[a]
        return log_v, log_s


def _young_batches(n: int, d: int):
    """Yield (a, columns): the Young indices a + (0, *columns) with smallest part a."""
    for a in range(n // d + 1):
        yield a, young_columns(n - d * a, d - 1)


@dataclass(frozen=True)
class UniformReferenceScan:
    d: int
    n: int
    q: float
    epsilon: float
    divergence: float
    total_mass: float
    block_count: int
    delta_plus: float
    delta_minus: float
    log_delta_plus: float
    log_delta_minus: float

    @property
    def tail_mass(self) -> float:
        return self.delta_plus + self.delta_minus


def uniform_reference_scan(d: int, n: int, q: float, epsilon: float) -> UniformReferenceScan:
    """Exact strict tail masses of the estimate for (geometric state, I/d)."""
    if not 2 <= d <= SCAN_MAX_D:
        raise ValueError(f"scan supports 2 <= d <= {SCAN_MAX_D}")
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    spectrum = geometric_spectrum(d, q)
    entropy = -float(np.dot(spectrum, np.log(spectrum)))
    divergence = math.log(d) - entropy
    log_norm = math.log(spectrum[0])  # leading weight, scales the Schur value
    hi, lo = divergence + epsilon, divergence - epsilon
    tables = _ScanTables(n, d, q)
    total_parts: list[float] = []
    count = 0
    above = _LogSum()
    below = _LogSum()
    for a, columns in _young_batches(n, d):
        log_v, log_schur = tables.batch_logs(a, columns)
        count += len(log_v)
        log_mass = log_v + n * log_norm + log_schur
        x = math.log(d) - log_v / n
        total_parts.append(float(np.exp(log_mass).sum()))
        above.add(log_mass[x > hi])
        below.add(log_mass[x < lo])
    return UniformReferenceScan(
        d=d,
        n=n,
        q=q,
        epsilon=epsilon,
        divergence=divergence,
        total_mass=math.fsum(total_parts),
        block_count=count,
        delta_plus=above.value,
        delta_minus=below.value,
        log_delta_plus=above.log,
        log_delta_minus=below.log,
    )


def varentropy_scale_proxy(d: int, seeds=range(8), q_grid=(0.3, 0.6, 0.9)) -> float:
    """Finite-d stand-in for the limiting constant: the largest observed
    varentropy against I/d over a seeded state family, scaled by d^2."""
    from .states import random_mixed

    uniform = DensityMatrix(np.eye(d) / d)
    best = 0.0
    for seed in seeds:
        best = max(best, relative_varentropy(random_mixed(d, seed=seed), uniform))
    for q in q_grid:
        state = DensityMatrix(np.diag(geometric_spectrum(d, q)).astype(complex))
        best = max(best, relative_varentropy(state, uniform))
    return best / d**2


def calibrated_budget(c0: float, target: float = 0.25, epsilon: float = 0.5) -> float:
    """Budget constant making the simplified complexity bound hit target."""
    if not 0 < target or epsilon <= 0:
        raise ValueError("need target > 0 and epsilon > 0")
    return (math.sqrt(c0) + 4) ** 2 / (target * epsilon**2)


@dataclass(frozen=True)
class ComplexityRow:
    d: int
    n: int
    c: float
    c0: float
    epsilon: float
    q: float
    tail_mass: float
    log_delta_plus: float  # -inf when the upper tail set is empty
    log_delta_minus: float
    bound_simple: float
    bound_exact: float
    tomography_ratio: float


def complexity_row(d: int, c: float, c0: float, epsilon: float, q: float = 0.9) -> ComplexityRow:
    """One sample-complexity check: run n = ceil(c d^2) and compare the
    exact tail mass against the closed-form failure bound."""
    n = math.ceil(c * d * d)
    scan = uniform_reference_scan(d, n, q, epsilon)
    report = sample_complexity_bound(c, c0, epsilon)
    baseline = tomography_baseline(d, math.log(d) / d, epsilon)
    return ComplexityRow(
        d=d,
        n=n,
        c=c,
        c0=c0,
        epsilon=epsilon,
        q=q,
        tail_mass=scan.tail_mass,
        log_delta_plus=scan.log_delta_plus,
        log_delta_minus=scan.log_delta_minus,
        bound_simple=report.simple,
        bound_exact=report.exact,
        tomography_ratio=baseline / (c * d * d),
    )
