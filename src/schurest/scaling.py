"""Large-n tail scans for a maximally mixed reference state.

With the reference at I/d every weight inside a block carries the same
unit probability, the estimate collapses to a function of the block alone,
x(block) = log d - log(dimV)/n, and the block marginal is dimV times the
Schur polynomial of the state's spectrum.  For geometric spectra
r_i proportional to q^(i-1) the Schur value has a stable product form, so
the whole outcome distribution at n in the thousands reduces to one pass
over Young indices with vectorized log-space arithmetic.  This powers the
sample-complexity checks at n of order d^2 times a constant in the
hundreds, far beyond the generic backends.

Enumeration is batched by the largest part of the Young index; each batch
is a flat vectorized block, so dimension d <= 4 runs in a few numpy calls
per batch rather than a Python loop per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bounds import sample_complexity_bound, tomography_baseline
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


def _descending_parts_batches(n: int, d: int):
    """Yield (K, d) arrays of descending Young parts summing to n."""
    if d == 1:
        yield np.array([[n]], dtype=np.int64)
        return
    for m in range((n + d - 1) // d, n + 1):
        rem = n - m
        if d == 2:
            if rem > m:
                continue
            yield np.array([[m, rem]], dtype=np.int64)
        elif d == 3:
            lo = (rem + 1) // 2
            hi = min(m, rem)
            if hi < lo:
                continue
            second = np.arange(lo, hi + 1, dtype=np.int64)
            batch = np.empty((len(second), 3), dtype=np.int64)
            batch[:, 0] = m
            batch[:, 1] = second
            batch[:, 2] = rem - second
            yield batch
        else:
            lo3 = (rem + 2) // 3
            hi3 = min(m, rem)
            if hi3 < lo3:
                continue
            third = np.arange(lo3, hi3 + 1, dtype=np.int64)
            rem2 = rem - third
            lo2 = (rem2 + 1) // 2
            hi2 = np.minimum(third, rem2)
            counts = np.maximum(hi2 - lo2 + 1, 0)
            total = int(counts.sum())
            if total == 0:
                continue
            keep = counts > 0
            third, lo2, counts = third[keep], lo2[keep], counts[keep]
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            ragged = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
            batch = np.empty((total, 4), dtype=np.int64)
            batch[:, 0] = m
            batch[:, 1] = np.repeat(third, counts)
            batch[:, 2] = np.repeat(lo2, counts) + ragged
            batch[:, 3] = n - batch[:, :3].sum(axis=1)
            yield batch


class _ScanTables:
    """Integer-indexed lookup tables for one (n, d, q) scan.

    Every transcendental evaluation in the scan has a small-integer
    argument (shifted parts and their gaps live in [0, n + d]), so the
    inner loop over hundreds of millions of Young indices reduces to
    fancy indexing into three precomputed vectors.
    """

    def __init__(self, n: int, d: int, q: float | None = None):
        size = n + d + 1
        self.log_factorial = gammaln(np.arange(size, dtype=float) + 1.0)
        self.log_int = np.zeros(size)
        self.log_int[1:] = np.log(np.arange(1, size, dtype=float))
        self.log_q = None
        if q is not None:
            self.log_q = math.log(q)
            # log(1 - q^gap); gap 0 never occurs since shifted parts are distinct
            self.log_one_minus_qpow = np.full(size, -math.inf)
            self.log_one_minus_qpow[1:] = np.log1p(
                -np.exp(np.arange(1, size, dtype=float) * self.log_q)
            )
            d_range = np.arange(d)
            pair_i, pair_j = np.triu_indices(d, k=1)
            self.empty_shape_log = float(
                ((d - 1 - pair_j) * self.log_q + self.log_one_minus_qpow[pair_j - pair_i]).sum()
            )
            self.column_weight = d_range.astype(float)

    def log_dims(self, shifted: np.ndarray, n: int) -> np.ndarray:
        logs = np.full(shifted.shape[0], math.lgamma(n + 1))
        d = shifted.shape[1]
        for i in range(d):
            for j in range(i + 1, d):
                logs += self.log_int[shifted[:, i] - shifted[:, j]]
        logs -= self.log_factorial[shifted].sum(axis=1)
        return logs

    def log_schur(self, shifted: np.ndarray) -> np.ndarray:
        d = shifted.shape[1]
        logs = (shifted @ self.column_weight) * self.log_q - self.empty_shape_log
        for i in range(d):
            for j in range(i + 1, d):
                logs += self.log_one_minus_qpow[shifted[:, i] - shifted[:, j]]
        return logs


def _shift_parts(parts: np.ndarray) -> np.ndarray:
    d = parts.shape[1]
    return parts + np.arange(d - 1, -1, -1, dtype=np.int64)


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
    for batch in _descending_parts_batches(n, d):
        count += batch.shape[0]
        shifted = _shift_parts(batch)
        log_v = tables.log_dims(shifted, n)
        log_mass = log_v + n * log_norm + tables.log_schur(shifted)
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
