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

The scan works in the shifted parts l_i = lambda_i + i of each Young index.
Past a prefix of d - 3 parts (one part at d = 4, none at d = 3), the last
three shifted parts are (u, u + 1 + t, rest - 2u - 1 - t), so the prefix's
Young indices form a triangular grid in rows u and columns t.  Every term
of log dimV and of the log mass depends on one of u, t, u + t, 2u + t,
3u + t or 3u + 2t; each is tabulated once per grid and read back as a
strided view, so a band of rows costs a few contiguous adds and no index
arrays.  Cells past a row's end read NaN for log dimV and -inf for the
mass, which every tail test and the total ignore without a mask.  d = 2
has one free part and runs as a single row of the same accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import sample_complexity_bound, tomography_baseline
from .states import DensityMatrix, check_copies, random_mixed, relative_varentropy

SCAN_MAX_D = 4
# the scan refuses more Young indices than this (about 15 s at d = 4)
SCAN_MAX_YOUNG = 10**9
# and more copies than this: its tables hold n + d entries whatever d is
SCAN_MAX_N = 10**6
BUDGET_TARGET = 0.25  # the failure probability calibrated_budget sets the simple bound to
COMPLEXITY_Q = 0.9  # the ratio of the geometric state complexity_row scans against I/d
_BAND_CELLS = 1 << 14
# exp arguments are clamped from below here: a clamped cell then adds under
# 1e-304 to the total mass (about 1) or to a tail sum scaled to its peak (at
# least 1), while numpy's exp runs about 15 times slower on the underflowing
# arguments (below about -708) that most cells have
_EXP_FLOOR = -700.0


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
        shifted = np.maximum(log_values - self.peak, _EXP_FLOOR)
        self.scaled += float(np.exp(shifted, out=shifted).sum())

    @property
    def log(self) -> float:
        if self.scaled == 0.0:
            return -math.inf
        return self.peak + math.log(self.scaled)

    @property
    def value(self) -> float:
        return math.exp(self.log)


class _Band(NamedTuple):
    """One band of a scan grid: rows first_row.. of the grid after prefix.

    log_v and log_mass are views into buffers the next band overwrites.
    A cell past its row's last Young index holds NaN in log_v and -inf in
    log_mass; blocks counts the other cells.
    """

    prefix: tuple[int, ...]
    first_row: int
    blocks: int
    log_v: np.ndarray
    log_mass: np.ndarray


class _ScanTables:
    """Lookup tables for one (n, d, q) scan, and the grids built from them.

    Every transcendental evaluation in the scan has a small-integer
    argument (shifted parts and their gaps live in [0, n + d]), so the
    scan reads precomputed vectors.  log dimV and log mass both split into
    one term per shifted part (-log l!, plus pair terms with the prefix
    and the part's linear weight) and one per gap of the last three parts;
    each term is tabulated once per grid and read back as a strided view.
    """

    def __init__(self, n: int, d: int, q: float):
        size = n + d + 1
        self.n = n
        self.d = d
        self.log_factorial = np.fromiter(
            (math.lgamma(k + 1) for k in range(size)), dtype=float, count=size
        )
        self.log_q = math.log(q)
        # log g, and log g + log(1 - q^g), per gap g; gap 0 never occurs at
        # a valid cell since shifted parts are distinct
        self.log_gap = np.full(size, -math.inf)
        self.log_gap[1:] = np.log(np.arange(1, size, dtype=float))
        log_one_minus_qpow = np.log1p(-np.exp(np.arange(1, size, dtype=float) * self.log_q))
        self.log_gap_mass = np.full(size, -math.inf)
        self.log_gap_mass[1:] = self.log_gap[1:] + log_one_minus_qpow
        pair_i, pair_j = np.triu_indices(d, k=1)
        empty_shape_log = float(
            ((d - 1 - pair_j) * self.log_q + log_one_minus_qpow[pair_j - pair_i - 1]).sum()
        )
        self.constant_v = math.lgamma(n + 1)
        log_norm = math.log(geometric_spectrum(d, q)[0])  # leading weight, scales the Schur value
        self.constant_mass = self.constant_v + n * log_norm - empty_shape_log

    def pair(self, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gap terms of log dimV and log mass; -inf at gaps <= 0."""
        return self.log_gap.take(gaps, mode="clip"), self.log_gap_mass.take(gaps, mode="clip")

    def part(
        self, parts: np.ndarray, weight: int, earlier: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Terms of shifted parts with a linear weight, paired with earlier parts."""
        log_v = -self.log_factorial.take(parts, mode="clip")
        log_mass = log_v + (weight * self.log_q) * parts
        for other in earlier:
            gap_v, gap_mass = self.pair(parts - other)
            log_v += gap_v
            log_mass += gap_mass
        return log_v, log_mass

    def grids(self):
        """Yield (prefix, widths, terms): one grid of Young indices per prefix.

        At d >= 3 the first d - 3 parts form the prefix, and row r, column
        t of its grid holds the Young index whose last three shifted parts
        are (u, u + 1 + t, rest - 2u - 1 - t) with u = u_min + r; row r
        holds widths[r] Young indices, the cells after them being past the
        row's end.  At d = 2 the grid is one row and column t holds
        (t, n - t).  Every term is a _term: its tables are read at
        alpha * r + beta * t.
        """
        n, d = self.n, self.d
        if d == 2:
            width = n // 2 + 1

            def parts(t):
                first_v, first_mass = self.part(t, 1, ())
                last_v, last_mass = self.part(n + 1 - t, 0, ())
                return (
                    first_v + last_v + self.constant_v,
                    first_mass + last_mass + self.constant_mass,
                )

            yield (), np.array([width]), [
                _term(0, 1, 0, 1, width, parts),
                _term(0, 2, 0, 1, width, lambda k: self.pair(n + 1 - k)),
            ]
            return
        for prefix in _young_prefixes(n, d, 0, d - 3):
            shifted = tuple(part + i for i, part in enumerate(prefix))
            rest = n + d * (d - 1) // 2 - sum(shifted)
            u_min = shifted[-1] + 1 if shifted else 0
            widths = (rest - 3 - 3 * np.arange(u_min, (rest - 3) // 3 + 1)) // 2 + 1
            prefix_v, prefix_mass = self.constant_v, self.constant_mass
            for i, part in enumerate(shifted):
                part_v, part_mass = self.part(np.array([part]), d - 1 - i, shifted[:i])
                prefix_v += float(part_v[0])
                prefix_mass += float(part_mass[0])

            def row(u):
                log_v, log_mass = self.part(u, 2, shifted)
                return log_v + prefix_v, log_mass + prefix_mass

            def top(k):  # the last gap; it is < 1 exactly past a row's end
                log_v, log_mass = self.pair(rest - 2 - k)
                log_v[rest - 2 - k < 1] = math.nan
                return log_v, log_mass

            sources = [
                (1, 0, row),
                (0, 1, lambda t: self.pair(t + 1)),
                (1, 1, lambda k: self.part(k + 1, 1, shifted)),
                (2, 1, lambda k: self.part(rest - 1 - k, 0, shifted)),
                (3, 1, lambda k: self.pair(rest - 1 - k)),
                (3, 2, top),
            ]
            rows, width = len(widths), int(widths[0])
            yield prefix, widths, [
                _term(alpha, beta, u_min, rows, width, values) for alpha, beta, values in sources
            ]

    def bands(self):
        """Yield every _Band of the scan, rows cut into bands of at most _BAND_CELLS cells.

        Each band is as wide as its first, widest row.  A term is read
        through an ndarray over its table with strides (alpha, beta), which
        numpy checks against the table's size; no index array is formed.
        """
        most = max(_BAND_CELLS, self.n // 2 + 1)  # or one row, when a row is wider
        buffers = np.empty(most), np.empty(most)
        for prefix, widths, terms in self.grids():
            start = 0
            while start < len(widths):
                width = int(widths[start])
                rows = max(1, min(len(widths) - start, _BAND_CELLS // width))
                shape = (rows, width)
                sums = []
                for which, buffer in enumerate(buffers):
                    first, second, *others = (  # offsets and strides in float64 bytes
                        np.ndarray(
                            shape, float, tables[which], alpha * start * 8, (alpha * 8, beta * 8)
                        )
                        for alpha, beta, *tables in terms
                    )
                    total = np.add(first, second, out=buffer[: rows * width].reshape(shape))
                    for view in others:
                        total += view
                    sums.append(total)
                blocks = int(widths[start : start + rows].sum())
                yield _Band(prefix, start, blocks, *sums)
                start += rows


def _term(alpha: int, beta: int, u_min: int, rows: int, width: int, values):
    """(alpha, beta, log dimV table, log mass table) of one grid term.

    values maps the term's argument k = alpha * u + beta * t to its two
    table rows; k covers every cell of a grid with rows u_min.. and width
    columns, valid or not.  Arguments past a row's end are clipped into
    the lookup tables, so those cells read finite values or -inf there.
    """
    k = alpha * u_min + np.arange(alpha * (rows - 1) + beta * (width - 1) + 1)
    return (alpha, beta, *values(k))


def _young_prefixes(rem: int, slots: int, lo: int, length: int):
    """Non-decreasing tuples of `length` parts >= lo that leave rem - sum to
    slots - length parts no smaller than the last one."""
    if length == 0:
        yield ()
        return
    for part in range(lo, rem // slots + 1):
        for rest in _young_prefixes(rem - part, slots - 1, part, length - 1):
            yield (part,) + rest


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


def _check_scan_size(d: int, n: int) -> None:
    """Refuse a scan past SCAN_MAX_N copies or SCAN_MAX_YOUNG Young indices.

    The count p_d(n) is bounded below by C(n + d - 1, d - 1) / d!: a
    partition into at most d parts orders into at most d! of the
    C(n + d - 1, d - 1) compositions.  The bound costs O(d), whatever n is.
    """
    if n > SCAN_MAX_N:
        raise ValueError(f"scan needs n <= {SCAN_MAX_N}, got {n}")
    if math.comb(n + d - 1, d - 1) > SCAN_MAX_YOUNG * math.factorial(d):
        raise ValueError(
            f"scan at d={d}, n={n} needs more than {SCAN_MAX_YOUNG:.0e} Young indices"
        )


def uniform_reference_scan(d: int, n: int, q: float, epsilon: float) -> UniformReferenceScan:
    """Exact strict tail masses of the estimate for (geometric state, I/d)."""
    if not 2 <= d <= SCAN_MAX_D:
        raise ValueError(f"scan supports 2 <= d <= {SCAN_MAX_D}")
    check_copies(n)
    if n < 1 or not epsilon > 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    _check_scan_size(d, n)
    spectrum = geometric_spectrum(d, q)
    entropy = -float(np.dot(spectrum, np.log(spectrum)))
    divergence = math.log(d) - entropy
    # x = log d - log(dimV)/n, so x > hi and x < lo are thresholds on log dimV;
    # the NaN of a cell past its row's end passes neither
    v_above = n * (math.log(d) - (divergence + epsilon))
    v_below = n * (math.log(d) - (divergence - epsilon))
    total_parts: list[float] = []
    count = 0
    above = _LogSum()
    below = _LogSum()
    for band in _ScanTables(n, d, q).bands():
        count += band.blocks
        weights = np.maximum(band.log_mass, _EXP_FLOOR)
        total_parts.append(float(np.exp(weights, out=weights).sum()))
        above.add(band.log_mass[band.log_v < v_above])
        below.add(band.log_mass[band.log_v > v_below])
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


def varentropy_scale_proxy(d: int, seeds=range(8)) -> float:
    """Finite-d stand-in for the limiting constant: the largest observed
    varentropy against I/d over a seeded state family and the geometric
    spectra of ratio 0.3, 0.6 and 0.9, scaled by d^2."""
    uniform = DensityMatrix(np.eye(d) / d)
    best = 0.0
    for seed in seeds:
        best = max(best, relative_varentropy(random_mixed(d, seed=seed), uniform))
    for q in (0.3, 0.6, 0.9):
        state = DensityMatrix(np.diag(geometric_spectrum(d, q)).astype(complex))
        best = max(best, relative_varentropy(state, uniform))
    return best / d**2


def calibrated_budget(c0: float, epsilon: float = 0.5) -> float:
    """Budget constant making the simplified complexity bound hit BUDGET_TARGET."""
    if not (c0 >= 0 and epsilon > 0):
        raise ValueError("need c0 >= 0 and epsilon > 0")
    return (math.sqrt(c0) + 4) ** 2 / (BUDGET_TARGET * epsilon**2)


@dataclass(frozen=True)
class ComplexityRow:
    """One row of the complexity-scan report; the fields are its columns, in order."""

    d: int
    n: int
    tail_mass: float
    bound_simple: float
    bound_exact: float
    c: float
    c0: float
    epsilon: float
    q: float
    log_delta_plus: float  # -inf when the upper tail set is empty
    log_delta_minus: float
    tomography_ratio: float


def complexity_row(d: int, c: float, c0: float, epsilon: float) -> ComplexityRow:
    """One sample-complexity check: run n = ceil(c d^2) and compare the
    exact tail mass against the closed-form failure bound."""
    n = math.ceil(c * d * d)
    scan = uniform_reference_scan(d, n, COMPLEXITY_Q, epsilon)
    report = sample_complexity_bound(c, c0, epsilon)
    baseline = tomography_baseline(d, math.log(d) / d, epsilon)
    return ComplexityRow(
        d=d,
        n=n,
        c=c,
        c0=c0,
        epsilon=epsilon,
        q=COMPLEXITY_Q,
        tail_mass=scan.tail_mass,
        log_delta_plus=scan.log_delta_plus,
        log_delta_minus=scan.log_delta_minus,
        bound_simple=report.simple,
        bound_exact=report.exact,
        tomography_ratio=baseline / (c * d * d),
    )
