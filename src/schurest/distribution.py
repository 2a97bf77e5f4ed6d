"""Exact outcome distributions for the collective Schur-basis measurement.

The measurement on n copies is labeled by a Young index lam and, inside the
lam block, by eigenvectors of the reference state's block.  With the
reference state diagonalized, its block acts as the scalar
prod(s_i ** mu_i) on each weight-mu subspace, so all fine outcomes sharing
(lam, mu) carry the same unit probability and the same estimate; they are
aggregated losslessly into one atom whose multiplicity is the weight-space
dimension (a Kostka number).  When the reference spectrum is degenerate the
eigenbasis, and hence the weight split, is a gauge choice; every quantity
exposed here is gauge-independent (and for the maximally mixed reference
every basis gives the same table).

Each atom also carries its estimate x = -log_q/n = -(1/n)(log dimV_lam +
sum_i mu_i log s_i), the approximation x_star = -H(lam/n) - sum_i (mu_i/n)
log s_i that swaps the symmetric-group dimension for the type-entropy term,
and gap_bound = (d log(n+1) - log e(lam))/n, with e the dimension ratio from
the combinatorics layer; x - x_star always lies in [0, gap_bound].

One engine computes the atom probabilities p(lam, mu) = Tr[rho_tilde^(x)n
P_lam P_mu] at every d.  Since (rho_tilde Z)^(x)n commutes with P_lam for
diagonal markers Z = diag(z), p(lam, mu) = dimV * [z^mu] s_lam(rho_tilde Z).
The Schur polynomial is a Jacobi-Trudi determinant in the complete
symmetric functions h_k(rho_tilde Z), evaluated on a grid of roots of
unity; an FFT over the grid reads off every coefficient.  What the engine
needs from (n, d) alone (the grid, the subset index arrays, each Young
index's Jacobi-Trudi index block, the weights' grid positions) is built
once per (n, d) in a cached plan.  The engine takes the Young indices in
chunks of at most _CHUNK_CELLS grid cells, each with one FFT, so small
grids pay little per-call overhead; a grid of at least _CHUNK_CELLS points
takes one Young index per chunk, with the memory of a one-index loop.  A
chunk's Jacobi-Trudi minors have order d-1: at d = 2 and 3 their
determinants are closed forms evaluated elementwise over the chunk, and at
d >= 4 one Gaussian elimination with partial pivoting, run elementwise over
the chunk, which is as accurate as LAPACK's LU on the near-pure
cancellations there.  Batching leaves every float as a one-index loop
gives it (both in tests/test_distribution.py).  The same
routine at rho_tilde = I gives the multiplicities, since the Kostka number
is K_lam,mu = [z^mu] s_lam(Z): the cached (n, d) atom table rounds those
coefficients to integers and raises ArithmeticError if any lies more than
KOSTKA_TOL from a non-negative integer.  The cost is set by (n, d) alone,
and one work guard, checked before any table is built, refuses sizes past
JT_MAX_WORK (see _work).  The independent references the tests compare
against (basis-string sums weighted by characters, dense projectors, the
horizontal-strip Kostka recursion) live in the test tree.

Roundoff can leave tiny negative raw probabilities: values in (-1e-6, 0)
are clamped to zero (and the worst one recorded); anything at or below
-1e-6 aborts.

distribution keeps the last table it returned, keyed on n and the dtype,
shape, layout and bytes of rho's and sigma's matrices, and returns that
object when the next call has the same key, after the same refusals have
run.  A report pair (estimate_report, then tail_report on one instance)
thus builds one table.  There is one slot and no size to set: a caller
that moves on to another instance evicts it, so a benchmark that cycles
through instances measures the engine, not the memo.  Every array of a
returned table is read-only, as it may be handed to more than one caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import combinations, groupby

import numpy as np

from .partitions import (
    compositions,
    enumerate_young,
    sn_dim,
    type_entropy_bounds,
    young_count,
)
from .states import DensityMatrix, InputError, SigmaSpectrum, check_pair, sigma_spectrum

# JT_MAX_N bounds the cancellation in the Jacobi-Trudi determinant on
# near-pure states at d >= 3: a (3, 30) marginal is already off by 8.1e-9
# and a (4, 24) one by 3.9e-9 (tests/test_distribution.py), and past it a
# d = 3 pair aborts on mass below NEG_ABORT near n = 60.  The work guard
# bounds the cost.
JT_MAX_N = 30
# warm calls at each d's largest admitted n took 0.9-2.2e-8 s per work unit
# from d = 4 to 9 on a 2-vCPU VM, so the limit keeps a call near 1-5 s and
# under 0.5 GB; it admits every d <= 4 up to n = 30.  The first call at a
# new (n, d) runs the engine twice, once at rho_tilde = I for the Kostka
# table, so it can take twice as long.
JT_MAX_WORK = 250_000_000
NEG_ABORT = -1e-6
# the Kostka table rounds engine coefficients at rho_tilde = I; the worst gap
# to an integer measured up to each d's size limit was 7.7e-12, at (4, 30)
KOSTKA_TOL = 1e-6


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome table for one (state, reference, n) triple, with each
    atom's estimate x, its approximation x_star and the bound on x - x_star."""

    n: int
    d: int
    backend: str
    sigma_values: np.ndarray  # descending reference spectrum
    youngs: tuple[tuple[int, ...], ...]  # per atom
    weights: tuple[tuple[int, ...], ...]  # per atom
    p: np.ndarray
    log_q: np.ndarray  # log of the per-outcome reference-state weight q_unit
    mult: np.ndarray  # weight-space dimension inside the unitary block
    x: np.ndarray  # -log_q / n
    x_star: np.ndarray  # -H(lam/n) - sum_i (mu_i/n) log s_i
    gap_bound: np.ndarray  # per-block bound on x - x_star
    max_imag: float  # largest imaginary residue dropped during assembly
    neg_clip: float  # most negative raw probability clamped to zero

    def __len__(self) -> int:
        return len(self.p)

    def total_probability(self) -> float:
        return math.fsum(self.p.tolist())

    def total_unit_probability(self) -> float:
        """Sum of multiplicity * q_unit over atoms; equals 1 exactly in theory."""
        return math.fsum((self.mult * np.exp(self.log_q)).tolist())

    def mean_x(self) -> float:
        return math.fsum((self.p * self.x).tolist())


# ------------------------------------------------------------ shared atom table


@dataclass(frozen=True)
class _AtomTable:
    """Everything the exact path needs that depends on (n, d) alone.

    Per-Young arrays follow enumerate_young order; atoms list the weights
    with a nonzero Kostka number under each Young index, in weight order.
    The Kostka numbers are the engine's coefficients at rho_tilde = I,
    rounded.
    """

    columns: tuple[tuple[int, ...], ...]  # every weight; the per-Young row columns
    column_matrix: np.ndarray  # the weights as float rows, one per column
    v_dim: np.ndarray  # per Young index: dimV as a float
    log_v: np.ndarray  # per Young index: log dimV
    log_ratio: np.ndarray  # per Young index: log of the sn_dim size ratio
    entropy: np.ndarray  # per Young index: Shannon entropy of lam / n
    young_idx: np.ndarray  # per atom
    weight_pos: np.ndarray  # per atom: column of its weight
    mult: np.ndarray  # per atom: Kostka number
    youngs: tuple[tuple[int, ...], ...]  # per atom
    weights: tuple[tuple[int, ...], ...]  # per atom

    def weight_log_s(self, log_s: np.ndarray) -> np.ndarray:
        """Per atom: sum_i mu_i log s_i, one matrix product over the weights."""
        return (self.column_matrix @ log_s)[self.weight_pos]


@lru_cache(maxsize=None)
def _atom_table(n: int, d: int) -> _AtomTable:
    plan = _plan(n, d)
    v_dims, log_v, log_ratio, entropy = [], [], [], []
    for young in plan.blocks:
        v_dim, ratio = sn_dim(young)
        v_dims.append(float(v_dim))
        log_v.append(math.log(v_dim))
        log_ratio.append(math.log(ratio))
        entropy.append(type_entropy_bounds(young)[0])
    # K_lam,mu = [z^mu] s_lam(Z): the engine's coefficients at rho_tilde = I
    rows = _schur_coefficients(np.eye(d), n)
    mult_matrix = np.maximum(np.rint(rows.real), 0)
    gap = max(float(np.abs(rows.real - mult_matrix).max()), float(np.abs(rows.imag).max()))
    if gap > KOSTKA_TOL:
        raise ArithmeticError(
            f"Kostka coefficients at (n, d) = ({n}, {d}) are {gap:.3e} off a non-negative "
            f"integer, past the tolerance of {KOSTKA_TOL:g}"
        )
    mult_matrix = mult_matrix.astype(np.int64)
    # row-major nonzeros: Young index first, then weight order
    young_idx, weight_pos = np.nonzero(mult_matrix)
    mult = mult_matrix[young_idx, weight_pos]
    return _AtomTable(
        columns=plan.columns,
        column_matrix=np.array(plan.columns, dtype=float),
        v_dim=np.array(v_dims),
        log_v=np.array(log_v),
        log_ratio=np.array(log_ratio),
        entropy=np.array(entropy),
        young_idx=young_idx,
        weight_pos=weight_pos,
        mult=mult,
        youngs=tuple(plan.blocks[i] for i in young_idx),
        weights=tuple(plan.columns[pos] for pos in weight_pos),
    )


def _rho_in_reference_basis(rho: DensityMatrix, spec: SigmaSpectrum) -> np.ndarray:
    return spec.basis.conj().T @ rho.mat @ spec.basis


def _assemble(n, d, backend, spec, block_rows, max_imag):
    """Build the distribution from per-Young rows of raw probabilities.

    block_rows[y, c] is the raw p of Young index y and weight columns[c].
    """
    table = _atom_table(n, d)
    p = block_rows[table.young_idx, table.weight_pos]
    negative = p < 0
    neg_clip = 0.0
    if negative.any():
        first = int(np.argmax(p <= NEG_ABORT))
        if p[first] <= NEG_ABORT:
            raise ArithmeticError(
                f"probability {float(p[first]):.3e} at {table.youngs[first]}, "
                f"{table.weights[first]}: accumulated roundoff exceeds the abort threshold"
            )
        neg_clip = float(p.min())
        p[negative] = 0.0
        p = p / p.sum()
    weight_log_s = table.weight_log_s(np.log(spec.values))
    log_q = table.log_v[table.young_idx] + weight_log_s
    gap_bound = (d * math.log(n + 1) - table.log_ratio) / n
    dist = OutcomeDistribution(
        n=n,
        d=d,
        backend=backend,
        sigma_values=spec.values.copy(),
        youngs=table.youngs,
        weights=table.weights,
        p=p,
        log_q=log_q,
        mult=table.mult,
        x=-log_q / n,
        x_star=-table.entropy[table.young_idx] - weight_log_s / n,
        gap_bound=gap_bound[table.young_idx],
        max_imag=max_imag,
        neg_clip=neg_clip,
    )
    # read-only, as the memo in distribution hands one table to every caller
    # and mult is the cached atom table's own array
    for array in (dist.sigma_values, dist.p, dist.log_q, dist.mult, dist.x, dist.x_star,
                  dist.gap_bound):
        array.flags.writeable = False
    return dist


# ------------------------------------------------------------ the engine

# Young indices go through the engine in chunks of at most this many grid
# cells (Young indices x grid points), so a grid of at least this many points
# takes one Young index per chunk.  The plan keeps its phase rows only when
# all of them fit in as many cells.
_CHUNK_CELLS = 2**12
# _block_dets eliminates at most this many grid points at a time: at (7, 7)
# slices of 2^12 or 2^13 points took 2.1 s of minors where the whole 8^6-point
# grid took 4.7 s (2-vCPU Xeon VM, 2 MB L2 per core)
_DET_TILE = 2**13


def _phase_row(grid: np.ndarray, roots: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """prod_(k in subset) z_k at every grid point; z_(d-1) = 1 is not on the grid."""
    return roots[grid[subset[subset < len(grid)]].sum(axis=0) % len(roots)]


@dataclass(frozen=True)
class _Plan:
    """The engine's index arrays for one (n, d), built once (see _schur_coefficients).

    The grid is the torus z_k = exp(2 pi i j_k / (n+1)) for k < d-1 and
    z_(d-1) = 1, its G = (n+1)^(d-1) points in C order over (j_0, ...,
    j_(d-2)).  A chunk (start, stop, runs) holds the Young indices
    start..stop-1, and each run (k, lo, hi) the chunk's indices lo..hi-1,
    whose last part lam_d is k.
    """

    blocks: tuple[tuple[int, ...], ...]  # every Young index, enumerate_young order
    columns: tuple[tuple[int, ...], ...]  # every weight, compositions order
    grid: np.ndarray  # (d-1, G): each grid point's exponents j_k
    roots: np.ndarray  # the (n+1)-th roots of unity
    subsets: tuple[np.ndarray, ...]  # per size j = 1..d: the j-subsets as rows, combinations order
    phases: tuple[np.ndarray, ...] | None  # per size j: each subset's phase row; None past the cap
    idx: np.ndarray  # per Young index: its (d-1) x (d-1) Jacobi-Trudi block of h indices
    chunks: tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]
    flat: np.ndarray  # per weight: grid position of its coefficient

    def phase_rows(self, j: int):
        """The phase rows of the j-subsets, in combinations order."""
        if self.phases is not None:
            return self.phases[j - 1]
        return (_phase_row(self.grid, self.roots, subset) for subset in self.subsets[j - 1])


@lru_cache(maxsize=None)
def _plan(n: int, d: int) -> _Plan:
    size = n + 1
    blocks = tuple(enumerate_young(n, d))
    columns = tuple(compositions(n, d))
    grid = np.indices((size,) * (d - 1)).reshape(d - 1, size ** (d - 1))
    roots = np.exp(2j * np.pi * np.arange(size) / size)
    subsets = tuple(np.array(list(combinations(range(d), j)), dtype=np.int64).reshape(-1, j)
                    for j in range(1, d + 1))
    phases = None
    if (2**d - 1) * grid.shape[1] <= _CHUNK_CELLS:
        phases = tuple(np.array([_phase_row(grid, roots, subset) for subset in rows])
                       for rows in subsets)
    # lam = young[::-1] has descending parts, so lam_d is young[0]
    idx = np.array([[[max(young[d - 1 - i] - young[0] - i + j, -1) for j in range(d - 1)]
                     for i in range(d - 1)] for young in blocks], dtype=np.int64)
    step = max(1, _CHUNK_CELLS // grid.shape[1])
    chunks = []
    for start in range(0, len(blocks), step):
        stop = min(start + step, len(blocks))
        runs, lo = [], 0
        for k, run in groupby(young[0] for young in blocks[start:stop]):
            hi = lo + len(list(run))
            runs.append((k, lo, hi))
            lo = hi
        chunks.append((start, stop, tuple(runs)))
    flat = np.ravel_multi_index(np.array(columns, dtype=np.int64).T[:-1], (size,) * (d - 1))
    return _Plan(blocks=blocks, columns=columns, grid=grid, roots=roots, subsets=subsets,
                 phases=phases, idx=idx.reshape(len(blocks), d - 1, d - 1),
                 chunks=tuple(chunks), flat=flat)


def _work(n: int, d: int) -> int:
    """Work units of one distribution call: (n+1)^(d-1) * (2^d + d^2 * Y).

    The grid has (n+1)^(d-1) points.  At each, the elementary functions
    sum 2^d principal minors, and each of the Y Young indices costs one
    (d-1) x (d-1) determinant and its share of one FFT, about d^2.  Y is
    counted only until the work passes JT_MAX_WORK, so past the limit the
    value is a lower bound.  The count is per engine pass: a cold call at a
    new (n, d) runs two, one for the Kostka table and one for p.
    """
    grid = (n + 1) ** (d - 1)
    young = young_count(n, d, JT_MAX_WORK // (grid * d * d))
    return grid * (2**d + d * d * young)


def check_size(n: int, d: int) -> None:
    """Raise ValueError when distribution would refuse (n, d) for its size.

    Needs an integer n (InputError otherwise: a float or a bool is no copy
    count, even when it equals one), n >= 1, n <= JT_MAX_N and _work(n, d)
    <= JT_MAX_WORK; the check builds no table, so callers can vet a whole
    range of n first.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise InputError(f"need an integer number of copies, got {n!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n > JT_MAX_N:
        raise ValueError(f"exact distribution limited to n <= {JT_MAX_N}")
    work = _work(n, d)
    if work > JT_MAX_WORK:
        raise ValueError(
            f"exact distribution at (n, d) = ({n}, {d}) needs at least {Decimal(work):.3g} "
            f"work units, past the limit of {Decimal(JT_MAX_WORK):.3g}"
        )


def _elementary(rt: np.ndarray, plan: _Plan) -> np.ndarray:
    """e_j(rho_tilde Z) for j = 0..d on the plan's grid, as (d+1, G) rows.

    e_j is the sum over j-subsets S of det(rho_tilde[S, S]) times S's
    phase row, with each size's minors in one stacked det.
    """
    d = rt.shape[0]
    e = np.zeros((d + 1, plan.grid.shape[1]), dtype=complex)
    e[0] = 1.0
    for j, subsets in enumerate(plan.subsets, start=1):
        minors = np.linalg.det(rt[subsets[:, :, None], subsets[:, None, :]])
        for minor, phase in zip(minors, plan.phase_rows(j)):
            e[j] += minor * phase
    return e


def _complete(e: np.ndarray, n: int) -> np.ndarray:
    """h_k(rho_tilde Z) for k = 0..n+d-2 from the rows e_0..e_d, by
    h_k = sum_j (-1)^(j-1) e_j h_(k-j); row n+d-1 is zero, so index -1
    reads zero.

    The signed rows (-1)^(j-1) e_j are formed once per call, not once per
    term; each term is the same product as before, added in the same order.
    """
    d = len(e) - 1
    signed = [(-1) ** (j - 1) * e[j] for j in range(1, d + 1)]
    h = np.zeros((n + d, e.shape[1]), dtype=complex)
    h[0] = 1.0
    for k in range(1, n + d - 1):
        for j in range(1, min(k, d) + 1):
            h[k] += signed[j - 1] * h[k - j]
    return h


def _block_dets(blocks: np.ndarray) -> np.ndarray:
    """Determinants of a stack of Jacobi-Trudi blocks, one per grid point.

    blocks[y, i, j, g] is entry (i, j) of block y at grid point g; the
    result is the (Y, G) array of determinants, computed elementwise over
    the stack with no gather.  Order 0 (d = 1) gives ones, and orders 1 and
    2 (d = 2 and 3) are in closed form, the entry and a*d - b*c.  Orders >=
    3 run _eliminate on slices of at most _DET_TILE grid points, whose
    columns stay in cache through its O(order^3) passes; each point's
    determinant is the same whatever the slicing.
    """
    order = blocks.shape[1]
    if order == 0:
        return np.ones((blocks.shape[0], blocks.shape[-1]), dtype=complex)
    if order == 1:
        return blocks[:, 0, 0]
    if order == 2:
        return blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    dets = np.empty((blocks.shape[0], blocks.shape[-1]), dtype=complex)
    for start in range(0, blocks.shape[-1], _DET_TILE):
        dets[:, start:start + _DET_TILE] = _eliminate(blocks[..., start:start + _DET_TILE])
    return dets


def _eliminate(blocks: np.ndarray) -> np.ndarray:
    """Determinants of a (Y, m, m, G) stack by Gaussian elimination with
    partial pivoting, elementwise over the stack.

    This is the algorithm of LAPACK's LU, whose backward stability keeps
    the near-pure accuracy np.linalg.det had (tests/test_distribution.py),
    without its per-matrix LAPACK call, slogdet and exp: at (4, 16) on a
    2-vCPU Xeon VM the minors took 77 of a 99 ms engine call that way and
    take 25 of 47 ms this way (BENCH_pivoted_minors.json).

    At column k the pivot is the first row, from k down, with the largest
    |re| + |im| in that column (LAPACK's izamax): each later row that beats
    the pivot so far on the strict > test swaps with it through np.where,
    and each swap flips the sign.  The determinant is the signed product of
    the pivots.  A zero pivot means its whole column is zero from row k
    down, so it is divided as 1: the factors are zeros, no division by zero
    occurs, and the product carries the zero, as np.linalg.det gives.
    """
    order = blocks.shape[1]
    # rows[i][j] is entry (i, k + j) while column k is eliminated, a (Y, G) array
    rows = [[blocks[:, i, j] for j in range(order)] for i in range(order)]
    det, flip = 1, False
    for k in range(order - 1):
        pivot = rows[k]
        best = np.abs(pivot[0].real) + np.abs(pivot[0].imag)
        for i in range(k + 1, order):
            size = np.abs(rows[i][0].real) + np.abs(rows[i][0].imag)
            swap = size > best
            best = np.where(swap, size, best)
            flip = flip ^ swap
            pivot, rows[i] = ([np.where(swap, b, a) for a, b in zip(pivot, rows[i])],
                              [np.where(swap, a, b) for a, b in zip(pivot, rows[i])])
        det = det * pivot[0]
        divisor = np.where(pivot[0] == 0, 1, pivot[0])
        for i in range(k + 1, order):
            factor = rows[i][0] / divisor
            rows[i] = [b - factor * a for a, b in zip(pivot[1:], rows[i][1:])]
    det = det * rows[-1][0]
    return np.where(flip, -det, det)


def _schur_coefficients(rt: np.ndarray, n: int) -> np.ndarray:
    """[z^mu] s_lam(rho_tilde Z) for every Young index lam and weight mu of (n, d), as a complex array.

    First e_j(rho_tilde Z) for j = 0..d on the grid of the (n, d) plan
    (_elementary), then h_k (_complete), and with descending parts lam_1
    >= ... >= lam_d, s_lam = e_d^lam_d * det[h_(lam_i - lam_d - i + j)].
    The last row of that d x d matrix is (0, ..., 0, 1), so the leading
    (d-1) x (d-1) minor is the determinant.  Factoring out e_d^lam_d spares
    the determinant the cancellation it suffers on near-pure states.  s_lam
    has degree n, so its values on the (n+1)^(d-1) grid fix every
    coefficient, and an FFT over the grid axes returns them all.  Each
    chunk of Young indices takes one gather of its blocks from h, their
    determinants through _block_dets (closed form at orders 1 and 2,
    elementwise pivoted elimination at order >= 3), one power of e_d per
    run of equal last parts (Young indices come sorted by lam_d, so per
    distinct part) and one FFT.
    Row y, column c holds the coefficient of the plan's y-th Young index at
    its c-th weight.
    """
    d = rt.shape[0]
    plan = _plan(n, d)
    e = _elementary(rt, plan)
    h = _complete(e, n)
    shape = (n + 1,) * (d - 1)
    rows = np.empty((len(plan.blocks), len(plan.columns)), dtype=complex)
    for start, stop, runs in plan.chunks:
        values = _block_dets(h[plan.idx[start:stop]])
        for k, lo, hi in runs:
            # the power stays the left factor: numpy's complex product is not
            # bitwise symmetric, and this order gives a one-index loop's bits
            np.multiply(e[d] ** k, values[lo:hi], out=values[lo:hi])
        coeffs = np.fft.fftn(values.reshape(-1, *shape), axes=range(1, d), norm="forward")
        rows[start:stop] = coeffs.reshape(stop - start, -1)[:, plan.flat]
    return rows


# distribution's memo: (key, table) of the last table it returned, or None.
# It is read once and replaced in one assignment, so a thread sees an old or
# a new entry whole; two threads that race only build a table twice.
_last: tuple[tuple, OutcomeDistribution] | None = None


def _state_key(state: DensityMatrix) -> tuple:
    """What the engine reads of a state: its matrix's dtype, shape, layout and bytes."""
    mat = state.mat
    return mat.dtype.str, mat.shape, mat.strides, mat.tobytes()


def distribution(rho: DensityMatrix, sigma, n: int) -> OutcomeDistribution:
    """Exact distribution: p(lam, mu) = dimV * [z^mu] s_lam(rho_tilde Z).

    rho_tilde is rho in sigma's descending eigenbasis, and _schur_coefficients
    reads every coefficient off one Jacobi-Trudi determinant per Young index.
    Inputs that check_pair, sigma_spectrum or check_size refuse raise on
    every call, before any table is built or looked up.

    A call with the same n and the same bytes of rho's and sigma's matrices
    as the one before returns the table that call built, the object itself;
    its arrays are read-only.  So an estimate_report and a tail_report on
    one pair build one table.  The memo keeps one table: a caller that
    cycles through pairs, as the benchmark's workloads do, never reads a
    table that an earlier operation built.
    """
    global _last
    check_pair(rho, sigma)
    spec = sigma_spectrum(sigma)
    d = rho.dim
    check_size(n, d)
    key = (n, _state_key(rho), _state_key(sigma))
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    table = _atom_table(n, d)
    rows = _schur_coefficients(_rho_in_reference_basis(rho, spec), n)
    coeffs = table.v_dim[:, None] * rows
    max_imag = float(np.abs(coeffs.imag).max())
    dist = _assemble(n, d, "jacobi_trudi", spec, coeffs.real, max_imag)
    _last = key, dist
    return dist
