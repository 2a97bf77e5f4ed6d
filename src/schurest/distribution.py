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

One engine computes the atom probabilities p(lam, mu) = Tr[rho_tilde^(x)n
P_lam P_mu] at every d.  Since (rho_tilde Z)^(x)n commutes with P_lam for
diagonal markers Z = diag(z), p(lam, mu) = dimV * [z^mu] s_lam(rho_tilde Z).
The Schur polynomial is a Jacobi-Trudi determinant in the complete
symmetric functions h_k(rho_tilde Z), evaluated on a grid of roots of
unity; one FFT per Young index reads off every coefficient.  The cost is
set by (n, d) alone, and one work guard, checked before any table is
built, refuses sizes past JT_MAX_WORK (see _work).  The independent
references the tests compare against (basis-string sums weighted by
characters, dense projectors) live in the test tree.

Roundoff can leave tiny negative raw probabilities: values in (-1e-6, 0)
are clamped to zero (and the worst one recorded); anything at or below
-1e-6 aborts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import combinations

import numpy as np

from .partitions import (
    compositions,
    enumerate_young,
    kostka,
    sn_dim,
    type_entropy_bounds,
    young_count,
)
from .states import DensityMatrix, SigmaSpectrum, sigma_spectrum

JT_MAX_N = 30
# warm calls took 1.7-3.4e-8 s per work unit from d = 4 to 9 on a 2-vCPU VM,
# so the limit keeps a call near 4-8 s and under 0.6 GB; it admits every
# d <= 4 up to n = 30
JT_MAX_WORK = 250_000_000
NEG_ABORT = -1e-6


@dataclass(frozen=True)
class OutcomeAtom:
    """One aggregated measurement outcome."""

    young: tuple[int, ...]
    weight: tuple[int, ...]
    p: float
    log_q_unit: float  # log of the per-outcome reference-state weight
    multiplicity: int  # weight-space dimension inside the unitary block

    @property
    def q_unit(self) -> float:
        return math.exp(self.log_q_unit)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome table for one (state, reference, n) triple."""

    n: int
    d: int
    backend: str
    sigma_values: np.ndarray  # descending reference spectrum
    youngs: tuple[tuple[int, ...], ...]  # per atom
    weights: tuple[tuple[int, ...], ...]  # per atom
    p: np.ndarray
    log_q: np.ndarray
    mult: np.ndarray
    max_imag: float  # largest imaginary residue dropped during assembly
    neg_clip: float  # most negative raw probability clamped to zero

    def __len__(self) -> int:
        return len(self.p)

    @property
    def atoms(self) -> list[OutcomeAtom]:
        return [
            OutcomeAtom(young, weight, float(p), float(lq), int(m))
            for young, weight, p, lq, m in zip(
                self.youngs, self.weights, self.p, self.log_q, self.mult
            )
        ]

    def total_probability(self) -> float:
        return math.fsum(self.p.tolist())

    def total_unit_probability(self) -> float:
        """Sum of multiplicity * q_unit over atoms; equals 1 exactly in theory."""
        return math.fsum((self.mult * np.exp(self.log_q)).tolist())

    def lam_marginal(self) -> dict[tuple[int, ...], float]:
        out: dict[tuple[int, ...], list[float]] = {}
        for young, p in zip(self.youngs, self.p):
            out.setdefault(young, []).append(float(p))
        return {young: math.fsum(values) for young, values in out.items()}


# ------------------------------------------------------------ shared atom table


@dataclass(frozen=True)
class _AtomTable:
    """Everything the exact path needs that depends on (n, d) alone.

    Per-Young arrays follow enumerate_young order; atoms list the weights
    with a nonzero Kostka number under each Young index, in weight order.
    """

    columns: tuple[tuple[int, ...], ...]  # every weight; the per-Young row columns
    blocks: tuple[tuple[int, ...], ...]  # every Young index, enumerate_young order
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
        """Per atom: sum_i mu_i log s_i, one dot product per weight."""
        per_column = np.array([float(np.dot(weight, log_s)) for weight in self.columns])
        return per_column[self.weight_pos]


@lru_cache(maxsize=None)
def _atom_table(n: int, d: int) -> _AtomTable:
    columns = tuple(compositions(n, d))
    young_list = enumerate_young(n, d)
    v_dims, log_v, log_ratio, entropy = [], [], [], []
    for young in young_list:
        v_dim, ratio = sn_dim(young)
        v_dims.append(float(v_dim))
        log_v.append(math.log(v_dim))
        log_ratio.append(math.log(ratio))
        entropy.append(type_entropy_bounds(young)[0])
    # kostka is symmetric in the weight, and the sorted weights of (n, d) are
    # exactly its Young indices: one Kostka matrix over Young index pairs
    # covers every column
    kostka_matrix = np.array(
        [[kostka(young, sorted_weight) for sorted_weight in young_list] for young in young_list],
        dtype=np.int64,
    )
    young_pos = {young: i for i, young in enumerate(young_list)}
    sorted_pos = np.array([young_pos[tuple(sorted(weight))] for weight in columns], dtype=np.int64)
    mult_matrix = kostka_matrix[:, sorted_pos]
    # row-major nonzeros: Young index first, then weight order
    young_idx, weight_pos = np.nonzero(mult_matrix)
    mult = mult_matrix[young_idx, weight_pos]
    return _AtomTable(
        columns=columns,
        blocks=tuple(young_list),
        v_dim=np.array(v_dims),
        log_v=np.array(log_v),
        log_ratio=np.array(log_ratio),
        entropy=np.array(entropy),
        young_idx=young_idx,
        weight_pos=weight_pos,
        mult=mult,
        youngs=tuple(young_list[i] for i in young_idx),
        weights=tuple(columns[pos] for pos in weight_pos),
    )


def _rho_in_reference_basis(rho: DensityMatrix, spec: SigmaSpectrum) -> np.ndarray:
    if rho.dim != spec.dim:
        raise ValueError("state and reference dimensions differ")
    return spec.basis.conj().T @ rho.mat @ spec.basis


def _coerce_spectrum(sigma) -> SigmaSpectrum:
    if isinstance(sigma, SigmaSpectrum):
        return sigma
    return sigma_spectrum(sigma)


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
    return OutcomeDistribution(
        n=n,
        d=d,
        backend=backend,
        sigma_values=spec.values.copy(),
        youngs=table.youngs,
        weights=table.weights,
        p=p,
        log_q=table.log_v[table.young_idx] + table.weight_log_s(np.log(spec.values)),
        mult=table.mult.copy(),
        max_imag=max_imag,
        neg_clip=neg_clip,
    )


# ------------------------------------------------------------ the engine


def _elementary_on_torus(rt: np.ndarray, n: int) -> np.ndarray:
    """e_j(rho_tilde Z) for j = 0..d at every grid point, as a (d+1, G) array.

    z_k runs over the (n+1)-th roots of unity for k < d-1 and z_(d-1) = 1;
    grid points are in C order over (j_0, ..., j_(d-2)).  e_j is the sum over
    j-subsets S of det(rho_tilde[S, S]) * prod_(k in S) z_k.
    """
    d = rt.shape[0]
    size = n + 1
    grid = np.indices((size,) * (d - 1)).reshape(d - 1, size ** (d - 1))
    roots = np.exp(2j * np.pi * np.arange(size) / size)
    e = np.zeros((d + 1, grid.shape[1]), dtype=complex)
    e[0] = 1.0
    for j in range(1, d + 1):
        for subset in combinations(range(d), j):
            exponent = grid[[k for k in subset if k < d - 1]].sum(axis=0) % size
            e[j] += np.linalg.det(rt[np.ix_(subset, subset)]) * roots[exponent]
    return e


def _work(n: int, d: int) -> int:
    """Work units of one distribution call: (n+1)^(d-1) * (2^d + d^2 * Y).

    The grid has (n+1)^(d-1) points.  At each, the elementary functions
    sum 2^d principal minors, and each of the Y Young indices costs one
    (d-1) x (d-1) determinant and its share of one FFT, about d^2.  Y is
    counted only until the work passes JT_MAX_WORK, so past the limit the
    value is a lower bound.
    """
    grid = (n + 1) ** (d - 1)
    young = young_count(n, d, JT_MAX_WORK // (grid * d * d))
    return grid * (2**d + d * d * young)


def distribution(rho: DensityMatrix, sigma, n: int) -> OutcomeDistribution:
    """Exact distribution from one Jacobi-Trudi determinant per Young index.

    On the grid, h_k = sum_j (-1)^(j-1) e_j h_(k-j), and with descending parts
    lam_1 >= ... >= lam_d, s_lam = e_d^lam_d * det[h_(lam_i - lam_d - i + j)].
    The last row of that d x d matrix is (0, ..., 0, 1), so the leading
    (d-1) x (d-1) minor is the determinant.  Factoring out e_d^lam_d spares
    the determinant the cancellation it suffers on near-pure states.  s_lam
    has degree n, so its values on the (n+1)^(d-1) grid fix every
    coefficient, and one FFT per Young index returns them all.  Sizes with
    n > JT_MAX_N or work past JT_MAX_WORK raise ValueError.
    """
    spec = _coerce_spectrum(sigma)
    d = rho.dim
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
    table = _atom_table(n, d)
    e = _elementary_on_torus(_rho_in_reference_basis(rho, spec), n)
    # h_(-1) is the zero row at the end, so negative indices read zero
    h = np.zeros((n + d, e.shape[1]), dtype=complex)
    h[0] = 1.0
    for k in range(1, n + d - 1):
        for j in range(1, min(k, d) + 1):
            h[k] += (-1) ** (j - 1) * e[j] * h[k - j]
    shape = (n + 1,) * (d - 1)
    # grid index of each weight's coefficient: its first d-1 exponents
    columns = np.ravel_multi_index(np.array(table.columns, dtype=np.int64).T[:-1], shape)
    block_rows = np.empty((len(table.blocks), len(table.columns)))
    max_imag = 0.0
    for yi, young in enumerate(table.blocks):
        lam = young[::-1]
        idx = np.array([[max(lam[i] - lam[-1] - i + j, -1) for j in range(d - 1)]
                        for i in range(d - 1)], dtype=np.int64).reshape(d - 1, d - 1)
        minor = np.linalg.det(np.moveaxis(h[idx], -1, 0))
        values = (e[d] ** lam[-1] * minor).reshape(shape)
        coeffs = table.v_dim[yi] * np.fft.fftn(values, norm="forward").ravel()[columns]
        block_rows[yi] = coeffs.real
        max_imag = max(max_imag, float(np.abs(coeffs.imag).max()))
    return _assemble(n, d, "jacobi_trudi", spec, block_rows, max_imag)
