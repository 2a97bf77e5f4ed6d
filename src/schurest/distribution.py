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

Two independent backends compute the atom probabilities
p(lam, mu) = Tr[rho_tilde^(x)n P_lam P_mu]:

- brute: enumerate all d**n basis strings and evaluate the projected trace
  for one representative permutation per conjugacy class (the trace is a
  class function, so a representative suffices; a full class average is
  kept in the tests as a secondary oracle).
- cycle_poly: represent Tr[rho_tilde^(x)n U(pi) Z^(x)n] as a polynomial in
  diagonal markers Z via per-cycle traces Tr[(rho_tilde Z)^l], multiply the
  cycle polynomials per class, and read off monomial coefficients.

Character-sum cancellation can leave tiny negative raw probabilities:
values in (-1e-6, 0) are clamped to zero (and the worst one recorded);
anything at or below -1e-6 aborts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from .partitions import (
    CycleType,
    character,
    compositions,
    cycle_types,
    enumerate_young,
    kostka,
    sn_dim,
    total_schur_dim,
    type_entropy_bounds,
    weyl_dim,
)
from .states import DensityMatrix, SigmaSpectrum, sigma_spectrum

BRUTE_MAX_STRINGS = 2**14
BRUTE_MAX_N = 8
CYCLE_MAX_N = 30
CYCLE_MAX_D = 4
DENSE_MAX_STRINGS = 256  # guard for explicit d^n x d^n operators
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

    columns: tuple[tuple[int, ...], ...]  # every weight; the trace-row columns
    coeffs: np.ndarray  # (Young index, class): dimV * class size * character / n!
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
    classes = cycle_types(n)
    sizes = [ct.size for ct in classes]
    n_fact = math.factorial(n)
    young_list = enumerate_young(n, d)
    coeffs, log_v, log_ratio, entropy = [], [], [], []
    young_idx, weight_pos, mult = [], [], []
    for yi, young in enumerate(young_list):
        v_dim, ratio = sn_dim(young)
        coeffs.append([float(Fraction(v_dim * size * character(young, ct), n_fact))
                       for ct, size in zip(classes, sizes)])
        log_v.append(math.log(v_dim))
        log_ratio.append(math.log(ratio))
        entropy.append(type_entropy_bounds(young)[0])
        for pos, weight in enumerate(columns):
            k = kostka(young, weight)
            if k:
                young_idx.append(yi)
                weight_pos.append(pos)
                mult.append(k)
    return _AtomTable(
        columns=columns,
        coeffs=np.array(coeffs),
        log_v=np.array(log_v),
        log_ratio=np.array(log_ratio),
        entropy=np.array(entropy),
        young_idx=np.array(young_idx, dtype=np.int64),
        weight_pos=np.array(weight_pos, dtype=np.int64),
        mult=np.array(mult, dtype=np.int64),
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


def _neumaier_accumulate(coeff_matrix: np.ndarray, t_real: np.ndarray) -> np.ndarray:
    """Compensated per-block sums over classes, vectorized across weights."""
    n_young = coeff_matrix.shape[0]
    width = t_real.shape[1]
    acc = np.zeros((n_young, width))
    comp = np.zeros((n_young, width))
    for ci in range(t_real.shape[0]):
        y = coeff_matrix[:, ci : ci + 1] * t_real[ci][None, :]
        t = acc + y
        swap = np.abs(acc) >= np.abs(y)
        comp += np.where(swap, (acc - t) + y, (y - t) + acc)
        acc = t
    return acc + comp


def _assemble(n, d, backend, spec, t_real, t_imag_max):
    """Build the distribution from per-class weight-indexed trace rows."""
    table = _atom_table(n, d)
    block_rows = _neumaier_accumulate(table.coeffs, t_real)
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
        max_imag=t_imag_max,
        neg_clip=neg_clip,
    )


# ------------------------------------------------------------ string tools


def string_digits(n: int, d: int) -> np.ndarray:
    """All d**n basis strings as an (d**n, n) array of digits, most significant first."""
    count = d**n
    codes = np.arange(count)
    digits = np.empty((count, n), dtype=np.int64)
    for k in range(n):
        digits[:, n - 1 - k] = (codes // d**k) % d
    return digits


def _weight_codes(weights: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    base = n + 1
    powers = base ** np.arange(len(weights[0]) - 1, -1, -1)
    return np.array([np.dot(w, powers) for w in weights], dtype=np.int64)


def _class_representative_inverse(ct: CycleType) -> np.ndarray:
    """Inverse of the permutation built from consecutive cycles of given lengths."""
    n = ct.n
    inv = np.empty(n, dtype=np.int64)
    offset = 0
    for length in ct.cycles:
        for j in range(length):
            inv[offset + j] = offset + (j - 1) % length
        offset += length
    return inv


def _projected_traces(rt: np.ndarray, digits: np.ndarray, type_idx: np.ndarray,
                      n_types: int, inv: np.ndarray) -> np.ndarray:
    """Tr[rho_tilde^(x)n U(pi) P_mu] for all mu at one permutation, as a complex vector."""
    vals = rt[digits, digits[:, inv]]
    prod = vals.prod(axis=1)
    re = np.bincount(type_idx, weights=prod.real, minlength=n_types)
    im = np.bincount(type_idx, weights=prod.imag, minlength=n_types)
    return re + 1j * im


def brute_distribution(rho: DensityMatrix, sigma, n: int) -> OutcomeDistribution:
    """Exact distribution by summing over all d**n basis strings.

    One representative permutation per conjugacy class; the projected trace
    is a class function, so the representative choice is immaterial.
    """
    spec = _coerce_spectrum(sigma)
    d = rho.dim
    if n < 1:
        raise ValueError("need n >= 1")
    if d**n > BRUTE_MAX_STRINGS or n > BRUTE_MAX_N:
        raise ValueError(f"brute backend limited to d^n <= {BRUTE_MAX_STRINGS}, n <= {BRUTE_MAX_N}")
    rt = _rho_in_reference_basis(rho, spec)
    weights = _atom_table(n, d).columns
    digits = string_digits(n, d)
    occ = np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1)
    codes = _weight_codes([tuple(row) for row in occ], n)
    sorted_codes = _weight_codes(weights, n)
    type_idx = np.searchsorted(sorted_codes, codes)
    classes = cycle_types(n)
    t_rows = np.empty((len(classes), len(weights)), dtype=complex)
    for ci, ct in enumerate(classes):
        inv = _class_representative_inverse(ct)
        t_rows[ci] = _projected_traces(rt, digits, type_idx, len(weights), inv)
    max_imag = float(np.abs(t_rows.imag).max())
    return _assemble(n, d, "brute", spec, t_rows.real.copy(), max_imag)


# ---------------------------------------------------------- cycle backend


@lru_cache(maxsize=None)
def _monomial_keys(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Per total degree m <= n: sorted integer keys of the degree-m monomials."""
    base = n + 1
    powers = base ** np.arange(d - 1, -1, -1)
    keys = []
    for m in range(n + 1):
        comps = np.array(list(compositions(m, d)), dtype=np.int64)
        keys.append(comps @ powers)
    return tuple(keys)


def _convolve(a: np.ndarray, b: np.ndarray, keys, deg_a: int, deg_b: int) -> np.ndarray:
    """Multiply homogeneous coefficient vectors of degrees deg_a and deg_b."""
    target = keys[deg_a + deg_b]
    pos = np.searchsorted(target, keys[deg_a][:, None] + keys[deg_b][None, :]).ravel()
    outer = (a[:, None] * b[None, :]).ravel()
    re = np.bincount(pos, weights=outer.real, minlength=len(target))
    im = np.bincount(pos, weights=outer.imag, minlength=len(target))
    return re + 1j * im


def _cycle_trace_polys(rt: np.ndarray, n: int, keys) -> list[np.ndarray]:
    """t[l] = coefficients of Tr[(rho_tilde Z)^l] as a degree-l polynomial in z."""
    d = rt.shape[0]
    shifts = []
    base = n + 1
    for m in range(n):
        row = [
            np.searchsorted(keys[m + 1], keys[m] + base ** (d - 1 - k)) for k in range(d)
        ]
        shifts.append(row)
    t_polys: list[np.ndarray] = [np.array([1.0 + 0j])]  # degree 0: empty product
    m_cur = np.zeros((d, d, d), dtype=complex)  # degree-1 matrix entries
    for i in range(d):
        for k in range(d):
            m_cur[i, k, shifts[0][k][0]] = rt[i, k]
    t_polys.append(np.einsum("iik->k", m_cur).copy())
    for deg in range(1, n):
        mixed = np.einsum("ijm,jk->ikm", m_cur, rt)
        nxt = np.zeros((d, d, len(keys[deg + 1])), dtype=complex)
        for k in range(d):
            nxt[:, k, shifts[deg][k]] = mixed[:, k, :]
        m_cur = nxt
        t_polys.append(np.einsum("iik->k", m_cur).copy())
    return t_polys


def cycle_poly_distribution(rho: DensityMatrix, sigma, n: int) -> OutcomeDistribution:
    """Exact distribution via cycle-index polynomials; scales to n = 30 at d <= 4."""
    spec = _coerce_spectrum(sigma)
    d = rho.dim
    if n < 1:
        raise ValueError("need n >= 1")
    if d > CYCLE_MAX_D or n > CYCLE_MAX_N:
        raise ValueError(f"cycle backend limited to d <= {CYCLE_MAX_D}, n <= {CYCLE_MAX_N}")
    rt = _rho_in_reference_basis(rho, spec)
    keys = _monomial_keys(n, d)
    t_polys = _cycle_trace_polys(rt, n, keys)
    classes = cycle_types(n)
    class_pos = {ct.cycles: i for i, ct in enumerate(classes)}
    t_rows = np.empty((len(classes), len(keys[n])), dtype=complex)
    emitted = 0

    def descend(rem: int, cap: int, prefix: tuple[int, ...], poly: np.ndarray, deg: int):
        nonlocal emitted
        for head in range(min(cap, rem), 0, -1):
            grown = _convolve(poly, t_polys[head], keys, deg, head)
            cycles = prefix + (head,)
            if rem == head:
                t_rows[class_pos[cycles]] = grown
                emitted += 1
            else:
                descend(rem - head, head, cycles, grown, deg + head)

    descend(n, n, (), t_polys[0], 0)
    assert emitted == len(classes)
    max_imag = float(np.abs(t_rows.imag).max())
    return _assemble(n, d, "cycle_poly", spec, t_rows.real.copy(), max_imag)


def distribution(rho: DensityMatrix, sigma, n: int, backend: str = "auto") -> OutcomeDistribution:
    """Dispatch to a backend; auto picks brute for d**n <= 2**14, else cycle_poly."""
    if backend == "auto":
        backend = "brute" if rho.dim**n <= BRUTE_MAX_STRINGS and n <= BRUTE_MAX_N else "cycle_poly"
    if backend == "brute":
        return brute_distribution(rho, sigma, n)
    if backend == "cycle_poly":
        return cycle_poly_distribution(rho, sigma, n)
    raise ValueError(f"unknown backend {backend!r}")


# --------------------------------------------------------- dense block ops


def _check_dense_guard(n: int, d: int) -> None:
    if d**n > DENSE_MAX_STRINGS or math.factorial(n) > 5040:
        raise ValueError("dense block operations limited to d^n <= 256, n <= 7")


def kron_power(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, mat)
    return out


def _perm_string_index(digits: np.ndarray, perm: tuple[int, ...], d: int) -> np.ndarray:
    """Index of each permuted string: position m of the image holds letter x[perm_inv(m)]."""
    n = digits.shape[1]
    inv = np.argsort(np.array(perm))
    permuted = digits[:, inv]
    powers = d ** np.arange(n - 1, -1, -1)
    return permuted @ powers


def _cycle_type_of(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def schur_projector(n: int, d: int, young) -> np.ndarray:
    """Dense isotypic projector for one Young index on the n-copy space."""
    from itertools import permutations as iter_permutations

    _check_dense_guard(n, d)
    young = tuple(young)
    v_dim, _ = sn_dim(young)
    digits = string_digits(n, d)
    count = d**n
    proj = np.zeros((count, count))
    chi_by_type = {ct.cycles: character(young, ct) for ct in cycle_types(n)}
    rows = np.arange(count)
    for perm in iter_permutations(range(n)):
        chi = chi_by_type[_cycle_type_of(perm)]
        if chi == 0:
            continue
        image = _perm_string_index(digits, perm, d)
        np.add.at(proj, (image, rows), chi)
    return proj * (v_dim / math.factorial(n))


def type_mask(n: int, d: int, weight) -> np.ndarray:
    """Boolean mask over basis strings whose letter occupations equal the weight."""
    digits = string_digits(n, d)
    occ = np.stack([(digits == a).sum(axis=1) for a in range(d)], axis=1)
    return (occ == np.asarray(weight)).all(axis=1)


def block_projectors(n: int, d: int) -> list[tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]:
    """Joint (Young index, weight) projectors; they tile the identity."""
    _check_dense_guard(n, d)
    out = []
    table = _atom_table(n, d)
    atoms = zip(table.youngs, table.weights)
    for young, group in groupby(atoms, key=lambda atom: atom[0]):
        p_lam = schur_projector(n, d, young)
        for _, weight in group:
            mask = type_mask(n, d, weight)
            block = p_lam * 0.0
            block[np.ix_(mask, mask)] = p_lam[np.ix_(mask, mask)]
            out.append((young, weight, block))
    return out


def block_spectrum(rho: DensityMatrix, sigma, n: int, young) -> np.ndarray:
    """Spectrum of the state's Young-block component (descending).

    The n-copy state restricted to one Young block is (block state) tensor
    (maximally mixed permutation part); each distinct eigenvalue shows up
    with the symmetric-group dimension as multiplicity, so the spectrum is
    recovered by striding the sorted block eigenvalues and rescaling.
    """
    spec = _coerce_spectrum(sigma)
    d = rho.dim
    _check_dense_guard(n, d)
    young = tuple(young)
    u_dim = weyl_dim(young)
    v_dim, _ = sn_dim(young)
    rt = _rho_in_reference_basis(rho, spec)
    big = kron_power(rt, n)
    proj = schur_projector(n, d, young)
    inside = proj @ big @ proj
    inside = (inside + inside.conj().T) / 2
    vals = np.linalg.eigvalsh(inside)[::-1]
    top = np.clip(vals[: u_dim * v_dim], 0.0, None).reshape(u_dim, v_dim)
    spread = float((top.max(axis=1) - top.min(axis=1)).max()) if top.size else 0.0
    assert spread < 1e-9, f"block degeneracy pattern violated (spread {spread:.3e})"
    return np.sort(top.mean(axis=1) * v_dim)[::-1]


def pinch(mat: np.ndarray, projectors) -> np.ndarray:
    out = np.zeros_like(mat, dtype=complex)
    for proj in projectors:
        out += proj @ mat @ proj
    return out


def pinching_defect(state, projectors) -> float:
    """Minimum eigenvalue of (number of blocks) * pinched state - state.

    Non-negative up to roundoff: pinching across B orthogonal blocks cannot
    shrink a state by more than the factor B.  The state is the full
    many-copy operator, as a matrix or a DensityMatrix.
    """
    state_mat = state.mat if isinstance(state, DensityMatrix) else np.asarray(state)
    mats = [np.asarray(p) for p in projectors]
    total = np.zeros_like(mats[0], dtype=complex)
    for proj in mats:
        if float(np.max(np.abs(proj @ proj - proj))) > 1e-9:
            raise ValueError("projector is not idempotent")
        for other in mats:
            if other is not proj and float(np.max(np.abs(proj @ other))) > 1e-9:
                raise ValueError("projectors are not mutually orthogonal")
        total += proj
    if float(np.max(np.abs(total - np.eye(total.shape[0])))) > 1e-9:
        raise ValueError("projectors do not resolve the identity")
    gamma = pinch(state_mat, mats)
    diff = len(mats) * gamma - state_mat
    diff = (diff + diff.conj().T) / 2
    return float(np.linalg.eigvalsh(diff)[0])


def renyi_trace_check(rho: DensityMatrix, sigma, n: int, alpha: float) -> tuple[float, float]:
    """Pinched Renyi trace against its dimension-weighted single-copy power.

    Returns (lhs, rhs) with
    lhs = Tr[pinched(rho^(x)n)^alpha (sigma^(x)n)^(1-alpha)] and
    rhs = (total Schur dimension)^(1-alpha) * (single-copy sandwiched
    trace)^n, for alpha in (0,1); lhs <= rhs.
    """
    if not 0 < alpha < 1:
        raise ValueError("need alpha in (0, 1)")
    spec = _coerce_spectrum(sigma)
    d = rho.dim
    _check_dense_guard(n, d)
    rt = _rho_in_reference_basis(rho, spec)
    big = kron_power(rt, n)
    projectors = [block for _, _, block in block_projectors(n, d)]
    gamma = pinch(big, projectors)
    gamma = (gamma + gamma.conj().T) / 2
    vals, vecs = np.linalg.eigh(gamma)
    vals = np.clip(vals, 0.0, None)
    powered = np.power(vals, alpha, out=np.zeros_like(vals), where=vals > 0)
    gamma_pow = (vecs * powered) @ vecs.conj().T
    sigma_diag = kron_power(np.diag(spec.values), n).real.diagonal()
    lhs = float(np.real(gamma_pow.diagonal() @ np.power(sigma_diag, 1 - alpha)))
    exponent = (1 - alpha) / (2 * alpha)
    s_vals, s_vecs = np.linalg.eigh(_coerce_spectrum(sigma).matrix())
    half = (s_vecs * np.power(s_vals, exponent)) @ s_vecs.conj().T
    core = half @ rho.mat @ half
    core = (core + core.conj().T) / 2
    single = float(np.power(np.clip(np.linalg.eigvalsh(core), 0, None), alpha).sum())
    rhs = total_schur_dim(n, d).total ** (1 - alpha) * single**n
    return lhs, rhs
