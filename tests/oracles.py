"""Reference computations the tests check the library against.

None of this runs in the library.  Each oracle reaches the exact outcome
law, or a quantity derived from it, along a route that shares no
arithmetic with the Jacobi-Trudi engine:

- brute_distribution sums projected traces over all d**n basis strings,
  one representative permutation per conjugacy class, weighted by
  symmetric-group characters (Murnaghan-Nakayama);
- the dense toolkit builds the d**n x d**n isotypic projectors from the
  characters and the permutation action on basis strings;
- kostka counts semistandard fillings by a horizontal-strip recursion (the
  library reads Kostka numbers off the engine at rho_tilde = I), and
  schur_eval expands a Schur polynomial over them;
- operator_identity_mse rebuilds the estimate as a dense n-copy operator;
- reference_sandwiched_renyi evaluates the sandwiched divergence in mpmath
  at a precision chosen from the reference state's spectral spread;
- gather_scan is the copy-budget scan as one batch of Young-index columns
  per smallest part, read from its lookup tables by fancy indexing (the
  library reads the same tables as strided views over a triangular grid).

The module is not collected as a test file; the tests import it from the
test directory, which pytest puts on sys.path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import groupby
from typing import Iterator, Sequence

import mpmath
import numpy as np

from schurest.distribution import (
    OutcomeDistribution,
    _assemble,
    _atom_table,
    _rho_in_reference_basis,
)
from schurest.partitions import (
    as_young,
    compositions,
    enumerate_young,
    sn_dim,
    total_schur_dim,
    weyl_dim,
    young_columns,
)
from schurest.scaling import UniformReferenceScan
from schurest.states import (
    DensityMatrix,
    relative_entropy,
    sandwiched_renyi,
    sigma_spectrum,
)

BRUTE_MAX_STRINGS = 2**14
BRUTE_MAX_N = 8
DENSE_MAX_STRINGS = 256  # guard for explicit d^n x d^n operators


# ------------------------------------------------------------ characters


@dataclass(frozen=True)
class CycleType:
    """Conjugacy class of the permutation group on n letters."""

    cycles: tuple[int, ...]  # non-increasing positive cycle lengths summing to n

    def __post_init__(self) -> None:
        if not self.cycles or any(c < 1 for c in self.cycles):
            raise ValueError("cycle lengths must be positive")
        if any(self.cycles[i] < self.cycles[i + 1] for i in range(len(self.cycles) - 1)):
            raise ValueError("cycle lengths must be non-increasing")

    @property
    def n(self) -> int:
        return sum(self.cycles)

    @property
    def size(self) -> int:
        """Exact number of permutations in the class: n! / prod(i^m_i m_i!)."""
        den = 1
        for length, mult in Counter(self.cycles).items():
            den *= length**mult * math.factorial(mult)
        size, r = divmod(math.factorial(self.n), den)
        assert r == 0
        return size


def _partitions_desc(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(min(cap, n), 0, -1):
        for rest in _partitions_desc(n - head, head):
            yield (head,) + rest


@cache
def cycle_types(n: int) -> tuple[CycleType, ...]:
    """All conjugacy classes of the permutation group on n letters.

    Deterministic order: cycle tuples in decreasing lexicographic order,
    starting with the single n-cycle and ending with the identity class.
    Built once per n and shared, hence a tuple.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(CycleType(c) for c in _partitions_desc(n, n))


@cache
def _mn_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Border-strip recursion over beta numbers; shape is decreasing with no
    # zero parts, cycles is the remaining cycle list (consumed front-first).
    if not cycles:
        return 1
    k = cycles[0]
    rest = cycles[1:]
    m = len(shape)
    beta = tuple(shape[i] + m - 1 - i for i in range(m))  # strictly decreasing
    bset = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(beta[:pos] + beta[pos + 1 :] + (nb,), reverse=True)
        newshape = tuple(newbeta[i] - (m - 1 - i) for i in range(m))
        newshape = tuple(x for x in newshape if x)
        total += (-1) ** height * _mn_character(newshape, rest)
    return total


def character(lam: Sequence[int], cycles: Sequence[int] | CycleType) -> int:
    """Irreducible character of the symmetric group, exact integer.

    Murnaghan-Nakayama recursion with memoization on (shape, remaining
    cycles); cycles are processed longest-first to keep the memo small.
    """
    parts = as_young(lam)
    if isinstance(cycles, CycleType):
        cyc = cycles.cycles
    else:
        cyc = tuple(sorted((int(c) for c in cycles), reverse=True))
        if any(c < 1 for c in cyc):
            raise ValueError("cycle lengths must be positive")
    shape = tuple(x for x in reversed(parts) if x)
    if sum(cyc) != sum(shape):
        raise ValueError("cycle type and Young index weights differ")
    if not shape:
        return 1
    return _mn_character(shape, cyc)


# ------------------------------------------------------------ Kostka numbers


@cache
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    # shape: decreasing, no zero parts; content: letter multiplicities,
    # decreasing, no zero entries.  Recursion strips the last letter, which
    # occupies a horizontal strip.
    if not shape:
        return 1 if not content else 0
    if not content or len(shape) > len(content):
        return 0
    target = sum(shape) - content[-1]
    rest = content[:-1]
    m = len(shape)

    def strips(i: int, rem: int, acc: tuple[int, ...]) -> int:
        # choose inner shape nu with shape[i+1] <= nu[i] <= shape[i]
        if i == m:
            if rem:
                return 0
            return _kostka(tuple(x for x in acc if x), rest)
        lo = shape[i + 1] if i + 1 < m else 0
        hi = min(shape[i], rem)
        total = 0
        for v in range(lo, hi + 1):
            total += strips(i + 1, rem - v, acc + (v,))
        return total

    if target < 0:
        return 0
    return strips(0, target, ())


def kostka(lam: Sequence[int], weight: Sequence[int]) -> int:
    """Weight-space dimension of the unitary block: semistandard fillings.

    `weight` is an occupation vector (any order; the count is symmetric in
    it) with the same total as lam.
    """
    parts = as_young(lam)
    mu = tuple(int(x) for x in weight)
    if any(x < 0 for x in mu):
        raise ValueError("weights must be non-negative")
    if sum(mu) != sum(parts):
        raise ValueError("weight total must match the Young index weight")
    shape = tuple(x for x in reversed(parts) if x)
    content = tuple(sorted((x for x in mu if x), reverse=True))
    if not shape:
        return 1 if not content else 0
    return _kostka(shape, content)


def schur_eval(lam: Sequence[int], values: Sequence[float]) -> float:
    """Evaluate the unitary-block character polynomial at the given point.

    Uses the weight-multiplicity expansion: the polynomial is the sum over
    occupation vectors nu of kostka(lam, nu) * prod(values_i ** nu_i).
    """
    parts = as_young(lam)
    xs = [float(v) for v in values]
    if len(xs) != len(parts):
        raise ValueError("need one value per part")
    n = sum(parts)
    terms = []
    for nu in compositions(n, len(xs)):
        k = kostka(parts, nu)
        if k == 0:
            continue
        mono = 1.0
        for base, exp in zip(xs, nu):
            mono *= base**exp
        terms.append(k * mono)
    return math.fsum(terms)


# ------------------------------------------------------------ brute backend


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


@lru_cache(maxsize=None)
def _class_coefficients(n: int, d: int) -> np.ndarray:
    """(Young index, class): dimV * class size * character / n!."""
    classes = cycle_types(n)
    n_fact = math.factorial(n)
    return np.array([
        [float(Fraction(sn_dim(young)[0] * ct.size * character(young, ct), n_fact))
         for ct in classes]
        for young in enumerate_young(n, d)
    ])


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


def brute_distribution(rho: DensityMatrix, sigma, n: int) -> OutcomeDistribution:
    """Exact distribution by summing over all d**n basis strings.

    One representative permutation per conjugacy class; the projected trace
    is a class function, so the representative choice is immaterial.
    """
    spec = sigma_spectrum(sigma)
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
    block_rows = _neumaier_accumulate(_class_coefficients(n, d), t_rows.real.copy())
    return _assemble(n, d, "brute", spec, block_rows, max_imag)


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
    spec = sigma_spectrum(sigma)
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
    spec = sigma_spectrum(sigma)
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
    single = math.exp((alpha - 1) * sandwiched_renyi(rho, DensityMatrix(spec.matrix()), alpha))
    rhs = total_schur_dim(n, d).total ** (1 - alpha) * single**n
    return lhs, rhs


def operator_identity_mse(rho: DensityMatrix, sigma: DensityMatrix, n: int) -> float:
    """MSE of the estimate from the dense n-copy operator, bypassing the atom table.

    The per-outcome value x makes X = -(1/n)(log of the reference n-copy
    state + per-block log-dimension), and X - center coincides with
    (1/n)(log of the n-copy state - log of the reference n-copy state)
    - center - (1/n) sum over blocks of log(block component), because the
    n-copy state is exactly the direct sum of its block components.  The
    MSE is the trace moment of that operator against the n-copy state.
    """
    d = rho.dim
    spec = sigma_spectrum(sigma)
    rt = spec.basis.conj().T @ rho.mat @ spec.basis

    def matrix_log(mat):
        vals, vecs = np.linalg.eigh(mat)
        return (vecs * np.log(vals)) @ vecs.conj().T

    def kron_sum(single):
        total = np.zeros((d**n, d**n), dtype=complex)
        for k in range(n):
            term = np.array([[1.0 + 0j]])
            for j in range(n):
                term = np.kron(term, single if j == k else np.eye(d))
            total += term
        return total

    center = relative_entropy(rho, sigma)
    big = kron_power(rt, n)
    block_log = np.zeros((d**n, d**n), dtype=complex)
    for young in enumerate_young(n, d):
        proj = schur_projector(n, d, young)
        v_dim, _ = sn_dim(young)
        inside = proj @ big @ proj
        inside = (inside + inside.conj().T) / 2
        vals, vecs = np.linalg.eigh(inside)
        keep = vals > 1e-13
        block_log += (vecs[:, keep] * np.log(v_dim * vals[keep])) @ vecs[:, keep].conj().T
    g = (
        (kron_sum(matrix_log(rt)) - kron_sum(np.diag(np.log(spec.values)).astype(complex))) / n
        - center * np.eye(d**n)
        - block_log / n
    )
    return float(np.real(np.trace(big @ g @ g)))


# ------------------------------------------------------ high-precision Renyi


def reference_digits(sigma: DensityMatrix, alpha: float) -> int:
    """Working digits that resolve the core sigma^t rho sigma^t at order alpha.

    sigma^((1-alpha)/alpha) spreads the core's spectrum over about
    ((1-alpha)/alpha) * log10(s_max/s_min) decades; 30 digits more keep
    its smallest eigenvalue accurate.  A fixed 60 or 80 digits is too few
    at alpha = 0.01 against a spread-out reference.
    """
    s = np.linalg.eigvalsh(sigma.mat)
    spread = max(0.0, (1 - alpha) / alpha) * math.log10(s[-1] / s[0])
    return 30 + math.ceil(spread)


def reference_sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """The sandwiched divergence of the stored matrices, in mpmath.

    Every float entry, and alpha, converts to mpmath exactly, so the only
    error is that of the working precision from reference_digits.
    """
    with mpmath.workdps(reference_digits(sigma, alpha)):
        order = mpmath.mpf(alpha)
        t = (1 - order) / (2 * order)
        s, basis = mpmath.eighe(mpmath.matrix(sigma.mat.tolist()))
        half = basis * mpmath.diag([value**t for value in s]) * basis.H
        core = half * mpmath.matrix(rho.mat.tolist()) * half
        vals = mpmath.eighe((core + core.H) / 2, eigvals_only=True)
        trace = mpmath.fsum(max(value, 0) ** order for value in vals)
        return float(mpmath.log(trace) / (order - 1))


# ------------------------------------------------------------ copy-budget scan


class GatherScanTables:
    """Integer-indexed lookup tables for one (n, d, q) scan, read by gathers."""

    def __init__(self, n: int, d: int, q: float):
        size = n + d + 1
        self.n = n
        self.log_factorial = np.array([math.lgamma(k + 1) for k in range(size)])
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
        """(log dimV, log Schur value at (1, q, ..., q^(d-1))) of the Young
        indices a + (0, *columns).

        In the increasing convention part i is shifted by i and carries the
        linear weight d - 1 - i; part 0 is a itself, so its gaps are the columns.
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


def gather_scan_batches(n: int, d: int):
    """Yield (a, columns): the Young indices a + (0, *columns) with smallest part a."""
    for a in range(n // d + 1):
        yield a, young_columns(n - d * a, d - 1)


def _log_total(parts: list[np.ndarray]) -> float:
    values = np.concatenate(parts)
    if values.size == 0:
        return -math.inf
    peak = float(values.max())
    return peak + math.log(float(np.exp(values - peak).sum()))


def gather_scan(d: int, n: int, q: float, epsilon: float) -> UniformReferenceScan:
    """The strict tail masses of the estimate for (geometric state, I/d),
    one gathered batch per smallest part."""
    raw = q ** np.arange(d, dtype=float)
    spectrum = raw / raw.sum()
    entropy = -float(np.dot(spectrum, np.log(spectrum)))
    divergence = math.log(d) - entropy
    hi, lo = divergence + epsilon, divergence - epsilon
    tables = GatherScanTables(n, d, q)
    totals, above, below = [], [], []
    count = 0
    for a, columns in gather_scan_batches(n, d):
        log_v, log_schur = tables.batch_logs(a, columns)
        count += len(log_v)
        log_mass = log_v + n * math.log(spectrum[0]) + log_schur
        x = math.log(d) - log_v / n
        totals.append(float(np.exp(log_mass).sum()))
        above.append(log_mass[x > hi])
        below.append(log_mass[x < lo])
    log_plus, log_minus = _log_total(above), _log_total(below)
    return UniformReferenceScan(
        d=d,
        n=n,
        q=q,
        epsilon=epsilon,
        divergence=divergence,
        total_mass=math.fsum(totals),
        block_count=count,
        delta_plus=math.exp(log_plus),
        delta_minus=math.exp(log_minus),
        log_delta_plus=log_plus,
        log_delta_minus=log_minus,
    )
