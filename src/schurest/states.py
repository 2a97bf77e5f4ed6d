"""Validated density matrices, divergence functionals, and the local-estimation SLD data.

All logarithms are natural.  Supports are handled by eigenvalue cutoffs:
a state eigenvalue above 1e-10 counts as support, and a reference-state
expectation below 1e-12 on such an eigenvector signals a support violation.

Each state is diagonalized once, on first use (DensityMatrix.spectrum), and
every functional reads that.  An input outside a rule raises InputError: no
density matrix, a dimension above MAX_DIM or unequal within a pair (check_pair),
a reference state that is not full rank with unit trace (sigma_spectrum), rho
outside sigma's support (relative_entropy).  D and V are one law's mean and
variance (divergence_moments).  An eigenvalue of rho within rounding of zero
is an exact zero in every functional (_exact_spectrum).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

SUPPORT_CUT = 1e-10  # eigenvalues above this count as support of rho
EXPECTATION_CUT = 1e-12  # sigma-expectation below this on a supported eigenvector: no support
REPAIR_TOL = 1e-6  # validate_state rejects inputs needing more total correction
RENYI_TOL = 1e-9  # sandwiched divergences not certified to this absolute error are NaN
MAX_DIM = 1024  # a random pair with D and V: about 9 s and 190 MB on 2 vCPUs, growing as d^3


class InputError(ValueError):
    """An input outside a rule the library computes under."""


def check_copies(n) -> None:
    """Raise InputError unless n is an integer copy count.

    A float or a bool is no copy count, even when it equals one; numpy
    integers pass, so callers that need a Python int take int(n) after.
    The range of n is each caller's own rule.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise InputError(f"need an integer number of copies, got {n!r}")


def _check_dim(d: int) -> None:
    if d > MAX_DIM:
        raise InputError(f"state dimension {d} is above the limit of {MAX_DIM}")


@dataclass(frozen=True)
class DensityMatrix:
    """A repaired, validated quantum state."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh(mat), kept read-only: eigenvalues ascending, eigenvectors as columns."""
        vals, vecs = np.linalg.eigh(self.mat)
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs


def validate_state(raw) -> DensityMatrix:
    """Hermitize, clamp tiny negative eigenvalues, renormalize the trace.

    The total applied correction (hermitian defect + clipped negative mass +
    trace defect) must stay below 1e-6, otherwise the input is rejected as
    malformed rather than silently repaired.
    """
    arr = np.asarray(raw, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    _check_dim(arr.shape[0])
    # a density matrix has no entry of modulus above 1; the bound also
    # rejects non-finite entries and keeps the arithmetic below from overflowing
    if not (np.abs(arr.real) <= 2).all() or not (np.abs(arr.imag) <= 2).all():
        raise InputError("matrix has non-finite entries or entries far above 1")
    herm_defect = float(np.max(np.abs(arr - arr.conj().T))) / 2 if arr.size else 0.0
    herm = (arr + arr.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    neg_mass = float(-np.clip(vals, None, 0.0).sum())
    vals = np.clip(vals, 0.0, None)
    trace = float(vals.sum())
    trace_defect = abs(trace - 1.0)
    if trace <= 0:
        raise InputError("matrix has no positive spectral mass")
    correction = herm_defect + neg_mass + trace_defect
    if correction > REPAIR_TOL:
        raise InputError(
            f"input is not close enough to a density matrix (correction {correction:.3e})"
        )
    vals = vals / trace
    mat = (vecs * vals) @ vecs.conj().T
    mat = (mat + mat.conj().T) / 2
    return DensityMatrix(mat)


@dataclass(frozen=True)
class SigmaSpectrum:
    """Eigendecomposition of a full-rank reference state.

    values: eigenvalues in descending order, all positive, summing to 1.
    basis: unitary whose columns are the matching eigenvectors.
    """

    values: np.ndarray
    basis: np.ndarray


def sigma_spectrum(sigma: DensityMatrix) -> SigmaSpectrum:
    """The reference rule: sigma's spectrum, descending, if full rank with unit trace."""
    vals, vecs = sigma.spectrum
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals[-1] <= EXPECTATION_CUT:
        raise InputError(f"reference state must be full rank (min eigenvalue {vals[-1]:.3e})")
    trace = float(vals.sum())
    if not abs(trace - 1.0) < 1e-10:
        raise InputError(f"reference state must have unit trace (trace {trace!r})")
    return SigmaSpectrum(values=vals, basis=vecs)


# ------------------------------------------------------------- divergences


def _eig_slack(d: int) -> float:
    """Eigenvalue error of forming and diagonalizing a d x d matrix, per unit of its scale."""
    return 8 * d * float(np.finfo(float).eps)


def _exact_spectrum(state: DensityMatrix) -> np.ndarray:
    """The state's eigenvalues, ascending, with those within _eig_slack of zero
    taken as exact zeros: the one rule for what a pure or rank-deficient state is."""
    vals = state.spectrum[0]
    return np.where(vals > _eig_slack(state.dim), vals, 0.0)


def check_pair(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    """The pair rule: rho and sigma act on one space."""
    if rho.dim != sigma.dim:
        raise InputError("rho and sigma have different dimensions")


def _log_ratio_law(rho: DensityMatrix, sigma: DensityMatrix):
    """The Nussbaum-Szkola law of log rho - log sigma under rho, and its mean D.

    Returns (mass, log_r, log_s, D): mass[i, k] = r_i |<r_i|s_k>|^2 sits at
    log_r[i] - log_s[k], over rho's positive eigenvalues (_exact_spectrum)
    and sigma's support.  The pair rule comes first, then the support rule."""
    check_pair(rho, sigma)
    (_, rv), (s, sv) = rho.spectrum, sigma.spectrum
    r, s = _exact_spectrum(rho), np.maximum(s, 0.0)
    overlap = np.abs(rv.conj().T @ sv) ** 2  # overlap[i, k] = |<r_i|s_k>|^2
    support = s > EXPECTATION_CUT
    supported = overlap[r > SUPPORT_CUT]
    # no sigma weight on a supported eigenvector, or weight outside sigma's support
    if ((supported @ s < EXPECTATION_CUT).any()
            or (supported[:, ~support].sum(axis=1) > EXPECTATION_CUT).any()):
        raise InputError("relative entropy is infinite (support violation)")
    on_support, log_s = overlap[:, support], np.log(s[support])
    entropy_term = float(sum(x * math.log(x) for x in r if x > 0))
    cross_term = float((r[:, None] * on_support * log_s).sum())
    positive = r > 0
    mass = r[positive, None] * on_support[positive]
    return mass, np.log(r[positive]), log_s, entropy_term - cross_term


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho||sigma) = Tr rho (log rho - log sigma); InputError outside sigma's support."""
    return _log_ratio_law(rho, sigma)[3]


def divergence_moments(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, float]:
    """(D, V) from one log-ratio law: its mean and its centred variance.

    V = Tr rho (log rho - log sigma - D)^2 reads 0.0 below (8 d eps max|log|)^2,
    the rounding of its atoms and of D."""
    mass, log_r, log_s, d_value = _log_ratio_law(rho, sigma)
    variance = math.fsum((mass * (log_r[:, None] - log_s - d_value) ** 2).ravel().tolist())
    scale = max(np.abs(log_r).max(), np.abs(log_s).max())
    return d_value, variance if variance > (_eig_slack(rho.dim) * scale) ** 2 else 0.0


def relative_varentropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """V = Tr rho (log rho - log sigma - D)^2, the log-ratio law's centred variance."""
    return divergence_moments(rho, sigma)[1]


@dataclass(frozen=True)
class _RenyiPair:
    """What every order of the sandwiched divergence shares for one state pair."""

    rho: np.ndarray
    s: np.ndarray  # reference eigenvalues, ascending, all above EXPECTATION_CUT
    sv: np.ndarray  # matching eigenvectors as columns
    sv_h: np.ndarray  # their conjugate transpose
    null: int  # eigenvalues of rho taken as exact zeros (_exact_spectrum)
    slack: float  # eigenvalue error bound per unit of the core's scale


def _renyi_pair(rho: DensityMatrix, sigma: DensityMatrix) -> _RenyiPair:
    check_pair(rho, sigma)
    sigma_spectrum(sigma)  # the reference rule
    s, sv = sigma.spectrum  # as eigh returns them: a reordered copy rounds differently
    null = int(np.sum(_exact_spectrum(rho) == 0))
    return _RenyiPair(rho=rho.mat, s=s, sv=sv, sv_h=sv.conj().T, null=null,
                      slack=_eig_slack(rho.dim))


def _renyi_orders(pair: _RenyiPair, alphas: np.ndarray) -> np.ndarray:
    """Sandwiched divergences at a 1-D array of orders, NaN where not certified.

    The G cores sigma^t rho sigma^t, t = (1-alpha)/(2alpha), are one
    (G, d, d) stack and one batched eigvalsh.  Each core eigenvalue is off
    by at most slack * max_i s_i^(2t), the scale of sigma^t rho sigma^t;
    where that uncertainty can move the divergence by more than RENYI_TOL
    the order is returned as NaN.  That happens at small orders, where
    sigma^t spreads the core's spectrum past the reach of double precision
    while lambda^alpha still weighs the lost eigenvalues at O(1).  The
    pair.null smallest eigenvalues are the exact zeros of a rank-deficient
    rho and are left out of the trace.
    """
    if not isinstance(alphas, np.ndarray) or alphas.ndim != 1:
        raise ValueError("need a 1-D array of orders")
    if not ((alphas > 0) & (alphas != 1) & (alphas < np.inf)).all():
        raise ValueError("need alpha > 0 and alpha != 1")
    t = (1.0 - alphas) / (2.0 * alphas)
    powers = np.power(pair.s, t[:, None])
    # a product with a shared right factor is one (G d, d) @ (d, d) product:
    # numpy's stacked matmul calls BLAS once per matrix, and the rows come
    # out the same either way
    d = len(pair.s)
    half = ((pair.sv * powers[:, None, :]).reshape(-1, d) @ pair.sv_h).reshape(-1, d, d)
    core = (half.reshape(-1, d) @ pair.rho).reshape(-1, d, d) @ half
    vals = np.linalg.eigvalsh((core + core.conj().swapaxes(-1, -2)) / 2)
    vals = np.maximum(vals[:, pair.null:], 0.0)
    a = alphas[:, None]
    positive = vals > 0
    # a core that underflowed to zero (alpha near 0) leaves 0/0 below, and
    # the NaN comparisons leave its order uncertified
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.where(positive, vals, 1.0))
        # log-sum-exp so extreme orders neither overflow nor underflow
        peak = logs[:, -1:]
        trace = np.where(positive, np.exp(a * (logs - peak)), 0.0).sum(axis=1)
        values = (alphas * peak[:, 0] + np.log(trace)) / (alphas - 1.0)
        # each eigenvalue, as a fraction x of the largest, lies within x +- spread
        top = vals[:, -1:]
        x = vals / top
        spread = pair.slack * powers.max(axis=1, keepdims=True) ** 2 / top
        upper = np.power(x + spread, a).sum(axis=1)
        lower = np.power(np.maximum(x - spread, 0.0), a).sum(axis=1)
    # 1 + r <= exp(r): the divergence moves by at most RENYI_TOL
    room = 1.0 + RENYI_TOL * np.abs(alphas - 1.0)
    certified = (upper <= trace * room) & (lower * room >= trace)
    return np.where(certified, values, np.nan)


def sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha (alpha > 0, alpha != 1).

    (1/(alpha-1)) log Tr (sigma^((1-alpha)/2alpha) rho sigma^((1-alpha)/2alpha))^alpha.
    The second argument must pass sigma_spectrum.  Swapping the arguments
    evaluates the same functional with the roles of the states exchanged;
    there is no separate "reversed" variant.  The value is within RENYI_TOL
    of the exact one, or NaN where double precision cannot certify that: at
    small orders against a spread-out reference spectrum (see _renyi_orders).
    Eigenvalues of rho within rounding of zero count as exact zeros, so a
    pure state is evaluated as pure at every order.
    """
    return float(_renyi_orders(_renyi_pair(rho, sigma), np.array([float(alpha)]))[0])


def renyi_curve(rho: DensityMatrix, sigma: DensityMatrix):
    """Return the map from a 1-D array of orders to sandwiched divergences for one pair.

    The reference is checked by sigma_spectrum once, here; each call
    evaluates its orders in one batched eigensolve and returns an array.
    Uncertified orders come back as NaN, as from sandwiched_renyi.
    """
    return partial(_renyi_orders, _renyi_pair(rho, sigma))


# ------------------------------------------------- local estimation checks


@dataclass(frozen=True)
class SldData:
    """Logarithmic-derivative data for the one-parameter family through rho."""

    operator: np.ndarray  # L = log rho - log sigma - D * I
    inner: float  # Tr rho L^2, the L-weighted quadratic form
    dual_direction: np.ndarray  # X1 = (rho L + L rho) / (2 * inner)


def _log_psd(state: DensityMatrix) -> np.ndarray:
    vals, vecs = state.spectrum
    return (vecs * np.log(vals)) @ vecs.conj().T


def sld_quantities(rho: DensityMatrix, sigma: DensityMatrix) -> SldData:
    """The centered log-ratio operator and its quadratic form under rho.

    rho must be full rank and sigma must pass sigma_spectrum.  The quadratic
    form equals the relative varentropy; the dual direction X1 is traceless
    and pairs to 1 with the operator under the trace inner product.
    """
    if rho.spectrum[0][0] <= EXPECTATION_CUT:
        raise InputError("operator log requires full rank here")
    sigma_spectrum(sigma)  # the reference rule
    d_value = relative_entropy(rho, sigma)
    op = _log_psd(rho) - _log_psd(sigma) - d_value * np.eye(rho.dim)
    op = (op + op.conj().T) / 2
    inner = float(np.real(np.trace(rho.mat @ op @ op)))
    if inner <= 0:
        dual = np.zeros_like(op)
    else:
        dual = (rho.mat @ op + op @ rho.mat) / (2 * inner)
    return SldData(operator=op, inner=inner, dual_direction=dual)


# --------------------------------------------------------------- state I/O


def save_state(path, state: DensityMatrix) -> None:
    """Write a state as JSON with real and imaginary parts."""
    payload = {
        "dim": state.dim,
        "re": [[float(x) for x in row] for row in state.mat.real],
        "im": [[float(x) for x in row] for row in state.mat.imag],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_state(path) -> DensityMatrix:
    """Read a state file: either a dense matrix or a diagonal spectrum.

    The file holds one JSON object.  A "dim" entry, if present, must be an
    integer equal to the state's size.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nests too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("a state file holds a JSON object")
    if "spectrum" in payload:
        if "re" in payload or "im" in payload:
            raise ValueError("a state file holds either a spectrum or re/im, not both")
        if not isinstance(payload["spectrum"], list):
            raise ValueError("spectrum must be a JSON list")
        state = diagonal_state([float(x) for x in payload["spectrum"]])
    else:
        re = np.array(payload["re"], dtype=float)
        im = np.array(payload.get("im", np.zeros_like(re)), dtype=float)
        if im.shape != re.shape:
            raise ValueError(f"im has shape {im.shape}, re has shape {re.shape}")
        mat = re.astype(complex)
        mat.imag = im
        state = validate_state(mat)
    if "dim" in payload:
        dim = payload["dim"]
        if type(dim) is not int:  # bool is an int subclass, and 2.0 is not a dimension
            raise ValueError(f"dim must be an integer, got {json.dumps(dim)}")
        if dim != state.dim:
            raise ValueError("declared dimension does not match the state")
    return state


# ----------------------------------------------------------- constructions


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_mixed(d: int, seed: int, spectrum=None, floor: float = 0.0) -> DensityMatrix:
    """Haar-rotated state with the given (or Dirichlet-drawn) spectrum.

    floor mixes in floor * I/d to keep eigenvalues away from zero.
    """
    _check_dim(d)
    rng = np.random.default_rng(seed)
    if spectrum is None:
        spectrum = rng.dirichlet(np.ones(d))
    spectrum = np.asarray(spectrum, dtype=float)
    if (spectrum.shape != (d,) or not np.isfinite(spectrum).all() or np.any(spectrum < 0)
            or not np.any(spectrum > 0)):
        raise InputError("spectrum must be d finite non-negative numbers with a positive sum")
    if sum(spectrum.tolist()) == math.inf:  # before numpy's sum warns of the overflow
        raise InputError("spectrum sum overflows a double")
    spectrum = spectrum / spectrum.sum()
    u = haar_unitary(d, rng)
    mat = (u * spectrum) @ u.conj().T
    if floor:
        mat = (1 - floor) * mat + floor * np.eye(d) / d
    return validate_state(mat)


def random_pure_depolarized(d: int, seed: int, p: float) -> DensityMatrix:
    """(1-p) |psi><psi| + p I/d for a Haar-random pure state."""
    _check_dim(d)
    if not 0 <= p <= 1:
        raise InputError("need 0 <= p <= 1")
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec = vec / np.linalg.norm(vec)
    mat = (1 - p) * np.outer(vec, vec.conj()) + p * np.eye(d) / d
    return validate_state(mat)


def diagonal_state(spectrum) -> DensityMatrix:
    """Diagonal state from an explicit spectrum."""
    _check_dim(len(spectrum))
    return validate_state(np.diag(np.asarray(spectrum, dtype=float)))
