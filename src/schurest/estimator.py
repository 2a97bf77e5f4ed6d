"""Classical post-processing of the collective measurement.

The estimate attached to an outcome (lam, mu) is
x = -(1/n)(log dimV_lam + sum_i mu_i log s_i); its cheap approximation
replaces the symmetric-group dimension with the type-entropy term,
x_star = -H(lam/n) - sum_i (mu_i/n) log s_i, so x - x_star is always in
[0, (d log(n+1) - log e(lam))/n] where e is the dimension ratio from the
combinatorics layer.  All statistics (mean, MSE, tails, the normality
distance) are exact sums over the outcome table; Monte Carlo sampling is
provided only as plumbing on top of the exact distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .bounds import mse_bound, tail_bound_above, tail_bound_below
from .distribution import OutcomeDistribution, _atom_table, distribution
from .partitions import total_schur_dim
from .states import relative_entropy, relative_varentropy, renyi_curve

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class AnnotatedDistribution:
    """Outcome table plus per-atom estimate values and gap bounds."""

    dist: OutcomeDistribution
    x: np.ndarray
    x_star: np.ndarray
    gap_bound: np.ndarray  # per-block bound on x - x_star
    gap_bound_tight: np.ndarray  # sharper variant, one log(n+1) less

    def __len__(self) -> int:
        return len(self.x)

    @property
    def p(self) -> np.ndarray:
        return self.dist.p

    def mean_x(self) -> float:
        return math.fsum((self.p * self.x).tolist())


def annotate_estimates(dist: OutcomeDistribution) -> AnnotatedDistribution:
    n, d = dist.n, dist.d
    table = _atom_table(n, d)
    x = -dist.log_q / n
    x_star = -table.entropy[table.young_idx] - table.weight_log_s(np.log(dist.sigma_values)) / n
    gap_bound = (d * math.log(n + 1) - table.log_ratio) / n
    gap_bound_tight = ((d - 1) * math.log(n + 1) - table.log_ratio) / n
    return AnnotatedDistribution(
        dist, x, x_star, gap_bound[table.young_idx], gap_bound_tight[table.young_idx]
    )


@dataclass(frozen=True)
class EstimatorReport:
    n: int
    d: int
    relative_entropy: float
    varentropy: float
    mean_x: float
    mse: float
    bias: float
    mse_star: float
    bias_star: float
    mse_bound: float
    ks: float | None  # None when the varentropy degenerates


def exact_mse(ann: AnnotatedDistribution, center: float) -> float:
    """Exact mean square deviation of the estimate from a center value."""
    if not math.isfinite(center):
        raise ValueError("center must be finite")
    return math.fsum((ann.p * (ann.x - center) ** 2).tolist())


def exact_mse_star(ann: AnnotatedDistribution, center: float) -> float:
    if not math.isfinite(center):
        raise ValueError("center must be finite")
    return math.fsum((ann.p * (ann.x_star - center) ** 2).tolist())


def estimate_report(rho, sigma, n: int, backend: str = "auto") -> EstimatorReport:
    """Exact estimator statistics for one instance, with the MSE bound."""
    div = relative_entropy(rho, sigma)
    if not math.isfinite(div):
        raise ValueError("relative entropy is infinite; the estimator needs full support")
    varentropy = relative_varentropy(rho, sigma)
    dist = distribution(rho, sigma, n, backend=backend)
    ann = annotate_estimates(dist)
    mean_x = ann.mean_x()
    mse = exact_mse(ann, div)
    mse_star = exact_mse_star(ann, div)
    mean_star = math.fsum((ann.p * ann.x_star).tolist())
    bound = mse_bound(n, varentropy, total_schur_dim(n, dist.d).total)
    ks = None
    if varentropy > 0:
        ks = normality_report(ann, div, varentropy).ks
    return EstimatorReport(
        n=n,
        d=dist.d,
        relative_entropy=div,
        varentropy=varentropy,
        mean_x=mean_x,
        mse=mse,
        bias=mean_x - div,
        mse_star=mse_star,
        bias_star=mean_star - div,
        mse_bound=bound,
        ks=ks,
    )


@dataclass(frozen=True)
class TailReport:
    epsilon: float
    center: float
    delta_plus: float  # exact mass strictly above center + epsilon
    delta_minus: float  # exact mass strictly below center - epsilon
    boundary_atoms: int  # atoms sitting exactly on either threshold
    bound_plus: float | None = None
    bound_minus: float | None = None


def tail_probabilities(ann: AnnotatedDistribution, center: float, epsilon: float,
                       renyi=None) -> TailReport:
    """Exact strict tail masses, optionally with their optimized bounds.

    The thresholds use strict inequalities; atoms exactly on a threshold
    are excluded from both tails and counted in boundary_atoms (tie mass
    is zero for generic spectra).
    """
    if epsilon <= 0:
        raise ValueError("need epsilon > 0")
    hi, lo = center + epsilon, center - epsilon
    above = math.fsum(ann.p[ann.x > hi].tolist())
    below = math.fsum(ann.p[ann.x < lo].tolist())
    boundary = int(np.sum(np.abs(ann.x - hi) <= BOUNDARY_TOL)
                   + np.sum(np.abs(ann.x - lo) <= BOUNDARY_TOL))
    bound_plus = bound_minus = None
    if renyi is not None:
        schur_dim = total_schur_dim(ann.dist.n, ann.dist.d).total
        bound_plus = tail_bound_above(ann.dist.n, schur_dim, hi, renyi).value
        bound_minus = tail_bound_below(ann.dist.n, schur_dim, lo, renyi).value
    return TailReport(
        epsilon=epsilon,
        center=center,
        delta_plus=above,
        delta_minus=below,
        boundary_atoms=boundary,
        bound_plus=bound_plus,
        bound_minus=bound_minus,
    )


def tail_report(rho, sigma, n: int, epsilon: float, backend: str = "auto") -> TailReport:
    div = relative_entropy(rho, sigma)
    if not math.isfinite(div):
        raise ValueError("relative entropy is infinite; tails are not defined")
    ann = annotate_estimates(distribution(rho, sigma, n, backend=backend))
    return tail_probabilities(ann, div, epsilon, renyi=renyi_curve(rho, sigma))


def sample_outcomes(ann: AnnotatedDistribution, m: int, seed: int = 0) -> np.ndarray:
    """m inverse-CDF draws over the deterministic atom order; returns (m, 2)
    rows of (x, x_star)."""
    if m < 1:
        raise ValueError("need m >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    cumulative = np.cumsum(ann.p)
    idx = np.minimum(np.searchsorted(cumulative, u, side="right"), len(ann.p) - 1)
    return np.column_stack([ann.x[idx], ann.x_star[idx]])


@dataclass(frozen=True)
class NormalityReport:
    n: int
    ks: float
    points: np.ndarray  # standardized values, one row (z, mass) per distinct z


def normality_report(ann: AnnotatedDistribution, center: float, varentropy: float) -> NormalityReport:
    """Exact Kolmogorov-Smirnov distance between the standardized estimate
    sqrt(n)(x - center)/sqrt(varentropy) and the standard normal."""
    if varentropy <= 0:
        raise ValueError("varentropy must be positive; constant log-ratio instances "
                         "have no normal limit")
    n = ann.dist.n
    z = (ann.x - center) * math.sqrt(n / varentropy)
    values, inverse = np.unique(z, return_inverse=True)
    masses = np.bincount(inverse, weights=ann.p, minlength=len(values))
    cdf = np.cumsum(masses)
    phi = ndtr(values)
    ks = float(np.max(np.maximum(np.abs(cdf - phi), np.abs(cdf - masses - phi))))
    return NormalityReport(n=n, ks=ks, points=np.column_stack([values, masses]))


def log_mass_second_moment(dist: OutcomeDistribution) -> float:
    """Sum of p log^2 p over outcomes; bounded by log^2(outcome count)."""
    positive = dist.p[dist.p > 0]
    return math.fsum((positive * np.log(positive) ** 2).tolist())
