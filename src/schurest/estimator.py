"""Classical post-processing of the collective measurement.

The outcome table from the distribution layer already carries each atom's
estimate x and its approximation x_star.  All statistics here (mean, MSE,
tails, the normality distance) are exact sums over that table; Monte Carlo
sampling is provided only as plumbing on top of the exact distribution.

estimate_statistics and tail_probabilities reduce one table; estimate_report
and tail_report build it from (rho, sigma, n) and reduce it, and a report
pair on one instance shares the table through distribution's memo.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import mse_bound, tail_bounds
from .distribution import OutcomeDistribution, distribution
from .partitions import total_schur_dim
from .states import divergence_moments, relative_entropy, renyi_curve

BOUNDARY_TOL = 1e-12


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


def _check_center(center: float) -> None:
    if not math.isfinite(center):
        raise ValueError("center must be finite")


def exact_mse(dist: OutcomeDistribution, center: float) -> float:
    """Exact mean square deviation of the estimate from a center value."""
    _check_center(center)
    return math.fsum((dist.p * (dist.x - center) ** 2).tolist())


def estimate_statistics(dist: OutcomeDistribution, div: float, varentropy: float) -> EstimatorReport:
    """The estimator statistics of one outcome table against the pair's D and V,
    with the MSE bound."""
    n = dist.n
    mean_x = dist.mean_x()
    mse = exact_mse(dist, div)
    mse_star = math.fsum((dist.p * (dist.x_star - div) ** 2).tolist())
    mean_star = math.fsum((dist.p * dist.x_star).tolist())
    bound = mse_bound(n, varentropy, total_schur_dim(n, dist.d).total)
    ks = None
    if varentropy > 0:
        ks = normality_report(dist, div, varentropy).ks
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


def estimate_report(rho, sigma, n: int) -> EstimatorReport:
    """Exact estimator statistics for one instance, with the MSE bound."""
    div, varentropy = divergence_moments(rho, sigma)  # the support rule, before the reference rule
    return estimate_statistics(distribution(rho, sigma, n), div, varentropy)


@dataclass(frozen=True)
class TailReport:
    epsilon: float
    center: float
    delta_plus: float  # exact mass strictly above center + epsilon
    delta_minus: float  # exact mass strictly below center - epsilon
    boundary_atoms: int  # atoms sitting exactly on either threshold
    bound_plus: float | None = None
    bound_minus: float | None = None


def tail_probabilities(dist: OutcomeDistribution, center: float, epsilon: float,
                       renyi=None) -> TailReport:
    """Exact strict tail masses, optionally with their optimized bounds.

    The thresholds use strict inequalities; atoms exactly on a threshold
    are excluded from both tails and counted in boundary_atoms (tie mass
    is zero for generic spectra).
    """
    if not epsilon > 0:  # also refuses NaN, for which every comparison is False
        raise ValueError("need epsilon > 0")
    _check_center(center)  # a NaN center compares False everywhere and empties both tails
    hi, lo = center + epsilon, center - epsilon
    above = math.fsum(dist.p[dist.x > hi].tolist())
    below = math.fsum(dist.p[dist.x < lo].tolist())
    boundary = int(np.sum(np.abs(dist.x - hi) <= BOUNDARY_TOL)
                   + np.sum(np.abs(dist.x - lo) <= BOUNDARY_TOL))
    bound_plus = bound_minus = None
    if renyi is not None:
        schur_dim = total_schur_dim(dist.n, dist.d).total
        plus, minus = tail_bounds(dist.n, schur_dim, hi, lo, renyi)
        bound_plus, bound_minus = plus.value, minus.value
    return TailReport(
        epsilon=epsilon,
        center=center,
        delta_plus=above,
        delta_minus=below,
        boundary_atoms=boundary,
        bound_plus=bound_plus,
        bound_minus=bound_minus,
    )


def tail_report(rho, sigma, n: int, epsilon: float) -> TailReport:
    div = relative_entropy(rho, sigma)  # the support rule runs before the reference rule
    return tail_probabilities(distribution(rho, sigma, n), div, epsilon,
                              renyi=renyi_curve(rho, sigma))


def sample_outcomes(dist: OutcomeDistribution, m: int, seed: int = 0) -> np.ndarray:
    """m inverse-CDF draws over the deterministic atom order; returns (m, 2)
    rows of (x, x_star); m is an integer, numpy integers included."""
    if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 1:
        raise ValueError(f"need an integer m >= 1, got {m!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    cumulative = np.cumsum(dist.p)
    idx = np.minimum(np.searchsorted(cumulative, u, side="right"), len(dist.p) - 1)
    return np.column_stack([dist.x[idx], dist.x_star[idx]])


@dataclass(frozen=True)
class NormalityReport:
    n: int
    ks: float


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF; erfc(-z / sqrt 2) / 2 keeps full accuracy in both tails."""
    scaled = (-z / math.sqrt(2)).tolist()
    return 0.5 * np.fromiter(map(math.erfc, scaled), float, len(scaled))


def normality_report(dist: OutcomeDistribution, center: float, varentropy: float) -> NormalityReport:
    """Exact Kolmogorov-Smirnov distance between the standardized estimate
    sqrt(n)(x - center)/sqrt(varentropy) and the standard normal."""
    _check_center(center)
    if not varentropy > 0:  # also refuses NaN
        raise ValueError("varentropy must be positive; constant log-ratio instances "
                         "have no normal limit")
    n = dist.n
    z = (dist.x - center) * math.sqrt(n / varentropy)
    values, inverse = np.unique(z, return_inverse=True)
    masses = np.bincount(inverse, weights=dist.p, minlength=len(values))
    cdf = np.cumsum(masses)
    phi = _normal_cdf(values)
    ks = float(np.max(np.maximum(np.abs(cdf - phi), np.abs(cdf - masses - phi))))
    return NormalityReport(n=n, ks=ks)

