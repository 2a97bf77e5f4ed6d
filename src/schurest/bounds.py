"""Closed-form finite-size error bounds with free-parameter optimization.

Every bound here is a smooth expression in one or two free parameters;
optimization is a coarse grid scan followed by bounded scalar refinement
with 1e-6 tolerance in the exponent.  Probability bounds are clamped at 1.
The two tail bounds are named by the tail they control:

- tail_bound_below: mass of estimates below a rate R, nontrivial for R
  under the true divergence; driven by Renyi orders below 1.
- tail_bound_above: mass of estimates above a rate R, nontrivial for R
  over the true divergence; driven by Renyi orders above 1, with an
  auxiliary split parameter trading the two terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import minimize_scalar

from .partitions import total_schur_dim


def log_schur_dim(n: int, d: int) -> float:
    """log of the exact total unitary-block dimension."""
    return math.log(total_schur_dim(n, d).total)


def log_schur_dim_counting(n: int, d: int) -> float:
    """log of the polynomial counting estimate (n+1)^((d+2)(d-1)/2)."""
    return (d + 2) * (d - 1) / 2 * math.log(n + 1)


def mse_bound(n: int, varentropy: float, schur_dim: int) -> float:
    """(sqrt(V/n) + log(total block dimension)/n)**2."""
    if n < 1 or varentropy < 0 or schur_dim < 1:
        raise ValueError("need n >= 1, varentropy >= 0, schur_dim >= 1")
    return (math.sqrt(varentropy / n) + math.log(schur_dim) / n) ** 2


def mse_bound_counting(n: int, d: int, varentropy: float) -> float:
    """Same bound with the counting estimate in place of the exact dimension."""
    if n < 1 or varentropy < 0:
        raise ValueError("need n >= 1 and varentropy >= 0")
    return (math.sqrt(varentropy / n) + log_schur_dim_counting(n, d) / n) ** 2


def _refine(fun, grid_points, lo, hi, tol=1e-6):
    """Grid scan then bounded refinement; returns (argmin, min)."""
    best_x, best_v = None, math.inf
    for x in grid_points:
        v = fun(x)
        if v < best_v:
            best_x, best_v = x, v
    span = sorted(grid_points)
    idx = span.index(best_x)
    left = span[idx - 1] if idx > 0 else lo
    right = span[idx + 1] if idx + 1 < len(span) else hi
    res = minimize_scalar(fun, bounds=(left, right), method="bounded",
                          options={"xatol": tol / 10})
    if res.fun < best_v:
        return float(res.x), float(res.fun)
    return float(best_x), float(best_v)


@dataclass(frozen=True)
class TailBound:
    value: float  # clamped at 1
    exponent: float  # optimized log of the unclamped bound
    alpha: float
    split: float | None = None  # auxiliary parameter of the above-tail bound


def tail_bound_below(n: int, schur_dim: int, rate: float, renyi) -> TailBound:
    """Bound on P{estimate < rate}: min over a in (0,1) of
    schur_dim**a * exp(-n a (renyi(1-a) - rate))."""
    if n < 1 or schur_dim < 1:
        raise ValueError("need n >= 1 and schur_dim >= 1")
    log_dim = math.log(schur_dim)

    def exponent(a: float) -> float:
        return a * log_dim - n * a * (renyi(1 - a) - rate)

    grid = [i / 100 for i in range(1, 100)]
    alpha, best = _refine(exponent, grid, 0.01, 0.99)
    return TailBound(value=min(1.0, math.exp(best)), exponent=best, alpha=alpha)


def _split_term(n: int, log_dim: float, alpha: float, offset: float) -> tuple[float, float, float]:
    """min over r > 0 of exp(offset + n a r) + exp(log_dim - n r), by calculus.

    Returns (value, log of the value, r).  When both terms underflow the
    value is 0.0, and its log is taken in log space instead.
    """
    r_star = (log_dim - offset - math.log(alpha)) / (n * (alpha + 1))
    if r_star <= 0:
        return math.inf, math.inf, 0.0  # no interior optimum; the bound is vacuous here
    first, second = offset + n * alpha * r_star, log_dim - n * r_star
    value = math.exp(first) + math.exp(second)
    if value > 0:
        return value, math.log(value), r_star
    top = max(first, second)
    return value, top + math.log1p(math.exp(min(first, second) - top)), r_star


def tail_bound_above(n: int, schur_dim: int, rate: float, renyi) -> TailBound:
    """Bound on P{estimate > rate}: min over a > 0, r > 0 of
    exp(-n a (rate - r - renyi(1+a))) + schur_dim * exp(-n r).

    The split parameter is eliminated by calculus; the remaining scalar
    search runs over u = a/(1+a) in (0,1), which compactifies the
    unbounded a-domain (the objective has a finite a -> infinity limit).
    """
    if n < 1 or schur_dim < 1:
        raise ValueError("need n >= 1 and schur_dim >= 1")
    log_dim = math.log(schur_dim)

    def alpha_of(u: float) -> float:
        return u / (1 - u)

    def best_for(u: float) -> float:
        a = alpha_of(u)
        offset = -n * a * (rate - renyi(1 + a))
        return _split_term(n, log_dim, a, offset)[1]

    grid = [i / 256 for i in range(1, 256)]
    u_opt, best_log = _refine(best_for, grid, 1e-4, 1 - 1e-4)
    alpha = alpha_of(u_opt)
    offset = -n * alpha * (rate - renyi(1 + alpha))
    value, log_value, r_star = _split_term(n, log_dim, alpha, offset)
    if value is math.inf or value >= 1:
        return TailBound(value=1.0, exponent=min(best_log, 0.0) if best_log < math.inf else 0.0,
                         alpha=alpha, split=r_star if r_star > 0 else None)
    return TailBound(value=value, exponent=log_value, alpha=alpha, split=r_star)


@dataclass(frozen=True)
class ComplexityBound:
    exact: float
    simple: float
    s_opt: float


def sample_complexity_bound(c: float, c0: float, epsilon: float) -> ComplexityBound:
    """Failure-probability bound at n = c d^2 samples, exact and simplified.

    exact  = (sqrt(c0/c) + min_s c^(s-1)/(s(1-s)))^2 / eps^2 over s in (0,1)
    simple = (sqrt(c0) + 4)^2 / (c eps^2), the s = 1/2 specialization.
    """
    if c <= 0 or c0 < 0 or epsilon <= 0:
        raise ValueError("need c > 0, c0 >= 0, epsilon > 0")
    log_c = math.log(c)

    def log_inner(s: float) -> float:
        return (s - 1) * log_c - math.log(s) - math.log(1 - s)

    grid = [i / 64 for i in range(1, 64)]
    s_opt, best = _refine(log_inner, grid, 1e-6, 1 - 1e-6)
    exact = (math.sqrt(c0 / c) + math.exp(best)) ** 2 / epsilon**2
    simple = (math.sqrt(c0) + 4) ** 2 / (c * epsilon**2)
    return ComplexityBound(exact=exact, simple=simple, s_opt=s_opt)


def tomography_baseline(d: int, t: float, eps_prime: float) -> float:
    """Sample-count proxy for estimating the divergence via full state
    reconstruction, when the reference spectrum is floored at exp(-t d)."""
    if d < 2 or t <= 0 or eps_prime <= 0:
        raise ValueError("need d >= 2, t > 0, eps_prime > 0")
    return d**2 * (math.log(d) + t * d) ** 2 / eps_prime**2
