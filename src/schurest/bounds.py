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

Both take the divergence as renyi, a map from a 1-D array of orders to
the array of sandwiched divergences (states.renyi_curve).  Each tail is
a Renyi search, _renyi_search: a generator that yields the orders it
needs, first its whole grid as one array and then one order per point of
its refinement, is sent the divergences there, and computes its
objective from them.  One driver, _run, is the only caller of renyi: it
passes each grid in a call of its own and then, at each Brent step, the
next order of every search still running in one call.  tail_bound_above
and tail_bound_below run it over one search, and tail_bounds over both,
so the two refinements advance in lockstep with one call per step.  An
order where renyi returns NaN (the curve could not certify the value,
which happens at small orders) is left out of the search; every order
gives a valid bound, so the minimum over the rest is still one.

Every refinement runs one bounded Brent search, _brent_steps, a generator
that yields each point and is sent the objective's value there.
tail_bounds gives the same floats as tail_bound_above and
tail_bound_below.  That rests on the kernel's bits depending on the
batch's shape: a one- or two-order call gives the same value for an
order, while a long batch may not (numpy's power takes another path for
long arrays, up to 4.4e-16 apart at order 0.5).  So the lockstep calls
hold at most the two pending orders, and the grids keep their own calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500


def _step_sign(v: float) -> float:
    """-1 below zero, 1 at or above it, NaN for NaN (numpy's sign(v) + (v == 0))."""
    if v != v:
        return v
    return -1.0 if v < 0 else 1.0


def _nan_max(a: float, b: float) -> float:
    """The larger of a and b, NaN if either is NaN (numpy's maximum)."""
    return a if a >= b or a != a else b


def _brent_steps(lo: float, hi: float, xatol: float):
    """Bounded Brent minimization on [lo, hi] as a generator.

    Brent (1973), "Algorithms for Minimization Without Derivatives", ch. 5,
    in the form of scipy.optimize.minimize_scalar(method="bounded"): the
    same operations in the same order, so the search visits the same
    points and returns the same floats.  It yields each point and must be
    sent the objective's value there; its return value is (argmin, min).
    A NaN or +inf value inside the bracket turns the parabola into NaN, and
    the step falls back to golden section.  The search stops after 500
    evaluations.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # the tests below fail for NaN and for q == 0, so the division is safe
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _step_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + _step_sign(rat) * _nan_max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALS:
            break
    return xf, fx


def _minimize(fun, steps):
    """Run a search generator, sending fun's value at each point it yields.

    Returns the search's result.
    """
    try:
        x = next(steps)
        while True:
            x = steps.send(fun(x))
    except StopIteration as stop:
        return stop.value


def _refine(grid_points, grid_values, lo, hi, tol=1e-6):
    """Grid scan then bounded refinement, as a generator; returns (argmin, min).

    grid_values are the objective's values at grid_points, which the caller
    computes.  The refinement yields each point it evaluates and is sent
    the objective's value there (see _brent_steps).  Points whose value is
    NaN or +inf are skipped; when every grid point is, the result is (the
    first grid point, +inf) and nothing is yielded.
    """
    best_x, best_v = None, math.inf
    for x, v in zip(grid_points, grid_values):
        if v < best_v:
            best_x, best_v = x, v
    if best_x is None:
        return float(grid_points[0]), math.inf
    span = sorted(grid_points)
    idx = span.index(best_x)
    left = span[idx - 1] if idx > 0 else lo
    right = span[idx + 1] if idx + 1 < len(span) else hi
    x, value = yield from _brent_steps(left, right, tol / 10)
    if value < best_v:
        return float(x), float(value)
    return float(best_x), float(best_v)


def _renyi_search(grid, lo, hi, order, objective):
    """Minimize objective(x, div) over x, div the divergence at order(x).

    A generator: it yields the grid's orders as one array and is sent the
    array of their divergences, then yields the order of each point the
    refinement reads and is sent the divergence there.  A point read
    twice (a Brent point on the grid) keeps the first value it was sent.
    Returns (argmin, min, the divergence at the argmin).
    """
    divs = dict(zip(grid, (yield np.array([order(x) for x in grid])).tolist()))
    steps = _refine(grid, [objective(x, divs[x]) for x in grid], lo, hi)
    try:
        x = next(steps)
        while True:
            div = yield order(x)
            x = steps.send(objective(x, divs.setdefault(x, div)))
    except StopIteration as stop:
        x, best = stop.value
    return x, best, divs[x]


@dataclass(frozen=True)
class TailBound:
    value: float  # clamped at 1
    exponent: float  # optimized log of the unclamped bound
    alpha: float
    split: float | None = None  # auxiliary parameter of the above-tail bound


def _admissible(value: float) -> float:
    """An exponent from an order the curve could not certify (NaN) rules it out."""
    return math.inf if math.isnan(value) else value


def _below_search(n: int, schur_dim: int, rate: float):
    """tail_bound_below as a Renyi search (see _renyi_search) returning the bound."""
    if n < 1 or schur_dim < 1:
        raise ValueError("need n >= 1 and schur_dim >= 1")
    log_dim = math.log(schur_dim)

    def exponent(a: float, div: float) -> float:
        return _admissible(a * log_dim - n * a * (div - rate))

    grid = [i / 100 for i in range(1, 100)]
    alpha, best, _ = yield from _renyi_search(grid, 0.01, 0.99, lambda a: 1 - a, exponent)
    return TailBound(value=min(1.0, math.exp(best)), exponent=best, alpha=alpha)


def tail_bound_below(n: int, schur_dim: int, rate: float, renyi) -> TailBound:
    """Bound on P{estimate < rate}: min over a in (0,1) of
    schur_dim**a * exp(-n a (renyi(1-a) - rate)).

    renyi maps a 1-D array of orders to the array of sandwiched
    divergences; the 99 grid orders 1 - i/100 go to it in one call, then
    each refinement point's order in a call of its own.
    """
    return _run([_below_search(n, schur_dim, rate)], renyi)[0]


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


def _above_search(n: int, schur_dim: int, rate: float):
    """tail_bound_above as a Renyi search (see _renyi_search) returning the bound."""
    if n < 1 or schur_dim < 1:
        raise ValueError("need n >= 1 and schur_dim >= 1")
    log_dim = math.log(schur_dim)

    def alpha_of(u: float) -> float:
        return u / (1 - u)

    def split_term(u: float, div: float) -> tuple[float, float, float]:
        a = alpha_of(u)
        return _split_term(n, log_dim, a, -n * a * (rate - div))

    def best_at(u: float, div: float) -> float:
        return _admissible(split_term(u, div)[1])

    grid = [i / 256 for i in range(1, 256)]
    u_opt, best_log, div = yield from _renyi_search(
        grid, 1e-4, 1 - 1e-4, lambda u: 1 + alpha_of(u), best_at)
    alpha = alpha_of(u_opt)
    if best_log == math.inf:  # no order gives a finite bound
        return TailBound(value=1.0, exponent=0.0, alpha=alpha)
    value, log_value, r_star = split_term(u_opt, div)
    if value >= 1:
        return TailBound(value=1.0, exponent=min(best_log, 0.0), alpha=alpha,
                         split=r_star if r_star > 0 else None)
    return TailBound(value=value, exponent=log_value, alpha=alpha, split=r_star)


def tail_bound_above(n: int, schur_dim: int, rate: float, renyi) -> TailBound:
    """Bound on P{estimate > rate}: min over a > 0, r > 0 of
    exp(-n a (rate - r - renyi(1+a))) + schur_dim * exp(-n r).

    The split parameter is eliminated by calculus; the remaining scalar
    search runs over u = a/(1+a) in (0,1), which compactifies the
    unbounded a-domain (the objective has a finite a -> infinity limit).
    renyi maps a 1-D array of orders to the array of sandwiched
    divergences; the 255 grid orders 1 + u/(1-u), u = i/256, go to it in
    one call, then each refinement point's order in a call of its own.
    """
    return _run([_above_search(n, schur_dim, rate)], renyi)[0]


def tail_bounds(n: int, schur_dim: int, rate_above: float, rate_below: float,
                renyi) -> tuple[TailBound, TailBound]:
    """tail_bound_above at rate_above and tail_bound_below at rate_below,
    with the two refinements in lockstep; the results are the same floats.

    Each search's grid goes to renyi in its own call, the above grid
    first.  Then at each Brent step the orders both searches read next go
    to renyi in one call.
    """
    return _run([_above_search(n, schur_dim, rate_above),
                 _below_search(n, schur_dim, rate_below)], renyi)


def _run(searches, renyi) -> tuple:
    """Run Renyi searches (see _renyi_search) to their ends; returns their results.

    The one caller of renyi.  Each search's grid goes to renyi in a call
    of its own, in the order given; after that each call holds the next
    order of every search still running, and each search is sent its
    value.
    """
    results = [None] * len(searches)
    pending: dict[int, float] = {}  # search index -> the order it reads next

    def advance(i: int, sent) -> None:
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i, search in enumerate(searches):
        advance(i, renyi(next(search)))
    while pending:
        for i, div in zip(list(pending), renyi(np.array(list(pending.values()))).tolist()):
            advance(i, div)
    return tuple(results)


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
    s_opt, best = _minimize(log_inner, _refine(grid, [log_inner(s) for s in grid], 1e-6, 1 - 1e-6))
    exact = (math.sqrt(c0 / c) + math.exp(best)) ** 2 / epsilon**2
    simple = (math.sqrt(c0) + 4) ** 2 / (c * epsilon**2)
    return ComplexityBound(exact=exact, simple=simple, s_opt=s_opt)


def tomography_baseline(d: int, t: float, eps_prime: float) -> float:
    """Sample-count proxy for estimating the divergence via full state
    reconstruction, when the reference spectrum is floored at exp(-t d)."""
    if d < 2 or t <= 0 or eps_prime <= 0:
        raise ValueError("need d >= 2, t > 0, eps_prime > 0")
    return d**2 * (math.log(d) + t * d) ** 2 / eps_prime**2
