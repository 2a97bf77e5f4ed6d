"""Closed-form finite-size error bounds with free-parameter optimization.

Probability bounds are clamped at 1.  sample_complexity_bound minimizes
its free parameter in closed form.  tail_bounds is the one tail-bound
function; it bounds the mass of estimates above a rate (Renyi orders
above 1, with an auxiliary split parameter) and below another (orders
below 1), each nontrivial on its side of the true divergence.

Each tail is a Renyi search: a generator that yields the orders it
needs, first one order (its probe), then its whole grid as one array
(_renyi_search), then one order per step of a bounded Brent refinement
(_brent_steps), and is sent the divergences there.  One driver, _run, is
the only caller of the divergence map: it passes both searches' probes
in one call, each grid in a call of its own, then at each Brent step
both searches' next orders in one call, so the refinements advance in
lockstep.  An order the curve could not certify (NaN, at small orders)
is left out; every order gives a valid bound, so the minimum over the
rest is still one.

A tail's floats do not depend on the other tail beside it, because a
one- or two-order call gives the kernel's same bits for an order, while
a long batch may not (numpy's power takes another path for long arrays,
up to 4.4e-16 apart at order 0.5).  So the probe and lockstep calls hold
at most two orders, and the grids keep their own calls.  A below search
that refines reads order 0.99 twice, in its probe and in its grid, and
takes the grid's value, so its bits are those of a grid read alone.

A search whose bound is provably vacuous (>= 1 at every order of its
domain) returns after its probe; _vacuous is that test.  It rests on
one fact: the sandwiched divergence never decreases in its order
(Mueller-Lennert, Dupuis, Szehr, Fehr and Tomamichel, "On quantum Renyi
entropies: a new generalization and some properties", J. Math. Phys. 54,
122203, 2013).  Above, with a0 the smallest a of the domain and
c = rate - D_(1+a) <= rate - D_(1+a0): if log schur_dim >= n (rate -
D_(1+a0)), then for r >= c the first term exp(-n a (c - r)) is >= 1, and
for r < c the second, schur_dim exp(-n r), is > 1.  So the above search
probes D at 1 + a0 and on a vacuous bound returns value 1.  Below, the
exponent is a (log schur_dim - n (D_(1-a) - rate)), and D_(1-a) <= D_0.99
for a >= 0.01: if log schur_dim >= n (D_0.99 - rate) the bracket is >= 0
and never decreases in a, so a = 0.01 is the minimum; the below search
probes D at 0.99 and on a vacuous bound returns its value there.  In a
report, whose rates are D -+ eps, both tails are vacuous while
n eps <= log schur_dim, and it makes one call to the curve, of two
orders.  A report that refines both tails makes its probe call, two
grid calls and one call per lockstep Brent step, 28 in all when each
refinement takes 25 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import check_copies


def mse_bound(n: int, varentropy: float, schur_dim: int) -> float:
    """(sqrt(V/n) + log(total block dimension)/n)**2."""
    check_copies(n)
    if not (n >= 1 and varentropy >= 0 and schur_dim >= 1):
        raise ValueError("need n >= 1, varentropy >= 0, schur_dim >= 1")
    return (math.sqrt(varentropy / n) + math.log(schur_dim) / n) ** 2


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500
_SEARCH_XATOL = 1e-7  # each refinement's absolute tolerance in the parameter it searches


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


def _renyi_search(grid, lo, hi, order, objective):
    """Minimize objective(x, div) over x in [lo, hi], div the divergence at order(x).

    A generator: it yields the orders of the ascending grid as one array
    and is sent the array of their divergences.  From the best grid point
    a bounded Brent search (_brent_steps, tolerance 1e-7) refines over the
    bracket of its grid neighbours, or lo and hi at the ends; it yields the
    order of each point it reads and is sent the divergence there.  A
    point read twice (a Brent point on the grid) keeps the first value it
    was sent.  Points whose value is NaN or +inf are skipped, and the grid
    point is kept unless Brent beats it.  Returns (argmin, min, the
    divergence at the argmin); when no grid value is finite that is (the
    first grid point, +inf, its divergence) and nothing more is yielded.
    """
    divs = dict(zip(grid, (yield np.array([order(x) for x in grid])).tolist()))
    best_x, best = grid[0], math.inf
    for x in grid:
        value = objective(x, divs[x])
        if value < best:
            best_x, best = x, value
    if best == math.inf:
        return best_x, best, divs[best_x]
    i = grid.index(best_x)
    steps = _brent_steps(grid[i - 1] if i > 0 else lo,
                         grid[i + 1] if i + 1 < len(grid) else hi, _SEARCH_XATOL)
    try:
        x = next(steps)
        while True:
            div = yield order(x)
            x = steps.send(objective(x, divs.setdefault(x, div)))
    except StopIteration as stop:
        x, value = stop.value
    if value < best:
        best_x, best = x, value
    return best_x, best, divs[best_x]


@dataclass(frozen=True)
class TailBound:
    value: float  # clamped at 1
    exponent: float  # optimized log of the unclamped bound
    alpha: float
    split: float | None = None  # auxiliary parameter of the above-tail bound


def _vacuous(n: int, log_dim: float, gap: float) -> bool:
    """Whether log_dim >= n gap, which proves a tail's bound >= 1 at every order.

    gap is rate - D above and D - rate below, with D read at the order of
    the tail's domain nearest 1 (see the module docstring).  A NaN gap
    proves nothing."""
    return log_dim >= n * gap


def _admissible(value: float) -> float:
    """An exponent from an order the curve could not certify (NaN) rules it out."""
    return math.inf if math.isnan(value) else value


def _below_search(n: int, schur_dim: int, rate: float):
    """The below-tail bound as a Renyi search (see _renyi_search) returning it.

    min over a in (0, 1) of schur_dim**a * exp(-n a (D_(1-a) - rate)), D_b
    the sandwiched divergence of order b, over the 99 grid orders
    1 - i/100 and then Brent's.  First it reads D at its largest order,
    0.99, as one order; a vacuous bound (_vacuous there) is returned at
    once, at a = 0.01.
    """
    log_dim = math.log(schur_dim)

    def exponent(a: float, div: float) -> float:
        return _admissible(a * log_dim - n * a * (div - rate))

    probe = yield 0.99
    if _vacuous(n, log_dim, probe - rate):
        best = exponent(0.01, probe)
        return TailBound(value=min(1.0, math.exp(best)), exponent=best, alpha=0.01)
    grid = [i / 100 for i in range(1, 100)]
    alpha, best, _ = yield from _renyi_search(grid, 0.01, 0.99, lambda a: 1 - a, exponent)
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


def _above_search(n: int, schur_dim: int, rate: float):
    """The above-tail bound as a Renyi search (see _renyi_search) returning it.

    min over a > 0, r > 0 of exp(-n a (rate - r - D_(1+a))) + schur_dim exp(-n r).
    The split parameter r is eliminated by calculus (_split_term); the
    remaining scalar search runs over u = a/(1+a) in (0, 1), which
    compactifies the unbounded a-domain (the objective has a finite
    a -> infinity limit), over the 255 grid orders 1 + u/(1-u), u = i/256,
    and then Brent's.  First it reads D at its smallest order, u = 1e-4, as
    one order; a vacuous bound (_vacuous there) is returned at once.
    """
    log_dim = math.log(schur_dim)
    lo, hi = 1e-4, 1 - 1e-4

    def alpha_of(u: float) -> float:
        return u / (1 - u)

    probe = yield 1 + alpha_of(lo)
    if _vacuous(n, log_dim, rate - probe):
        return TailBound(value=1.0, exponent=0.0, alpha=alpha_of(lo))

    def split_term(u: float, div: float) -> tuple[float, float, float]:
        a = alpha_of(u)
        return _split_term(n, log_dim, a, -n * a * (rate - div))

    def best_at(u: float, div: float) -> float:
        return _admissible(split_term(u, div)[1])

    grid = [i / 256 for i in range(1, 256)]
    u_opt, best_log, div = yield from _renyi_search(
        grid, lo, hi, lambda u: 1 + alpha_of(u), best_at)
    alpha = alpha_of(u_opt)
    if best_log == math.inf:  # no order gives a finite bound
        return TailBound(value=1.0, exponent=0.0, alpha=alpha)
    value, log_value, r_star = split_term(u_opt, div)
    if value >= 1:
        return TailBound(value=1.0, exponent=min(best_log, 0.0), alpha=alpha,
                         split=r_star if r_star > 0 else None)
    return TailBound(value=value, exponent=log_value, alpha=alpha, split=r_star)


def tail_bounds(n: int, schur_dim: int, rate_above: float, rate_below: float,
                renyi) -> tuple[TailBound, TailBound]:
    """Bounds on P{estimate > rate_above} and P{estimate < rate_below}.

    above: min over a > 0, r > 0 of
           exp(-n a (rate_above - r - D_(1+a))) + schur_dim exp(-n r)
    below: min over a in (0, 1) of schur_dim**a exp(-n a (D_(1-a) - rate_below))

    D_b is the sandwiched divergence of order b, read from renyi, a map
    from a 1-D array of orders to the array of divergences
    (states.renyi_curve).  Both searches' probes, the orders of their
    domains nearest 1, go to renyi in one call; then the above grid and
    the below grid each go in a call of their own; then at each Brent step
    the orders both searches read next go to renyi in one call.

    D_b never decreases in b (Mueller-Lennert et al., J. Math. Phys. 54,
    122203, 2013), so one divergence per tail can prove its bound >= 1 at
    every order: above when log schur_dim >= n (rate_above - D_(1+a0)), a0
    the smallest a searched, below when log schur_dim >= n (D_0.99 -
    rate_below).  Such a tail is returned after its probe, with no grid;
    the module docstring has the proof.  At rates D -+ eps both tails are
    vacuous while n eps <= log schur_dim, and tail_bounds makes one call to
    renyi, of two orders.
    """
    # numpy scalars would leak into the results and warn at 0 * inf in the Brent step
    check_copies(n)
    n, rate_above, rate_below = int(n), float(rate_above), float(rate_below)
    if n < 1 or schur_dim < 1:
        raise ValueError("need n >= 1 and schur_dim >= 1")
    return _run([_above_search(n, schur_dim, rate_above),
                 _below_search(n, schur_dim, rate_below)], renyi)


def _run(searches, renyi) -> tuple:
    """Run Renyi searches (see _renyi_search) to their ends; returns their results.

    The one caller of renyi.  A search yields either one order or an
    array of orders (a grid).  Each array is sent to renyi in a call of its
    own, the searches in the order given; while no search waits on an
    array, one call holds the next order of every search still running,
    and each search is sent its value.  So the searches' first orders, the
    probes, share one call.
    """
    results = [None] * len(searches)
    pending: dict[int, float | np.ndarray] = {}  # search index -> what it reads next

    def advance(i: int, sent) -> None:
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        grid = next((i for i, orders in pending.items() if isinstance(orders, np.ndarray)), None)
        if grid is not None:
            advance(grid, renyi(pending[grid]))
        else:
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
    if not (c > 0 and c0 >= 0 and epsilon > 0):
        raise ValueError("need c > 0, c0 >= 0, epsilon > 0")
    # the log of the inner term, (s - 1) log c - log s - log(1 - s), is
    # strictly convex in s; its derivative log c - 1/s + 1/(1 - s) vanishes
    # at the root in (0, 1) of log c s^2 - (log c + 2) s + 1, written here
    # so that log c = 0 needs no case of its own
    log_c = math.log(c)
    s_opt = 2 / (log_c + 2 + math.sqrt(log_c * log_c + 4))
    inner = math.exp((s_opt - 1) * log_c - math.log(s_opt) - math.log1p(-s_opt))
    exact = (math.sqrt(c0 / c) + inner) ** 2 / epsilon**2
    simple = (math.sqrt(c0) + 4) ** 2 / (c * epsilon**2)
    return ComplexityBound(exact=exact, simple=simple, s_opt=s_opt)


def tomography_baseline(d: int, t: float, eps_prime: float) -> float:
    """Sample-count proxy for estimating the divergence via full state
    reconstruction, when the reference spectrum is floored at exp(-t d)."""
    if not (d >= 2 and t > 0 and eps_prime > 0):
        raise ValueError("need d >= 2, t > 0, eps_prime > 0")
    return d**2 * (math.log(d) + t * d) ** 2 / eps_prime**2
