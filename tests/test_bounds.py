"""Bound-formula tests: worked examples, classical re-derivations, and the
inequality suites tying optimized bounds to exact tail masses."""

import math

import numpy as np
import pytest
from oracles import (
    log_schur_dim_counting,
    mse_bound_counting,
    reference_sandwiched_renyi,
    tail_bound_above,
    tail_bound_below,
)
from scipy.optimize import minimize_scalar

from schurest import bounds, states
from schurest.bounds import (
    mse_bound,
    sample_complexity_bound,
    tail_bounds,
    tomography_baseline,
)
from schurest.distribution import distribution
from schurest.estimator import tail_probabilities, tail_report
from schurest.partitions import total_schur_dim
from schurest.states import (
    InputError,
    diagonal_state,
    random_mixed,
    relative_entropy,
    renyi_curve,
    sandwiched_renyi,
)


def random_pair(d, seed, floor=0.05):
    return random_mixed(d, seed=seed, floor=floor), random_mixed(d, seed=seed + 1000, floor=floor)


# ------------------------------------------------------------- MSE bound


def test_mse_bound_trivial_point():
    assert mse_bound(1, 0.0, 2) == pytest.approx(math.log(2) ** 2, abs=1e-15)


def test_mse_bound_round_numbers():
    value = mse_bound(100, 1.0, math.e**10)
    assert value == pytest.approx(0.04, abs=1e-12)


def test_mse_bound_validation():
    with pytest.raises(ValueError):
        mse_bound(0, 1.0, 2)
    with pytest.raises(ValueError):
        mse_bound(1, -0.1, 2)
    with pytest.raises(ValueError):
        mse_bound_counting(1, 2, -0.1)


# a float or a bool is no copy count, even when it equals one; a numpy
# integer is one, and gives the int's result
COPY_COUNTS = [4.7, 12.0, True, np.int64(4)]


def same_as_int_or_refused(call, n):
    if isinstance(n, np.integer):
        assert call(n) == call(int(n))
    else:
        with pytest.raises(InputError, match="integer number of copies"):
            call(n)


@pytest.mark.parametrize("n", COPY_COUNTS)
def test_mse_bound_takes_only_an_integer_copy_count(n):
    same_as_int_or_refused(lambda n: mse_bound(n, 1.0, 5), n)


@pytest.mark.parametrize("args", [(4, math.nan, 5), (4, 1.0, math.nan)])
def test_mse_bound_refuses_nan(args):
    with pytest.raises(ValueError):
        mse_bound(*args)


def test_exact_dimension_never_beats_counting_bound():
    for d in (2, 3, 4):
        for n in range(1, 31):
            for v in (0.0, 0.5, 0.7, 2.0):
                assert mse_bound(n, v, total_schur_dim(n, d).total) <= (
                    mse_bound_counting(n, d, v) + 1e-15
                )
                assert math.log(total_schur_dim(n, d).total) <= log_schur_dim_counting(n, d) + 1e-12


def test_first_order_gap_vanishes():
    # n * (bound - V/n) shrinks along n = 100, 1000, 10000 at d = 2
    v = 0.7
    gaps = []
    for n in (100, 1000, 10000):
        bound = mse_bound(n, v, total_schur_dim(n, 2).total)
        gaps.append(n * (bound - v / n))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < gaps[0] / 4  # decays like log(n)/sqrt(n)


# ------------------------------------------------------------ tail bounds


def classical_renyi(p, s, order):
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    logs = order * np.log(p) + (1 - order) * np.log(s)
    peak = logs.max()
    return float((peak + np.log(np.sum(np.exp(logs - peak)))) / (order - 1))


def test_below_bound_matches_classical_chernoff():
    p, s = [0.8, 0.2], [0.4, 0.6]
    n = 12
    schur_dim = total_schur_dim(n, 2).total
    div = classical_renyi(p, s, 1.0 + 1e-9)  # near-divergence center
    rate = div - 0.8

    def chernoff(a):
        return a * math.log(schur_dim) - n * a * (classical_renyi(p, s, 1 - a) - rate)

    res = minimize_scalar(chernoff, bounds=(1e-4, 1 - 1e-4), method="bounded",
                          options={"xatol": 1e-10})
    independent = min(1.0, math.exp(res.fun))
    quantum = tail_bound_below(n, schur_dim, rate,
                               renyi_curve(diagonal_state(p), diagonal_state(s)))
    assert quantum.value == pytest.approx(independent, abs=1e-8)


def test_above_bound_matches_classical_evaluation():
    p, s = [0.7, 0.3], [0.35, 0.65]
    n = 10
    schur_dim = total_schur_dim(n, 2).total
    rate = classical_renyi(p, s, 1.0 + 1e-9) + 1.0
    quantum = tail_bound_above(n, schur_dim, rate,
                               renyi_curve(diagonal_state(p), diagonal_state(s)))

    # independent dense scan of the same two-parameter expression; the
    # optimizer must dominate every sampled parameter choice
    best = math.inf
    for a in np.geomspace(1e-3, 2000, 4000):
        div = classical_renyi(p, s, 1 + a)
        for r in np.geomspace(1e-6, 5, 800):
            exponent = -n * a * (rate - r - div)
            if exponent > 50:
                continue  # dominated; far from the minimum
            value = math.exp(exponent) + schur_dim * math.exp(-n * r)
            best = min(best, value)
    assert quantum.value <= min(1.0, best) + 1e-8
    # the infinite-order limit of the expression floors the infimum
    max_log_ratio = max(math.log(pi / si) for pi, si in zip(p, s))
    floor = schur_dim * math.exp(-n * (rate - max_log_ratio))
    assert floor - 1e-12 <= quantum.value <= min(1.0, best) + 1e-8
    # reported parameters reproduce the reported value exactly
    recomputed = math.exp(
        -n * quantum.alpha * (rate - quantum.split - classical_renyi(p, s, 1 + quantum.alpha))
    ) + schur_dim * math.exp(-n * quantum.split)
    assert quantum.value == pytest.approx(recomputed, rel=1e-9)


def test_below_bound_vacuous_when_rate_above_divergence():
    rho, sigma = random_pair(2, seed=3)
    div = relative_entropy(rho, sigma)
    bound = tail_bound_below(6, total_schur_dim(6, 2).total, div + 1.0,
                             renyi_curve(rho, sigma))
    assert bound.value == 1.0


def test_above_bound_beats_any_sampled_parameter_choice():
    rho, sigma = random_pair(2, seed=9)
    n = 8
    schur_dim = total_schur_dim(n, 2).total
    renyi = renyi_curve(rho, sigma)
    rate = relative_entropy(rho, sigma) + 1.2
    bound = tail_bound_above(n, schur_dim, rate, renyi)
    assert 0 < bound.value <= 1
    for a in (0.1, 0.5, 1.0, 2.0, 5.0):
        for r in (0.01, 0.1, 0.5, 1.0):
            div = sandwiched_renyi(rho, sigma, 1 + a)
            direct = math.exp(-n * a * (rate - r - div)) + schur_dim * math.exp(-n * r)
            assert bound.value <= min(1.0, direct) + 1e-12


def test_above_bound_underflow_keeps_a_finite_exponent():
    # at a rate this far above the divergence both split terms underflow
    rho, sigma = random_pair(2, seed=9)
    rate = relative_entropy(rho, sigma) + 1000.0
    bound = tail_bound_above(4, total_schur_dim(4, 2).total, rate, renyi_curve(rho, sigma))
    assert bound.value == 0.0
    assert -math.inf < bound.exponent < math.log(5e-324)


def test_below_bound_beats_any_sampled_alpha():
    rho, sigma = random_pair(2, seed=11)
    n = 8
    schur_dim = total_schur_dim(n, 2).total
    renyi = renyi_curve(rho, sigma)
    rate = relative_entropy(rho, sigma) - 1.0
    bound = tail_bound_below(n, schur_dim, rate, renyi)
    for a in (0.05, 0.2, 0.5, 0.8, 0.95):
        div = sandwiched_renyi(rho, sigma, 1 - a)
        direct = math.exp(a * math.log(schur_dim) - n * a * (div - rate))
        assert bound.value <= min(1.0, direct) + 1e-12


@pytest.mark.parametrize("n", [4, 8, 10])
def test_tail_bounds_dominate_exact_tails(n):
    for seed in (1, 2, 3, 4):
        rho, sigma = random_pair(2, seed=seed)
        div = relative_entropy(rho, sigma)
        dist = distribution(rho, sigma, n)
        renyi = renyi_curve(rho, sigma)
        for eps in (0.3, 0.7, 1.5, 3.0):
            report = tail_probabilities(dist, div, eps, renyi=renyi)
            assert report.delta_plus <= report.bound_plus + 1e-9
            assert report.delta_minus <= report.bound_minus + 1e-9
            assert math.isfinite(report.bound_plus) and math.isfinite(report.bound_minus)


def test_tail_bound_validation():
    def unread(alphas):
        raise AssertionError("the divergences were read before the check")

    with pytest.raises(ValueError):
        tail_bounds(0, 2, 0.1, 0.1, unread)
    with pytest.raises(ValueError):
        tail_bounds(2, 0, 0.1, 0.1, unread)


@pytest.mark.parametrize("n", COPY_COUNTS)
def test_tail_bounds_take_only_an_integer_copy_count(n):
    rho, sigma = random_pair(2, seed=3)
    div = relative_entropy(rho, sigma)
    same_as_int_or_refused(
        lambda n: tail_bounds(n, 5, div + 0.5, div - 0.5, renyi_curve(rho, sigma)), n)


# ----------------------------------------------- bounded Brent refinement


def scipy_bounded(fun, lo, hi, xatol):
    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun)


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def minimize(fun, steps):
    """Run a Brent search generator, sending fun's value at each point it
    yields; returns the search's result."""
    try:
        x = next(steps)
        while True:
            x = steps.send(fun(x))
    except StopIteration as stop:
        return stop.value


def logged(fun, log):
    """fun, appending each (point, value) it is called at to log."""
    def wrapped(t):
        log.append((t, fun(t)))
        return log[-1][1]
    return wrapped


@pytest.fixture
def brent_against_scipy(monkeypatch):
    """Run scipy's bounded minimizer beside every refinement; collect both
    results, whether both visited the same points, and whether the port met
    a NaN or +inf inside the bracket.

    The port is a generator that is sent each value, so scipy is run on
    the values the port was sent, replayed in order; a point where scipy
    leaves the port's path gets NaN and counts as a different path."""
    port = bounds._brent_steps
    results = []

    def both(lo, hi, xatol):
        log = []
        steps = port(lo, hi, xatol)
        x = next(steps)
        while True:
            value = yield x
            log.append((x, value))
            try:
                x = steps.send(value)
            except StopIteration as stop:
                ours = stop.value
                break
        replay, ref_points = iter(log), []

        def replayed(t):
            ref_points.append(t)
            point, value = next(replay, (None, math.nan))
            return value if point == t else math.nan

        with np.errstate(invalid="ignore"):
            theirs = scipy_bounded(replayed, lo, hi, xatol)
        same_points = [t for t, _ in log] == ref_points
        holes = not all(math.isfinite(value) for _, value in log)
        results.append((ours, theirs, same_points, holes))
        return ours

    monkeypatch.setattr(bounds, "_brent_steps", both)
    return results


# searches that refine on the inputs below; a vacuous bound returns unrefined,
# so n = 16 and eps = 2 are there to keep at least 24 refinements per d
REFINEMENTS = {2: 36, 3: 30, 4: 30}


def assert_tail_refinements_match_scipy(d, results, paired):
    for seed in (0, 7, 12):
        rho = random_mixed(d, seed, floor=0.05)
        sigma = random_mixed(d, 500 + seed, floor=0.05)
        div = relative_entropy(rho, sigma)
        renyi = renyi_curve(rho, sigma)
        for n in (2, 8, 16):
            schur_dim = total_schur_dim(n, d).total
            for eps in (0.1, 1.0, 2.0):
                if paired:
                    tail_bounds(n, schur_dim, div + eps, div - eps, renyi)
                else:
                    tail_bound_below(n, schur_dim, div - eps, renyi)
                    tail_bound_above(n, schur_dim, div + eps, renyi)
    assert len(results) == REFINEMENTS[d]
    for (x, value), (ref_x, ref_value), same_points, _ in results:
        assert same_points and x == ref_x and same_float(value, ref_value)
    if d == 2:  # seeds 0 and 7 at eps = 1 skip uncertified orders inside the bracket
        assert sum(holes for *_, holes in results) >= 4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tail_bound_refinement_is_bit_identical_to_scipy(d, brent_against_scipy):
    assert_tail_refinements_match_scipy(d, brent_against_scipy, paired=False)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_paired_tail_refinement_is_bit_identical_to_scipy(d, brent_against_scipy):
    assert_tail_refinements_match_scipy(d, brent_against_scipy, paired=True)


def _hole(fill, lo, hi):
    return lambda x: fill if lo < x < hi else (x - 0.42) ** 2


@pytest.mark.parametrize("fun", [
    lambda x: (x - 0.3) ** 2,
    lambda x: math.cos(5 * x),
    lambda x: abs(x - 0.5),
    lambda x: x**4 - x,
    lambda x: -x,
    lambda x: (x - 1.5) ** 2,
    lambda x: (x + 0.5) ** 2,
    lambda x: math.exp(3 * x) - 20 * x,
    lambda x: 1.0,
    _hole(math.nan, 0.4, 0.45),
    _hole(math.inf, 0.4, 0.45),
    _hole(math.nan, 0.3, 0.9),
    _hole(math.inf, 0.0, 0.5),
    lambda x: math.nan,
    lambda x: math.inf if x > 0.5 else math.nan,
])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.01, 0.99), (0.41, 0.43), (1e-4, 1 - 1e-4)])
@pytest.mark.parametrize("xatol", [1e-3, 1e-7, 1e-10])
def test_bounded_brent_is_bit_identical_to_scipy(fun, lo, hi, xatol):
    log, ref_log = [], []
    x, value = minimize(logged(fun, log), bounds._brent_steps(lo, hi, xatol))
    with np.errstate(invalid="ignore"):
        ref_x, ref_value = scipy_bounded(logged(fun, ref_log), lo, hi, xatol)
    assert [t for t, _ in log] == [t for t, _ in ref_log]  # the same points, in order
    assert x == ref_x and same_float(value, ref_value)


@pytest.mark.parametrize("v", [-2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0, math.inf, -math.inf, math.nan])
def test_brent_sign_and_max_follow_numpy(v):
    assert same_float(bounds._step_sign(v), float(np.sign(v) + (v == 0)))
    for other in (-1.0, 0.0, 2.0, math.nan):
        assert same_float(bounds._nan_max(v, other), float(np.maximum(v, other)))


# ------------------------------------------------------ sample complexity


def test_complexity_worked_example():
    report = sample_complexity_bound(1.0, 0.0, 1.0)
    assert report.simple == pytest.approx(16.0, abs=1e-12)
    assert report.exact == pytest.approx(16.0, abs=1e-9)
    assert report.s_opt == pytest.approx(0.5, abs=1e-4)


def test_complexity_minimum_is_stationary():
    # the inner term's log, (s - 1) log c - log s - log(1 - s), has the
    # derivative log c - 1/s + 1/(1 - s); at s_opt it vanishes to rounding
    # against the size of its terms, and no point of a fine grid beats it
    for c in (1e-3, 0.5, 3.0, 1e3, 1e8, 1e100, 1e300):
        s = sample_complexity_bound(c, 1.0, 1.0).s_opt

        def log_inner(t):
            return (t - 1) * math.log(c) - math.log(t) - math.log(1 - t)

        assert 0 < s < 1
        assert abs(math.log(c) - 1 / s + 1 / (1 - s)) / (1 / s + 1 / (1 - s)) <= 1e-12
        for t in (i / 4096 for i in range(1, 4096)):
            assert log_inner(s) <= log_inner(t) + 1e-12 * abs(log_inner(t))


def test_complexity_vanishes_for_large_budget():
    report = sample_complexity_bound(1e8, 1.0, 1.0)
    assert report.exact < 1e-5 and report.simple < 1e-5
    assert report.exact <= report.simple + 1e-18


def test_complexity_calibration_identity():
    # budget constant chosen to make the simple bound equal a target
    c0, eps, target = 1.0, 0.7, 0.3
    c = (math.sqrt(c0) + 4) ** 2 / (target * eps**2)
    report = sample_complexity_bound(c, c0, eps)
    assert report.simple == pytest.approx(target, abs=1e-12)


def test_complexity_exact_below_simple_on_grid():
    for c in (0.1, 1.0, 10.0, 100.0):
        for c0 in (0.0, 1.0, 10.0):
            for epsilon in (0.5, 1.0):
                report = sample_complexity_bound(c, c0, epsilon)
                assert report.exact <= report.simple + 1e-10
                assert report.exact > 0 or c0 == 0


def test_complexity_half_point_is_analytic():
    # the midpoint specialization evaluates to 4/sqrt(c), so the optimized
    # inner value can only improve on it
    for c in (0.3, 2.0, 50.0):
        report = sample_complexity_bound(c, 2.0, 1.0)
        midpoint = (math.sqrt(2.0 / c) + 4 / math.sqrt(c)) ** 2
        assert report.exact <= midpoint + 1e-10


def test_complexity_validation():
    with pytest.raises(ValueError):
        sample_complexity_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_complexity_bound(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        sample_complexity_bound(1.0, 1.0, 0.0)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)])
def test_complexity_refuses_nan(args):
    with pytest.raises(ValueError):
        sample_complexity_bound(*args)


# ---------------------------------------------------- tomography baseline


def test_tomography_worked_example():
    assert tomography_baseline(2, 1.0, 1.0) == pytest.approx(4 * (math.log(2) + 2) ** 2, abs=1e-12)


def test_tomography_monotone_in_dimension():
    values = [tomography_baseline(d, 1.0, 0.5) for d in range(2, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_tomography_asymptotic_quartic():
    d, t = 60, 5.0
    value = tomography_baseline(d, t, 1.0)
    assert value == pytest.approx(t**2 * d**4, rel=0.05)


def test_tomography_validation():
    with pytest.raises(ValueError):
        tomography_baseline(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        tomography_baseline(2, 0.0, 1.0)


@pytest.mark.parametrize("args", [(3, math.nan, 0.5), (3, 1.0, math.nan)])
def test_tomography_refuses_nan(args):
    with pytest.raises(ValueError):
        tomography_baseline(*args)


# ------------------------------------------------- cross-formula sanity


def test_sandwiched_renyi_feeds_bounds_consistently():
    rho, sigma = random_pair(3, seed=21)
    renyi = renyi_curve(rho, sigma)
    assert renyi(np.array([0.5]))[0] == pytest.approx(sandwiched_renyi(rho, sigma, 0.5), abs=1e-12)
    bound = tail_bound_below(4, total_schur_dim(4, 3).total,
                             relative_entropy(rho, sigma) - 2.0, renyi)
    assert 0 < bound.value <= 1


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of orders in each call of the Renyi kernel, in order."""
    calls = []
    kernel = states._renyi_orders

    def counting(pair, alphas):
        calls.append(len(alphas))
        return kernel(pair, alphas)

    monkeypatch.setattr(states, "_renyi_orders", counting)
    return calls


def test_tail_report_evaluates_each_grid_in_one_batch(kernel_calls):
    rho, sigma = random_pair(3, seed=5)
    report = tail_report(rho, sigma, 16, 1.0)
    assert report.bound_plus < 1 and report.bound_minus < 1
    # both probes in one call, the above grid, then the below grid
    assert kernel_calls[:3] == [2, 255, 99]
    # then one call per lockstep Brent step, holding both searches' orders
    assert len(kernel_calls) - 3 <= 25 and all(1 <= size <= 2 for size in kernel_calls[3:])


@pytest.mark.parametrize("d, n", [(2, 8), (3, 5), (3, 6)])
def test_vacuous_tail_report_makes_one_kernel_call(kernel_calls, d, n):
    # n eps <= log schur_dim: each probe proves its bound vacuous, and
    # neither search reads its grid
    rho, sigma = random_pair(d, seed=5)
    report = tail_report(rho, sigma, n, 0.3)
    assert kernel_calls == [2]
    assert report.bound_plus == report.bound_minus == 1.0


def vacuous_sides(n, schur_dim, rate_above, rate_below, renyi):
    """Which of the two searches return after their probe, read as a missing grid call."""
    def calls(search):
        sizes = []

        def recorded(alphas):
            sizes.append(len(alphas))
            return renyi(alphas)

        bounds._run([search], recorded)
        return sizes

    return (255 not in calls(bounds._above_search(n, schur_dim, rate_above)),
            99 not in calls(bounds._below_search(n, schur_dim, rate_below)))


def test_vacuity_rule_is_sound_on_every_input_it_certifies():
    # on each certified tail, a dense scan of the bound's own family, from
    # sandwiched_renyi alone, finds no parameter choice giving a value below 1
    a_above = np.geomspace(1e-3, 2000, 400)
    r_above = np.geomspace(1e-6, 5, 400)
    a_below = np.linspace(0.0025, 0.9975, 399)
    certified = [0, 0]
    for d in (2, 3, 4):
        for seed in (0, 3, 8, 13):
            rho, sigma = random_pair(d, seed)
            div = relative_entropy(rho, sigma)
            renyi = renyi_curve(rho, sigma)
            above_divs = np.array([sandwiched_renyi(rho, sigma, 1 + a) for a in a_above])
            below_divs = np.array([sandwiched_renyi(rho, sigma, 1 - a) for a in a_below])
            for n in (2, 4, 6, 8, 12, 16):
                schur_dim = total_schur_dim(n, d).total
                for eps in (0.1, 0.3):
                    above, below = vacuous_sides(n, schur_dim, div + eps, div - eps, renyi)
                    if above:
                        certified[0] += 1
                        first = -n * a_above[:, None] * (div + eps - r_above - above_divs[:, None])
                        with np.errstate(over="ignore"):
                            values = np.exp(first) + schur_dim * np.exp(-n * r_above)
                        assert values.min() >= 1 - 1e-12
                    if below:
                        certified[1] += 1
                        known = ~np.isnan(below_divs)
                        exponents = a_below * (math.log(schur_dim) - n * (below_divs - div + eps))
                        assert known.sum() > 300
                        assert np.exp(exponents[known]).min() >= 1 - 1e-12
    assert min(certified) >= 60


def test_tail_bounds_ask_a_plain_batched_map_for_each_order_once():
    # the searches keep the divergences they are sent, so a map with no
    # memo gives renyi_curve's floats and sees no order twice, but for the
    # below probe's order 0.99, which its grid reads again (see bounds):
    # the probes, the grids, then one order per Brent point of each search.
    # At n = 16, eps = 1 neither tail is vacuous, so both refine.
    rho, sigma = random_pair(3, seed=5)
    pair = states._renyi_pair(rho, sigma)
    orders, sizes = [], []

    def renyi(alphas):
        orders.extend(alphas.tolist())
        sizes.append(len(alphas))
        return states._renyi_orders(pair, alphas)

    div = relative_entropy(rho, sigma)
    args = (16, total_schur_dim(16, 3).total, div + 1.0, div - 1.0)
    assert tail_bounds(*args, renyi) == tail_bounds(*args, renyi_curve(rho, sigma))
    assert sizes[:4] == [2, 255, 99, 2]
    repeated = {order for order in orders if orders.count(order) > 1}
    assert repeated == {0.99} and orders.count(0.99) == 2
    assert len(orders) <= 2 + 255 + 99 + 2 * 25


@pytest.mark.parametrize("d", [2, 3, 4])
def test_paired_tail_bounds_are_bit_identical_to_single_tail_bounds(d):
    # the paired path evaluates its Brent orders two to a call, the
    # single-tail ones one at a time
    for seed in range(12):
        rho = random_mixed(d, seed, floor=0.05)
        sigma = random_mixed(d, 500 + seed, floor=0.05)
        div = relative_entropy(rho, sigma)
        renyi = renyi_curve(rho, sigma)
        for n in (2, 5, 8, 16):
            schur_dim = total_schur_dim(n, d).total
            for eps in (0.1, 0.3, 1.0):
                above = tail_bound_above(n, schur_dim, div + eps, renyi)
                below = tail_bound_below(n, schur_dim, div - eps, renyi)
                assert tail_bounds(n, schur_dim, div + eps, div - eps, renyi) == (above, below)


def test_numpy_scalar_thresholds_give_the_float_results():
    # numpy-scalar rates once rode through the searches into the results
    # and warned at the Brent step (0 * inf) where Python floats give NaN
    rho, sigma = random_mixed(4, 201), random_mixed(4, 301, floor=0.05)
    div = relative_entropy(rho, sigma)
    renyi = renyi_curve(rho, sigma)
    for n in (20, 40):
        schur_dim = total_schur_dim(n, 4).total
        for eps in np.linspace(0.1, 1.5, 15):
            got = tail_bounds(np.int64(n), schur_dim, div + eps, div - eps, renyi)
            want = tail_bounds(n, schur_dim, div + float(eps), div - float(eps), renyi)
            assert repr(got) == repr(want)


class _ReferenceCurve:
    """renyi_curve's contract (a 1-D array of orders) over the mpmath reference."""

    def __init__(self, rho, sigma):
        self.rho, self.sigma = rho, sigma

    def __call__(self, alphas):
        return np.array([reference_sandwiched_renyi(self.rho, self.sigma, a)
                         for a in alphas.tolist()])


@pytest.mark.parametrize("n", [4, 8])
def test_below_bound_skips_orders_lost_to_roundoff(n):
    # on this pair the bound once chose the order 0.01, whose value was
    # 0.5075 in place of 2.137e-4, and reported 0.396 (n = 4) and 0.0489
    # (n = 8); with the reference curve the optimum is 1.0
    rho, sigma = random_mixed(2, 7, floor=0.05), random_mixed(2, 507, floor=0.05)
    rate = relative_entropy(rho, sigma) - 0.3
    schur_dim = total_schur_dim(n, 2).total
    reference = tail_bound_below(n, schur_dim, rate, _ReferenceCurve(rho, sigma))
    assert reference.value == 1.0
    assert tail_report(rho, sigma, n, 0.3).bound_minus >= reference.value - 1e-9
