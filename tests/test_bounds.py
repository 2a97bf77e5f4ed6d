"""Bound-formula tests: worked examples, classical re-derivations, and the
inequality suites tying optimized bounds to exact tail masses."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from schurest.bounds import (
    log_schur_dim,
    log_schur_dim_counting,
    mse_bound,
    mse_bound_counting,
    sample_complexity_bound,
    tail_bound_above,
    tail_bound_below,
    tomography_baseline,
)
from schurest.distribution import distribution
from schurest.estimator import annotate_estimates, tail_probabilities
from schurest.partitions import total_schur_dim
from schurest.states import (
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


def test_exact_dimension_never_beats_counting_bound():
    for d in (2, 3, 4):
        for n in range(1, 31):
            for v in (0.0, 0.5, 2.0):
                assert mse_bound(n, v, total_schur_dim(n, d).total) <= (
                    mse_bound_counting(n, d, v) + 1e-15
                )
                assert log_schur_dim(n, d) <= log_schur_dim_counting(n, d) + 1e-12


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
            direct = math.exp(-n * a * (rate - r - renyi(1 + a))) + schur_dim * math.exp(-n * r)
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
        direct = math.exp(a * math.log(schur_dim) - n * a * (renyi(1 - a) - rate))
        assert bound.value <= min(1.0, direct) + 1e-12


@pytest.mark.parametrize("n", [4, 8, 10])
def test_tail_bounds_dominate_exact_tails(n):
    for seed in (1, 2, 3, 4):
        rho, sigma = random_pair(2, seed=seed)
        div = relative_entropy(rho, sigma)
        ann = annotate_estimates(distribution(rho, sigma, n))
        renyi = renyi_curve(rho, sigma)
        for eps in (0.3, 0.7, 1.5, 3.0):
            report = tail_probabilities(ann, div, eps, renyi=renyi)
            assert report.delta_plus <= report.bound_plus + 1e-9
            assert report.delta_minus <= report.bound_minus + 1e-9
            assert math.isfinite(report.bound_plus) and math.isfinite(report.bound_minus)


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        tail_bound_below(0, 2, 0.1, lambda a: 1.0)
    with pytest.raises(ValueError):
        tail_bound_above(2, 0, 0.1, lambda a: 1.0)


# ------------------------------------------------------ sample complexity


def test_complexity_worked_example():
    report = sample_complexity_bound(1.0, 0.0, 1.0)
    assert report.simple == pytest.approx(16.0, abs=1e-12)
    assert report.exact == pytest.approx(16.0, abs=1e-9)
    assert report.s_opt == pytest.approx(0.5, abs=1e-4)


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
            report = sample_complexity_bound(c, c0, 1.0)
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


# ------------------------------------------------- cross-formula sanity


def test_sandwiched_renyi_feeds_bounds_consistently():
    rho, sigma = random_pair(3, seed=21)
    renyi = renyi_curve(rho, sigma)
    assert renyi(0.5) == pytest.approx(sandwiched_renyi(rho, sigma, 0.5), abs=1e-12)
    bound = tail_bound_below(4, total_schur_dim(4, 3).total,
                             relative_entropy(rho, sigma) - 2.0, renyi)
    assert 0 < bound.value <= 1
