"""Estimator tests.

The strongest oracle here, `oracles.operator_identity_mse`, rebuilds
the estimate as a dense operator on the full n-copy space, without the
atom table.  The MSE from the outcome table must match the trace moment of
that operator.
"""

import math

import mpmath
import numpy as np
import pytest

from oracles import block_spectrum, operator_identity_mse
from schurest import states
from schurest.bounds import mse_bound
from schurest.distribution import distribution
from schurest.estimator import (
    _normal_cdf,
    estimate_report,
    estimate_statistics,
    exact_mse,
    normality_report,
    sample_outcomes,
    tail_probabilities,
    tail_report,
)
from schurest.partitions import enumerate_young, sn_dim, total_schur_dim
from schurest.states import (
    DensityMatrix,
    diagonal_state,
    random_mixed,
    relative_entropy,
    relative_varentropy,
)


def random_pair(d, seed, floor=0.05):
    return random_mixed(d, seed=seed, floor=floor), random_mixed(d, seed=seed + 1000, floor=floor)


# -------------------------------------------------------------- estimates


def test_single_copy_uniform_reference():
    rho = DensityMatrix(np.eye(2) / 2)
    dist = distribution(rho, rho, 1)
    np.testing.assert_allclose(dist.x, math.log(2), atol=1e-14)
    np.testing.assert_allclose(dist.x_star, math.log(2), atol=1e-14)


def test_one_row_block_estimate_is_exact():
    # weight (2,0) counts copies of the leading reference eigenvalue s
    s = 0.7
    sigma = diagonal_state([s, 1 - s])
    rho = diagonal_state([0.9, 0.1])
    dist = distribution(rho, sigma, 2)
    idx = [
        i
        for i, (young, weight) in enumerate(zip(dist.youngs, dist.weights))
        if young == (0, 2) and weight == (2, 0)
    ]
    assert len(idx) == 1
    i = idx[0]
    assert dist.x[i] == pytest.approx(-math.log(s), abs=1e-13)
    assert dist.x_star[i] == pytest.approx(-math.log(s), abs=1e-13)


def test_balanced_block_gap_is_log_two():
    sigma = diagonal_state([0.6, 0.4])
    rho = diagonal_state([0.5, 0.5])
    dist = distribution(rho, sigma, 2)
    for i, young in enumerate(dist.youngs):
        gap = dist.x[i] - dist.x_star[i]
        if young == (1, 1):
            assert gap == pytest.approx(math.log(2), abs=1e-13)
            assert gap <= 0.5 * (2 * math.log(3) - math.log(0.5)) + 1e-13
        else:
            assert gap == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("d,n", [(2, 4), (2, 7), (3, 4), (2, 20)])
def test_gap_within_per_block_bounds(d, n):
    rho, sigma = random_pair(d, seed=10 * d + n)
    dist = distribution(rho, sigma, n)
    gap = dist.x - dist.x_star
    assert (gap >= -1e-12).all()
    assert (gap <= dist.gap_bound + 1e-12).all()
    # the sharper bound, one log(n+1) less
    tight = dist.gap_bound - math.log(n + 1) / n
    assert (gap <= tight + 1e-12).all()
    assert (tight <= dist.gap_bound + 1e-15).all()
    for i, young in enumerate(dist.youngs):
        ratio = sn_dim(young)[1]
        assert dist.gap_bound[i] == pytest.approx(
            (d * math.log(n + 1) - math.log(ratio)) / n, abs=1e-13
        )


def test_gap_bound_formula():
    # two-row balanced block: ratio e = 1/2, so the bound is explicit
    rho, sigma = random_pair(2, seed=3)
    dist = distribution(rho, sigma, 2)
    i = dist.youngs.index((1, 1))
    assert sn_dim((1, 1))[1] == 0.5
    assert dist.gap_bound[i] == pytest.approx((2 * math.log(3) - math.log(0.5)) / 2, abs=1e-14)


# ------------------------------------------------------------ mean and MSE


def test_trivial_point_exact():
    rho = DensityMatrix(np.eye(2) / 2)
    rep = estimate_report(rho, rho, 1)
    assert rep.mse == pytest.approx(math.log(2) ** 2, abs=1e-12)
    assert rep.mse_bound == pytest.approx(math.log(2) ** 2, abs=1e-12)
    assert rep.relative_entropy == 0.0
    assert rep.varentropy == pytest.approx(0.0, abs=1e-14)
    assert rep.ks is None


def test_self_estimation_bias_bounded_by_dimension_term():
    sigma = random_mixed(3, seed=31, floor=0.1)
    rep = estimate_report(sigma, sigma, 4)
    assert rep.relative_entropy == pytest.approx(0.0, abs=1e-12)
    assert rep.mse <= (math.log(total_schur_dim(4, 3).total) / 4) ** 2 + 1e-12


@pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (2, 16), (3, 3), (3, 4), (3, 8)])
def test_mean_above_center_within_sandwich(d, n):
    for seed in (0, 1, 2):
        rho, sigma = random_pair(d, seed=100 * d + n + seed)
        rep = estimate_report(rho, sigma, n)
        width = (d + 1) * (d - 1) * math.log(n + 1) / n
        assert -1e-9 <= rep.bias <= width + 1e-9
        assert rep.mse >= rep.bias**2 - 1e-12
        assert rep.mse_star >= rep.bias_star**2 - 1e-12
        assert rep.mse <= rep.mse_bound + 1e-9


def test_exact_mse_rejects_infinite_center():
    rho, sigma = random_pair(2, seed=5)
    dist = distribution(rho, sigma, 3)
    with pytest.raises(ValueError):
        exact_mse(dist, math.inf)


# ------------------------------------------------- operator-identity oracle


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_operator_identity_matches_atom_mse(n):
    for seed in (1, 2):
        rho, sigma = random_pair(2, seed=seed * 7 + n)
        dist = distribution(rho, sigma, n)
        center = relative_entropy(rho, sigma)
        assert exact_mse(dist, center) == pytest.approx(
            operator_identity_mse(rho, sigma, n), abs=1e-8
        )


def test_operator_identity_noncommuting_qutrit():
    rho, sigma = random_pair(3, seed=77)
    dist = distribution(rho, sigma, 3)
    center = relative_entropy(rho, sigma)
    assert exact_mse(dist, center) == pytest.approx(
        operator_identity_mse(rho, sigma, 3), abs=1e-8
    )


# ------------------------------------------------------------------ tails


def test_tails_empty_beyond_range():
    rho, sigma = random_pair(2, seed=13)
    dist = distribution(rho, sigma, 4)
    center = relative_entropy(rho, sigma)
    span = float(np.abs(dist.x - center).max())
    report = tail_probabilities(dist, center, span + 1.0)
    assert report.delta_plus == 0.0 and report.delta_minus == 0.0


def test_single_copy_tail_is_certain():
    rho = DensityMatrix(np.eye(2) / 2)
    dist = distribution(rho, rho, 1)
    report = tail_probabilities(dist, 0.0, 0.5)
    assert report.delta_plus == 1.0
    assert report.delta_minus == 0.0


def test_boundary_atoms_excluded_from_both_tails():
    rho, sigma = random_pair(2, seed=17)
    dist = distribution(rho, sigma, 4)
    x0 = float(dist.x[0])
    mass0 = math.fsum(dist.p[np.abs(dist.x - x0) <= 1e-12].tolist())
    eps = 0.25
    report = tail_probabilities(dist, x0 - eps, eps)
    assert report.boundary_atoms >= 1
    strict_above = math.fsum(dist.p[dist.x > x0].tolist())
    assert report.delta_plus == pytest.approx(strict_above, abs=1e-15)
    assert report.delta_plus + report.delta_minus + mass0 <= 1 + 1e-12


@pytest.mark.parametrize("d,n", [(2, 4), (2, 8), (3, 4)])
def test_chebyshev_dominates_tails(d, n):
    for seed in (3, 4):
        rho, sigma = random_pair(d, seed=seed * 11 + n)
        dist = distribution(rho, sigma, n)
        center = relative_entropy(rho, sigma)
        mse = exact_mse(dist, center)
        for eps in (0.2, 0.5, 1.0):
            report = tail_probabilities(dist, center, eps)
            assert report.delta_plus + report.delta_minus <= mse / eps**2 + 1e-12


def test_tail_validation():
    rho, sigma = random_pair(2, seed=19)
    dist = distribution(rho, sigma, 3)
    with pytest.raises(ValueError):
        tail_probabilities(dist, 0.5, 0.0)
    # a NaN epsilon once passed the check and gave empty tails with bounds 1
    with pytest.raises(ValueError, match="epsilon"):
        tail_probabilities(dist, 0.5, math.nan)
    with pytest.raises(ValueError, match="epsilon"):
        tail_report(rho, sigma, 6, math.nan)


# --------------------------------------------------------------- sampling


def test_sampling_reproducible():
    rho, sigma = random_pair(2, seed=23)
    dist = distribution(rho, sigma, 5)
    a = sample_outcomes(dist, 64, seed=9)
    b = sample_outcomes(dist, 64, seed=9)
    c = sample_outcomes(dist, 64, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (64, 2)
    single = sample_outcomes(dist, 1, seed=9)
    np.testing.assert_array_equal(single, a[:1])


def test_sampling_values_come_from_atoms():
    rho, sigma = random_pair(2, seed=29)
    dist = distribution(rho, sigma, 4)
    draws = sample_outcomes(dist, 500, seed=0)
    xs = set(np.round(dist.x, 12));  drawn = set(np.round(draws[:, 0], 12))
    assert drawn <= xs


def test_sampling_mean_and_mse_consistent():
    rho, sigma = random_pair(2, seed=37)
    n, m = 6, 100_000
    dist = distribution(rho, sigma, n)
    center = relative_entropy(rho, sigma)
    draws = sample_outcomes(dist, m, seed=1)
    mean = dist.mean_x()
    variance = exact_mse(dist, mean)
    se = math.sqrt(variance / m)
    assert abs(draws[:, 0].mean() - mean) < 5 * se
    empirical_mse = float(np.mean((draws[:, 0] - center) ** 2))
    exact = exact_mse(dist, center)
    fourth = math.fsum((dist.p * (dist.x - center) ** 4).tolist())
    mse_sd = math.sqrt(max(fourth - exact**2, 0.0) / m)
    assert abs(empirical_mse - exact) < 4 * mse_sd
    # Kolmogorov-Smirnov distance of the draws to the exact law of x, on
    # both sides of every atom; 1.63/sqrt(m) is the 1 % critical value
    values, inverse = np.unique(dist.x, return_inverse=True)
    masses = np.bincount(inverse, weights=dist.p, minlength=len(values))
    cdf = np.cumsum(masses)
    ordered = np.sort(draws[:, 0])
    right = np.searchsorted(ordered, values, side="right") / m
    left = np.searchsorted(ordered, values, side="left") / m
    ks = max(np.abs(right - cdf).max(), np.abs(left - (cdf - masses)).max())
    assert ks < 1.63 / math.sqrt(m)


def test_empirical_cdf_converges():
    rho, sigma = random_pair(2, seed=41)
    dist = distribution(rho, sigma, 6)
    m = 100_000
    draws = sample_outcomes(dist, m, seed=2)[:, 0]
    values = np.unique(dist.x)
    exact_cdf = np.array([math.fsum(dist.p[dist.x <= t].tolist()) for t in values])
    empirical = np.searchsorted(np.sort(draws), values, side="right") / m
    assert np.abs(empirical - exact_cdf).max() < 1.63 / math.sqrt(m)


def test_sampling_validation():
    rho, sigma = random_pair(2, seed=43)
    dist = distribution(rho, sigma, 3)
    with pytest.raises(ValueError):
        sample_outcomes(dist, 0)


# -------------------------------------------------------------- normality


def test_normality_rejects_degenerate_varentropy():
    sigma = random_mixed(2, seed=47, floor=0.1)
    dist = distribution(sigma, sigma, 3)
    with pytest.raises(ValueError):
        normality_report(dist, 0.0, 0.0)


def test_normal_cdf_matches_high_precision_reference():
    # both tails and the centre, against a 50-digit evaluation of each float z
    z = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-38.5, -8.3, -1e-300, 0.0, 1e-300, 8.3]])
    phi = _normal_cdf(z)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(float(value)) - mpmath.ncdf(mpmath.mpf(float(point))))
                    for point, value in zip(z, phi))
    assert worst <= 3e-16


def test_normality_trend_commuting():
    rho = diagonal_state([0.7, 0.3])
    sigma = diagonal_state([0.4, 0.6])
    center = relative_entropy(rho, sigma)
    varentropy = relative_varentropy(rho, sigma)
    assert varentropy > 0.1
    ks = {}
    for n in (6, 24):
        dist = distribution(rho, sigma, n)
        ks[n] = normality_report(dist, center, varentropy).ks
    assert ks[24] < ks[6]


def test_normality_trend_noncommuting():
    rho, sigma = random_pair(2, seed=53)
    center = relative_entropy(rho, sigma)
    varentropy = relative_varentropy(rho, sigma)
    assert varentropy > 0.1
    ks = {}
    for n in (6, 24):
        dist = distribution(rho, sigma, n)
        ks[n] = normality_report(dist, center, varentropy).ks
    assert ks[24] < ks[6]


def test_normality_ks_matches_the_sorted_atom_cdf():
    rho, sigma = random_pair(2, seed=59)
    dist = distribution(rho, sigma, 6)
    center = relative_entropy(rho, sigma)
    varentropy = relative_varentropy(rho, sigma)
    report = normality_report(dist, center, varentropy)
    # the distance is attained at a jump of the outcome CDF, just before or
    # at one of its distinct standardized values; walk them in order
    z = (dist.x - center) * math.sqrt(dist.n / varentropy)
    gaps, below = [], 0.0
    for value in sorted(set(z.tolist())):
        at = math.fsum(dist.p[z == value].tolist())
        phi = 0.5 * math.erfc(-value / math.sqrt(2))
        gaps += [abs(below - phi), abs(below + at - phi)]
        below += at
    assert below == pytest.approx(1.0, abs=1e-11)
    assert report.ks == pytest.approx(max(gaps), abs=1e-12)
    assert 0 < report.ks <= 1


# ----------------------------------------------- mass second-moment checks


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (2, 12), (3, 3)])
def test_atom_mass_second_moment_bound(d, n):
    rho, sigma = random_pair(d, seed=61 + n)
    dist = distribution(rho, sigma, n)
    bound = math.log(total_schur_dim(n, d).total) ** 2
    # sum of p log^2 p over outcomes; bounded by log^2(outcome count)
    positive = dist.p[dist.p > 0]
    assert math.fsum((positive * np.log(positive) ** 2).tolist()) <= bound + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fine_grained_second_moment_bound(n):
    # the same bound holds for the finer split into per-block spectral lines,
    # whose count is exactly the total block dimension
    rho, sigma = random_pair(2, seed=67 + n)
    terms = []
    count = 0
    for young in enumerate_young(n, 2):
        for value in block_spectrum(rho, sigma, n, young):
            count += 1
            if value > 0:
                terms.append(value * math.log(value) ** 2)
    summary = total_schur_dim(n, 2)
    assert count == summary.total
    assert math.fsum(terms) <= math.log(summary.total) ** 2 + 1e-12


def test_report_bound_uses_exact_dimension():
    rho, sigma = random_pair(2, seed=71)
    rep = estimate_report(rho, sigma, 5)
    expected = mse_bound(5, rep.varentropy, total_schur_dim(5, 2).total)
    assert rep.mse_bound == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("d, n", [(1, 3), (2, 5), (3, 4)])
def test_report_is_the_reducer_over_its_table(d, n):
    # estimate_report is divergence_moments, distribution and
    # estimate_statistics, as tail_report is tail_probabilities over its table
    rho, sigma = random_pair(d, seed=73)
    moments = states.divergence_moments(rho, sigma)
    assert estimate_statistics(distribution(rho, sigma, n), *moments) == estimate_report(
        rho, sigma, n)


def test_report_reads_d_and_v_from_one_law(monkeypatch):
    laws = []
    law = states._log_ratio_law

    def counted(rho, sigma):
        laws.append(1)
        return law(rho, sigma)

    monkeypatch.setattr(states, "_log_ratio_law", counted)
    for d in (2, 3, 4):
        rho, sigma = random_pair(d, seed=11)
        laws.clear()
        rep = estimate_report(rho, sigma, 4)
        assert len(laws) == 1
        # the same bits as the two functionals
        assert rep.relative_entropy == relative_entropy(rho, sigma)
        assert rep.varentropy == relative_varentropy(rho, sigma)
