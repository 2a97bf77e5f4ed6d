"""Invariant suite behind the `verify` subcommand.

Each family re-checks one library-level invariant on a fixed seeded
corpus: exact combinatorial identities, divergence axioms, a closed form
for commuting pairs, probability normalization, bound dominance, and the
CLI's byte-identical rerun contract.  A family passes silently; any violation
(or unexpected exception) is reported with a one-line detail.  The
corpus is small on purpose: the full property-test suite lives in the
test tree, while verify is the fast self-check a user can run after
install.  No family needs an oracle: the checks against independent
reference computations run in the test tree.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from functools import lru_cache

import numpy as np

from .bounds import mse_bound, mse_bound_counting, sample_complexity_bound
from .distribution import distribution
from .estimator import estimate_report, sample_outcomes, tail_report
from .partitions import (
    enumerate_young,
    multinomial,
    sn_dim,
    total_schur_dim,
    type_entropy_bounds,
    weyl_dim,
    weyl_dim_log_bound,
)
from .states import (
    DensityMatrix,
    haar_unitary,
    random_mixed,
    relative_entropy,
    relative_varentropy,
    sandwiched_renyi,
    sigma_spectrum,
    sld_quantities,
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@lru_cache(maxsize=64)
def _pair(d: int, seed: int) -> tuple[DensityMatrix, DensityMatrix]:
    return (
        random_mixed(d, seed, floor=0.05),
        random_mixed(d, seed + 1000, floor=0.05),
    )


@lru_cache(maxsize=64)
def _dist(d: int, n: int, seed: int):
    rho, sigma = _pair(d, seed)
    return distribution(rho, sigma, n)


_SMALL_GRID = ((2, 3), (2, 6), (3, 3), (3, 4))


# ------------------------------------------------------------- combinatorics


def _family_dimension_identity(seed: int) -> None:
    for d in (2, 3):
        for n in range(1, 9):
            total = sum(weyl_dim(lam) * sn_dim(lam)[0] for lam in enumerate_young(n, d))
            _check(total == d**n, f"sum u*v = {total} != {d}^{n}")


def _family_counting_bounds(seed: int) -> None:
    for d in (2, 3):
        for n in range(1, 9):
            lams = enumerate_young(n, d)
            _check(len(lams) <= (n + 1) ** (d - 1), f"|Y| too large at n={n}, d={d}")
            cap = (n + 1) ** (d * (d - 1) // 2)
            for lam in lams:
                _check(weyl_dim(lam) <= cap, f"weyl_dim({lam}) exceeds (n+1)^(d(d-1)/2)")


def _family_weyl_log_bound(seed: int) -> None:
    for d in (2, 3):
        for n in range(1, 11):
            for lam in enumerate_young(n, d):
                value = math.log(weyl_dim(lam))
                for s in (0.25, 0.5, 0.75):
                    bound = weyl_dim_log_bound(n, d, s)
                    _check(value <= bound + 1e-12, f"log weyl_dim({lam}) > bound at s={s}")


def _family_type_entropy_sandwich(seed: int) -> None:
    for d in (2, 3, 4):
        for n in range(1, 21):
            for lam in enumerate_young(n, d):
                _, log_lower, log_upper = type_entropy_bounds(lam)
                value = math.log(multinomial(lam))
                _check(
                    log_lower - 1e-12 <= value <= log_upper + 1e-12,
                    f"multinomial({lam}) outside the entropy sandwich",
                )


# ---------------------------------------------------------------- divergences


def _family_divergence_positivity(seed: int) -> None:
    count = 0
    for d in (2, 3, 4):
        state = random_mixed(d, seed + d, floor=0.05)
        _check(abs(relative_entropy(state, state)) <= 1e-8, f"D(rho,rho) != 0 at d={d}")
        for i in range(34):
            rho, sigma = _pair(d, seed + 7 * i)
            value = relative_entropy(rho, sigma)
            _check(value >= -1e-12, f"negative divergence at d={d}, i={i}")
            _check(value > 1e-8, f"distinct pair with zero divergence at d={d}, i={i}")
            count += 1
            if count >= 100:
                return


def _family_fisher_inner(seed: int) -> None:
    for d in (2, 3):
        for i in range(5):
            rho, sigma = _pair(d, seed + 11 * i)
            inner = sld_quantities(rho, sigma).inner
            varentropy = relative_varentropy(rho, sigma)
            _check(abs(inner - varentropy) <= 1e-10, f"inner != varentropy at d={d}, i={i}")


def _family_renyi_curve(seed: int) -> None:
    orders = (0.3, 0.6, 0.9, 1.1, 1.4, 1.7)
    for d in (2, 3):
        for i in range(3):
            rho, sigma = _pair(d, seed + 13 * i)
            values = [sandwiched_renyi(rho, sigma, a) for a in orders]
            for a, b in zip(values, values[1:]):
                _check(b >= a - 1e-10, f"renyi curve not monotone at d={d}, i={i}")
            div = relative_entropy(rho, sigma)
            slack = 0.05 * (1 + relative_varentropy(rho, sigma))
            for a in (0.99, 1.01):
                _check(
                    abs(sandwiched_renyi(rho, sigma, a) - div) <= slack,
                    f"renyi curve discontinuous near order 1 at d={d}, i={i}",
                )


def _family_unitary_invariance(seed: int) -> None:
    rng = np.random.default_rng(seed + 17)
    for d in (2, 3):
        for i in range(2):
            rho, sigma = _pair(d, seed + 19 * i)
            u = haar_unitary(d, rng)
            rho2 = DensityMatrix(u @ rho.mat @ u.conj().T)
            sigma2 = DensityMatrix(u @ sigma.mat @ u.conj().T)
            _check(
                abs(relative_entropy(rho, sigma) - relative_entropy(rho2, sigma2)) <= 1e-10,
                f"relative entropy moved under conjugation at d={d}, i={i}",
            )
            _check(
                abs(relative_varentropy(rho, sigma) - relative_varentropy(rho2, sigma2)) <= 1e-10,
                f"varentropy moved under conjugation at d={d}, i={i}",
            )


# --------------------------------------------------------------- distribution


def _family_commuting_closed_form(seed: int) -> None:
    # rho diagonal in sigma's descending eigenbasis with diagonal r:
    # p(lam, mu) = dimV * K_lam,mu * prod r_i^mu_i, and the Kostka numbers of
    # each lam expand the Schur polynomial, here checked against the
    # bialternant at a fixed spectrum spaced far enough to divide safely
    for d, n in ((2, 6), (3, 4)):
        _, sigma = _pair(d, seed)
        basis = sigma_spectrum(sigma).basis
        r = np.random.default_rng(seed + d).dirichlet(np.ones(d))
        dist = distribution(DensityMatrix((basis * r) @ basis.conj().T), sigma, n)
        spread = np.arange(1, d + 1) / d
        schur: dict = {}
        for young, weight, p, m in zip(dist.youngs, dist.weights, dist.p, dist.mult):
            expected = sn_dim(young)[0] * int(m) * math.prod(r**np.array(weight))
            _check(abs(p - expected) <= 1e-12, f"atom ({young}, {weight}) off the closed form")
            schur[young] = schur.get(young, 0.0) + int(m) * math.prod(spread**np.array(weight))
        powers = np.arange(d)
        vandermonde = np.linalg.det(spread[:, None] ** powers)
        for young, value in schur.items():
            expected = np.linalg.det(spread[:, None] ** (np.array(young) + powers)) / vandermonde
            _check(
                abs(value - expected) <= 1e-12 * expected,
                f"Kostka numbers of {young} off the bialternant",
            )


def _family_normalization(seed: int) -> None:
    for d, n in _SMALL_GRID:
        dist = _dist(d, n, seed)
        _check(abs(dist.total_probability() - 1) <= 1e-9, f"p does not sum to 1 (d={d}, n={n})")
        _check(
            abs(dist.total_unit_probability() - 1) <= 1e-9,
            f"multiplicity * q_unit does not sum to 1 (d={d}, n={n})",
        )


def _family_distribution_covariance(seed: int) -> None:
    d, n = 2, 4
    rho, sigma = _pair(d, seed)
    u = haar_unitary(d, np.random.default_rng(seed + 23))
    base = distribution(rho, sigma, n)
    moved = distribution(
        DensityMatrix(u @ rho.mat @ u.conj().T),
        DensityMatrix(u @ sigma.mat @ u.conj().T),
        n,
    )
    table = {(y, w): p for y, w, p in zip(base.youngs, base.weights, base.p)}
    for young, weight, p in zip(moved.youngs, moved.weights, moved.p):
        _check(
            abs(table[(young, weight)] - p) <= 1e-9,
            f"atom ({young}, {weight}) moved under joint conjugation",
        )


def _family_multiplicity_tiling(seed: int) -> None:
    for d, n in ((2, 4), (3, 3)):
        dist = _dist(d, n, seed)
        per_young: dict = {}
        for young, m in zip(dist.youngs, dist.mult):
            per_young[young] = per_young.get(young, 0) + int(m)
        for young, total in per_young.items():
            _check(total == weyl_dim(young), f"multiplicities of {young} do not tile the block")


# ------------------------------------------------------------------ estimator


def _family_mean_bias_window(seed: int) -> None:
    for d, n in ((2, 4), (2, 8), (3, 3)):
        rho, sigma = _pair(d, seed + 31)
        bias = distribution(rho, sigma, n).mean_x() - relative_entropy(rho, sigma)
        cap = (d + 1) * (d - 1) * math.log(n + 1) / n
        _check(-1e-9 <= bias <= cap + 1e-9, f"mean bias {bias:.3e} outside [0, {cap:.3e}]")


def _family_gap_window(seed: int) -> None:
    for d, n in _SMALL_GRID:
        dist = _dist(d, n, seed)
        gap = dist.x - dist.x_star
        _check(float(gap.min()) >= -1e-12, f"negative approximation gap at d={d}, n={n}")
        excess = float((gap - dist.gap_bound).max())
        _check(excess <= 1e-12, f"approximation gap exceeds its bound at d={d}, n={n}")


def _family_mse_bound(seed: int) -> None:
    for d, n in ((2, 5), (3, 4)):
        rho, sigma = _pair(d, seed + 41)
        report = estimate_report(rho, sigma, n)
        _check(
            report.mse <= report.mse_bound + 1e-9,
            f"MSE {report.mse!r} exceeds bound {report.mse_bound!r} at d={d}, n={n}",
        )


def _family_monte_carlo(seed: int) -> None:
    d, n, m = 2, 6, 100_000
    rho, sigma = _pair(d, seed + 43)
    dist = distribution(rho, sigma, n)
    values, inverse = np.unique(dist.x, return_inverse=True)
    masses = np.bincount(inverse, weights=dist.p, minlength=len(values))
    cdf = np.cumsum(masses)
    draws = np.sort(sample_outcomes(dist, m, seed=seed)[:, 0])
    right = np.searchsorted(draws, values, side="right") / m
    left = np.searchsorted(draws, values, side="left") / m
    ks = float(max(np.max(np.abs(right - cdf)), np.max(np.abs(left - (cdf - masses)))))
    _check(ks < 1.63 / math.sqrt(m), f"Monte Carlo KS {ks:.4f} too large for m={m}")


# --------------------------------------------------------------------- bounds


def _family_bound_dominance(seed: int) -> None:
    for d in (2, 3, 4):
        for n in range(1, 31):
            dim = total_schur_dim(n, d).total
            for varentropy in (0.0, 0.7, 2.0):
                exact = mse_bound(n, varentropy, dim)
                counting = mse_bound_counting(n, d, varentropy)
                _check(
                    exact <= counting + 1e-12,
                    f"exact-dimension bound exceeds counting bound at n={n}, d={d}",
                )


def _family_tail_dominance(seed: int) -> None:
    for s in (seed, seed + 1):
        rho, sigma = _pair(2, s + 47)
        for n in (4, 8):
            for eps in (0.5, 1.5):
                report = tail_report(rho, sigma, n, eps)
                _check(
                    report.delta_plus <= report.bound_plus + 1e-12,
                    f"upper tail exceeds its bound at n={n}, eps={eps}",
                )
                _check(
                    report.delta_minus <= report.bound_minus + 1e-12,
                    f"lower tail exceeds its bound at n={n}, eps={eps}",
                )


def _family_complexity_bound(seed: int) -> None:
    for c in (0.1, 1.0, 10.0, 100.0):
        for c0 in (0.0, 1.0, 10.0):
            report = sample_complexity_bound(c, c0, 0.5)
            _check(
                report.exact <= report.simple + 1e-12,
                f"exact complexity bound exceeds the simple one at c={c}, c0={c0}",
            )


# ------------------------------------------------------------------------ CLI


def _family_byte_identical_rerun(seed: int) -> None:
    from .cli import main

    with tempfile.TemporaryDirectory() as tmp:
        rho_path = os.path.join(tmp, "rho.json")
        sigma_path = os.path.join(tmp, "sigma.json")
        _check(
            main(["gen-state", "random_mixed", "--d", "2", "--seed", str(seed), "--out", rho_path]) == 0,
            "gen-state failed",
        )
        _check(
            main(["gen-state", "diagonal", "--spectrum", "0.7,0.3", "--out", sigma_path]) == 0,
            "gen-state (diagonal) failed",
        )
        # the two commands alternate, so each rerun rebuilds its outcome table
        # (distribution keeps only the last one) as a fresh process would
        outputs, csvs = [], []
        for run in (1, 2):
            out = os.path.join(tmp, f"report{run}.json")
            code = main(
                ["estimate", "--rho", rho_path, "--sigma", sigma_path, "--n", "4", "--out", out]
            )
            _check(code == 0, f"estimate run {run} exited {code}")
            with open(out, "rb") as fh:
                outputs.append(fh.read())
            out = os.path.join(tmp, f"table{run}.csv")
            code = main(
                ["distribution", "--rho", rho_path, "--sigma", sigma_path, "--n", "3", "--out", out]
            )
            _check(code == 0, f"distribution run {run} exited {code}")
            with open(out, "rb") as fh:
                csvs.append(fh.read())
        _check(outputs[0] == outputs[1], "estimate reruns differ byte-wise")
        _check(csvs[0] == csvs[1], "distribution reruns differ byte-wise")
        payload = json.loads(outputs[0].decode())
        _check(payload["n"] == 4 and payload["d"] == 2, "estimate report keys broken")


FAMILIES = [
    ("block dimension identity", _family_dimension_identity),
    ("block counting bounds", _family_counting_bounds),
    ("unitary-dimension log bound", _family_weyl_log_bound),
    ("type-entropy sandwich", _family_type_entropy_sandwich),
    ("divergence positivity", _family_divergence_positivity),
    ("fisher inner product equals varentropy", _family_fisher_inner),
    ("renyi curve monotone and continuous at 1", _family_renyi_curve),
    ("divergence unitary invariance", _family_unitary_invariance),
    ("commuting-pair closed form", _family_commuting_closed_form),
    ("outcome normalization", _family_normalization),
    ("distribution unitary covariance", _family_distribution_covariance),
    ("weight multiplicities tile blocks", _family_multiplicity_tiling),
    ("mean bias window", _family_mean_bias_window),
    ("approximation gap window", _family_gap_window),
    ("MSE bound", _family_mse_bound),
    ("Monte Carlo consistency", _family_monte_carlo),
    ("exact-dimension bound dominates counting bound", _family_bound_dominance),
    ("tail bounds dominate exact tails", _family_tail_dominance),
    ("complexity bound exact below simple", _family_complexity_bound),
    ("byte-identical reruns", _family_byte_identical_rerun),
]


def run_verification(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every family; returns (name, passed, detail) triples in order."""
    results = []
    for name, family in FAMILIES:
        try:
            family(seed)
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # an unexpected crash is also a failure
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
