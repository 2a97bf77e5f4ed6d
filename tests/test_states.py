"""Tests for state validation, divergences, and the local-estimation checks."""

import math
from functools import partial

import numpy as np
import pytest
from oracles import (
    cramer_rao_check,
    reference_law_varentropy,
    reference_sandwiched_renyi,
    reference_varentropy,
    spectrum_matrix,
    varentropy_growth_check,
)

from schurest.distribution import distribution
from schurest.estimator import estimate_report, tail_report
from schurest.scaling import geometric_spectrum
from schurest.states import (
    MAX_DIM,
    DensityMatrix,
    InputError,
    diagonal_state,
    haar_unitary,
    load_state,
    random_mixed,
    random_pure_depolarized,
    relative_entropy,
    relative_varentropy,
    renyi_curve,
    sandwiched_renyi,
    save_state,
    sigma_spectrum,
    sld_quantities,
    validate_state,
)


def classical_relent(p, s):
    return sum(pi * math.log(pi / si) for pi, si in zip(p, s) if pi > 0)


def classical_varent(p, s):
    d = classical_relent(p, s)
    return sum(pi * (math.log(pi / si) - d) ** 2 for pi, si in zip(p, s) if pi > 0)


def random_pair(d, seed, floor=0.05):
    rho = random_mixed(d, seed, floor=floor)
    sigma = random_mixed(d, seed + 1000, floor=floor)
    return rho, sigma


# ----------------------------------------------------------- validate_state


def test_validate_accepts_maximally_mixed():
    st = validate_state(np.eye(3) / 3)
    assert np.allclose(st.mat, np.eye(3) / 3)


def test_validate_repairs_small_defects():
    base = np.diag([0.6, 0.4]).astype(complex)
    base[0, 1] = 1e-9 * 1j  # tiny non-hermitian part
    st = validate_state(base * (1 + 1e-12))
    assert abs(np.trace(st.mat).real - 1.0) < 1e-14
    assert np.linalg.eigvalsh(st.mat)[0] >= -1e-15


def test_validate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_state(np.diag([1.01, -0.01]))  # negative eigenvalue too large
    with pytest.raises(ValueError):
        validate_state(np.diag([0.7, 0.7]))  # trace too far from 1
    with pytest.raises(ValueError):
        validate_state(np.zeros((2, 3)))


def test_sigma_spectrum_orders_and_rejects_rank_deficiency():
    spec = sigma_spectrum(diagonal_state([0.1, 0.6, 0.3]))
    assert np.all(np.diff(spec.values) <= 0)
    assert np.allclose(spectrum_matrix(spec), np.diag([0.1, 0.6, 0.3]))
    with pytest.raises(ValueError):
        sigma_spectrum(diagonal_state([1.0, 0.0]))


def test_sigma_spectrum_rejects_non_unit_trace():
    # DensityMatrix itself does not validate, so the check must be a real
    # error rather than an assert that python -O strips
    with pytest.raises(ValueError, match="unit trace"):
        sigma_spectrum(DensityMatrix(np.eye(2)))


# -------------------------------------------------------- relative entropy


def test_relative_entropy_trivial_and_classical():
    rho = diagonal_state([0.5, 0.5])
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert relative_entropy(diagonal_state([1.0, 0.0]), diagonal_state([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-12
    )
    p, s = (0.8, 0.15, 0.05), (0.3, 0.5, 0.2)
    got = relative_entropy(diagonal_state(p), diagonal_state(s))
    assert got == pytest.approx(classical_relent(p, s), abs=1e-12)


def test_relative_entropy_plus_state():
    plus = validate_state(np.full((2, 2), 0.5))
    sigma = diagonal_state([0.5, 0.5])
    d_value = relative_entropy(plus, sigma)
    assert d_value == pytest.approx(math.log(2), abs=1e-12)
    # -2 log fidelity lower-bounds the divergence; fidelity of a pure state
    # with sigma is <plus|sigma|plus> under the square root
    fid = math.sqrt(0.5)
    assert -2 * math.log(fid) <= d_value + 1e-12


def test_relative_entropy_support_violation():
    # relative_entropy is the one support rule: every functional and report
    # that needs a finite D refuses the pair through it
    rho = diagonal_state([1.0, 0.0])
    sigma_bad = diagonal_state([0.0, 1.0])
    message = r"^relative entropy is infinite \(support violation\)$"
    for refused in (relative_entropy, relative_varentropy, partial(estimate_report, n=3),
                    partial(tail_report, n=3, epsilon=0.3)):
        with pytest.raises(InputError, match=message):
            refused(rho, sigma_bad)
    sigma_ok = diagonal_state([1.0, 0.0])
    assert relative_entropy(rho, sigma_ok) == pytest.approx(0.0, abs=1e-12)
    # a singular reference is refused by the reference rule
    with pytest.raises(InputError, match="reference state must be full rank"):
        sigma_spectrum(sigma_ok)


@pytest.mark.parametrize("build", [
    lambda d: validate_state(np.zeros((d, d))),
    lambda d: diagonal_state(np.full(d, 1 / d)),
    lambda d: random_mixed(d, 0),
    lambda d: random_pure_depolarized(d, 0, 0.5),
], ids=["validate_state", "diagonal_state", "random_mixed", "random_pure_depolarized"])
def test_state_dimension_cap(build):
    with pytest.raises(InputError, match=f"^state dimension {MAX_DIM + 1} is above the limit"):
        build(MAX_DIM + 1)


def test_relative_entropy_nonnegative_random():
    for seed in range(102):
        d = 2 + seed % 3
        rho, sigma = random_pair(d, seed)
        val = relative_entropy(rho, sigma)
        assert val >= -1e-12
        assert val > 1e-8  # the two states of a pair differ
    for d in (2, 3, 4):
        rho, _ = random_pair(d, 999)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_unitary_invariance_of_divergences():
    rng = np.random.default_rng(7)
    for d in (3, 2):
        rho, sigma = random_pair(d, 5)
        u = haar_unitary(d, rng)
        rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
        sigma_u = DensityMatrix(u @ sigma.mat @ u.conj().T)
        assert relative_entropy(rho_u, sigma_u) == pytest.approx(
            relative_entropy(rho, sigma), abs=1e-10
        )
        assert relative_varentropy(rho_u, sigma_u) == pytest.approx(
            relative_varentropy(rho, sigma), abs=1e-10
        )
        assert sandwiched_renyi(rho_u, sigma_u, 1.7) == pytest.approx(
            sandwiched_renyi(rho, sigma, 1.7), abs=1e-10
        )


# ------------------------------------------------------------- varentropy


def test_varentropy_classical_and_degenerate():
    p, s = (0.9, 0.1), (0.4, 0.6)
    got = relative_varentropy(diagonal_state(p), diagonal_state(s))
    assert got == pytest.approx(classical_varent(p, s), abs=1e-12)
    rho = random_mixed(3, 3, floor=0.1)
    assert relative_varentropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_varentropy_moment_expansion_agrees():
    # operator-square route vs matrix-moment route
    for seed in range(10):
        rho, sigma = random_pair(2 + seed % 2, seed)
        log_rho = _matrix_log(rho.mat)
        log_sigma = _matrix_log(sigma.mat)
        delta = log_rho - log_sigma
        d_value = float(np.real(np.trace(rho.mat @ delta)))
        v_moment = float(np.real(np.trace(rho.mat @ delta @ delta))) - d_value**2
        assert relative_varentropy(rho, sigma) == pytest.approx(v_moment, abs=1e-10)


def _matrix_log(mat):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.log(vals)) @ vecs.conj().T


def _mixture(sigma, tau, t):
    return validate_state((1 - t) * sigma.mat + t * tau.mat)


def test_varentropy_matches_high_precision_reference():
    # rho -> sigma is the local regime of the Cramer-Rao claim: V ~ t^2 there,
    # while the terms of the raw second moment stay O(1) and cancel
    for d in (2, 3, 4):
        for seed in range(3):
            sigma = random_mixed(d, seed, floor=0.05)
            tau = random_mixed(d, seed + 100, floor=0.05)
            for t in (1e-2, 1e-4, 1e-6, 1e-8):
                rho = _mixture(sigma, tau, t)
                reference = reference_varentropy(rho, sigma)
                assert relative_varentropy(rho, sigma) == pytest.approx(reference, rel=1e-6, abs=0)
    # nearly flat spectra against I/d: every log-ratio is small
    for q in (0.99, 0.999, 0.9999):
        for d in (2, 3, 4, 8):
            rho = diagonal_state(geometric_spectrum(d, q))
            sigma = diagonal_state(np.full(d, 1 / d))
            reference = reference_varentropy(rho, sigma)
            assert relative_varentropy(rho, sigma) == pytest.approx(reference, rel=1e-6, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_varentropy_of_a_state_against_itself_is_zero(d):
    for seed in range(20):
        sigma = random_mixed(d, seed, floor=0.05)
        assert relative_varentropy(sigma, sigma) == 0.0
        assert estimate_report(sigma, sigma, 4).ks is None
    # the rounding floor leaves a nearby pair's V of about 1e-20 standing
    for seed in range(3):
        sigma = random_mixed(d, seed, floor=0.05)
        rho = _mixture(sigma, random_mixed(d, seed + 100, floor=0.05), 1e-10)
        reference = reference_varentropy(rho, sigma)
        assert relative_varentropy(rho, sigma) == pytest.approx(reference, rel=1e-4, abs=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_varentropy_takes_a_pure_state_as_pure(d):
    # the rounding-noise eigenvalues of a stored pure state (2.2e-16 for
    # seed 15 at d = 2) once sat in the law at log r = -36 and moved V by
    # 3.8e-10 relative; they are exact zeros here, as in the Renyi kernel
    for seed in (15, 3, 8):
        rho = random_pure_depolarized(d, seed, 0.0)
        sigma = random_mixed(d, seed + 7, floor=0.05)
        reference = reference_law_varentropy(rho, sigma)
        assert relative_varentropy(rho, sigma) == pytest.approx(reference, rel=1e-12, abs=0)


def test_pair_rule_refuses_different_dimensions():
    rho, sigma = random_mixed(2, 1), random_mixed(3, 1)
    message = r"^rho and sigma have different dimensions$"
    for refused in (relative_entropy, relative_varentropy, sld_quantities,
                    partial(sandwiched_renyi, alpha=1.5), renyi_curve,
                    partial(distribution, n=3), partial(estimate_report, n=3),
                    partial(tail_report, n=3, epsilon=0.3)):
        with pytest.raises(InputError, match=message):
            refused(rho, sigma)


# -------------------------------------------------------- sandwiched Renyi


def test_renyi_trivial_and_classical():
    rho = random_mixed(3, 11, floor=0.1)
    assert sandwiched_renyi(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-10)
    assert sandwiched_renyi(
        diagonal_state([1.0, 0.0]), diagonal_state([0.5, 0.5]), 0.5
    ) == pytest.approx(math.log(2), abs=1e-10)
    p, s = (0.7, 0.2, 0.1), (0.2, 0.3, 0.5)
    for alpha in (0.3, 0.6, 1.5, 2.5):
        classical = math.log(
            sum(pi**alpha * si ** (1 - alpha) for pi, si in zip(p, s))
        ) / (alpha - 1)
        got = sandwiched_renyi(diagonal_state(p), diagonal_state(s), alpha)
        assert got == pytest.approx(classical, abs=1e-10)


def test_renyi_monotone_and_continuous_at_one():
    for d in (2, 3):
        for seed in range(8):
            rho, sigma = random_pair(d, seed)
            d_value = relative_entropy(rho, sigma)
            grid = [0.3, 0.5, 0.8, 0.999, 1.001, 1.2, 2.0]
            values = renyi_curve(rho, sigma)(np.array(grid)).tolist()
            assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))
            assert abs(values[grid.index(0.999)] - d_value) < 5e-3 * (1 + abs(d_value))
            assert abs(values[grid.index(1.001)] - d_value) < 5e-3 * (1 + abs(d_value))


def test_renyi_rejects_bad_alpha():
    rho, sigma = random_pair(2, 0)
    with pytest.raises(ValueError):
        sandwiched_renyi(rho, sigma, 1.0)
    with pytest.raises(ValueError):
        sandwiched_renyi(rho, sigma, -0.5)


# the orders the two tail bounds scan, formed as bounds.py forms them
BELOW_ORDERS = [1 - i / 100 for i in range(1, 100)]
ABOVE_ORDERS = [1 + (i / 256) / (1 - i / 256) for i in range(1, 256)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_renyi_curve_batch_matches_single_orders(d):
    for seed in range(3):
        rho, sigma = random_pair(d, seed)
        orders = np.array(BELOW_ORDERS + ABOVE_ORDERS)
        batched = renyi_curve(rho, sigma)(orders)
        single = np.array([sandwiched_renyi(rho, sigma, a) for a in orders])
        assert np.array_equal(np.isnan(batched), np.isnan(single))
        both = ~np.isnan(single)
        assert both.sum() > 300
        assert np.allclose(batched[both], single[both], rtol=1e-13, atol=1e-15)


def test_renyi_curve_masks_the_zeros_of_a_pure_state():
    # the core sigma^t |psi><psi| sigma^t has rank one: D_alpha is
    # alpha/(alpha-1) log <psi|sigma^((1-alpha)/alpha)|psi>, at every order
    rho, sigma = random_pure_depolarized(3, 4, 0.0), random_mixed(3, 5, floor=0.05)
    orders = np.array(BELOW_ORDERS + ABOVE_ORDERS)
    batched = renyi_curve(rho, sigma)(orders)
    single = np.array([sandwiched_renyi(rho, sigma, a) for a in orders])
    s, sv = np.linalg.eigh(sigma.mat)
    psi = np.linalg.eigh(rho.mat)[1][:, -1]
    weights = np.abs(sv.conj().T @ psi) ** 2
    exact = np.array([a / (a - 1) * math.log(weights @ s ** ((1 - a) / a)) for a in orders])
    assert not np.isnan(batched).any()
    assert np.allclose(batched, single, rtol=1e-13, atol=0)
    assert np.allclose(batched, exact, rtol=1e-12, atol=0)


def test_renyi_curve_checks_once_and_per_order():
    rho, sigma = random_pair(2, 0)
    with pytest.raises(ValueError):
        renyi_curve(rho, diagonal_state([1.0, 0.0]))
    with pytest.raises(ValueError):
        renyi_curve(random_mixed(3, 1), sigma)
    curve = renyi_curve(rho, sigma)
    for bad in (0.0, -0.5, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            curve(np.array([bad]))
    with pytest.raises(ValueError):
        curve(np.array([0.5, 1.0]))
    # the curve maps a 1-D array of orders and nothing else
    for shape_error in (0.5, np.array([[0.5, 2.0]])):
        with pytest.raises(ValueError, match="1-D array"):
            curve(shape_error)
    assert curve(np.array([0.5, 2.0]))[0] == sandwiched_renyi(rho, sigma, 0.5)


# The qubit pair on which the tail bound once chose a lost order: at
# alpha = 0.01, sigma^49.5 puts the core's small eigenvalue 18 decades under
# the large one, below eigvalsh's absolute error, and the old value 0.5075
# stood for 2.137e-4.
SMALL_ORDER_PAIR = ((2, 7, 0.05), (2, 507, 0.05))


@pytest.mark.parametrize("rho_args,sigma_args", [
    SMALL_ORDER_PAIR,
    ((3, 11, 0.0), (3, 12, 0.0)),  # fixed 60 and 80 digit references disagree here
    ((4, 3, 0.05), (4, 1003, 0.05)),
])
def test_renyi_grid_orders_match_high_precision_reference(rho_args, sigma_args):
    rho, sigma = random_mixed(*rho_args[:2], floor=rho_args[2]), random_mixed(
        *sigma_args[:2], floor=sigma_args[2])
    orders = BELOW_ORDERS + ABOVE_ORDERS[::16]
    values = renyi_curve(rho, sigma)(np.array(orders))
    certified = 0
    for alpha, value in zip(orders, values):
        if math.isnan(value):
            continue  # uncertified: the bounds leave this order out
        certified += 1
        assert abs(value - reference_sandwiched_renyi(rho, sigma, alpha)) <= 1e-9, alpha
    assert certified >= len(orders) * 3 // 4


def test_small_order_pair_is_left_out_not_misreported():
    rho, sigma = random_mixed(*SMALL_ORDER_PAIR[0][:2], floor=0.05), random_mixed(
        *SMALL_ORDER_PAIR[1][:2], floor=0.05)
    assert math.isnan(sandwiched_renyi(rho, sigma, 0.01))
    assert math.isnan(sandwiched_renyi(rho, sigma, 0.02))
    assert math.isnan(sandwiched_renyi(rho, sigma, 1e-6))  # sigma^t underflows to zero
    assert sandwiched_renyi(rho, sigma, 0.2) == pytest.approx(
        reference_sandwiched_renyi(rho, sigma, 0.2), abs=1e-12)


# --------------------------------------------------- SLD and finite differences


def test_sld_identities():
    for seed in range(12):
        d = 2 + seed % 2
        rho, sigma = random_pair(d, seed, floor=0.1)
        sld = sld_quantities(rho, sigma)
        v_value = relative_varentropy(rho, sigma)
        assert sld.inner == pytest.approx(v_value, abs=1e-10)
        assert np.trace(rho.mat @ sld.operator).real == pytest.approx(0.0, abs=1e-10)
        assert np.trace(sld.dual_direction).real == pytest.approx(0.0, abs=1e-10)
        assert np.trace(sld.dual_direction @ sld.operator).real == pytest.approx(
            1.0, abs=1e-9
        )


def test_sld_refuses_a_singular_state():
    with pytest.raises(InputError, match="^operator log requires full rank here$"):
        sld_quantities(diagonal_state([1.0, 0.0]), diagonal_state([0.5, 0.5]))


def test_sld_trivial_pair():
    rho = diagonal_state([0.6, 0.4])
    sld = sld_quantities(rho, rho)
    assert np.allclose(sld.operator, 0.0, atol=1e-12)
    assert sld.inner == pytest.approx(0.0, abs=1e-12)


def test_cramer_rao_commuting_pair():
    rho = diagonal_state([0.7, 0.3])
    sigma = diagonal_state([0.4, 0.6])
    report = cramer_rao_check(rho, sigma, step=1e-4)
    assert report.aligned_derivative == pytest.approx(1.0, abs=1e-5)
    assert np.all(np.abs(report.orthogonal_derivatives) < 1e-5)


def test_cramer_rao_random_pairs():
    for seed in range(6):
        d = 2 + seed % 2
        rho, sigma = random_pair(d, seed, floor=0.15)
        report = cramer_rao_check(rho, sigma, step=1e-4)
        assert report.basis_size == d * d - 2
        assert report.aligned_derivative == pytest.approx(1.0, abs=1e-5)
        assert np.all(np.abs(report.orthogonal_derivatives) < 1e-5)


def test_cramer_rao_richardson_trend():
    rho = diagonal_state([0.75, 0.25])
    sigma = diagonal_state([0.35, 0.65])
    report = cramer_rao_check(rho, sigma, step=2e-3)
    ratios = report.richardson_ratios
    measurable = ratios[np.isfinite(ratios)]
    # central differences have quadratic truncation error: halving the step
    # shrinks a measurable defect by roughly 4
    assert measurable.size >= 1
    assert np.all((measurable > 2.0) & (measurable < 8.0))


# --------------------------------------------------- varentropy growth check


def test_varentropy_growth_check_uniform_reference():
    d = 3
    t = math.log(d) / d
    rho = random_mixed(d, 2)
    lhs, rhs = varentropy_growth_check(rho, diagonal_state([1 / d] * d), t)
    assert rhs == pytest.approx(2 * math.log(d))
    assert lhs <= rhs


def test_varentropy_growth_check_floor_violation():
    with pytest.raises(ValueError):
        varentropy_growth_check(
            diagonal_state([0.5, 0.5]), diagonal_state([0.999, 0.001]), t=1.0
        )


def test_varentropy_growth_check_skewed_reference():
    d = 3
    sigma = diagonal_state([0.9, 0.05, 0.05])
    t = -math.log(0.05) / d
    for seed in range(5):
        rho = random_mixed(d, seed)
        lhs, rhs = varentropy_growth_check(rho, sigma, t)
        assert lhs <= rhs


# ------------------------------------------------------------------- I/O


def test_state_io_roundtrip(tmp_path):
    rho = random_mixed(3, 42)
    path = tmp_path / "rho.json"
    save_state(path, rho)
    again = load_state(path)
    assert np.allclose(rho.mat, again.mat, atol=1e-15)
    save_state(path, rho)
    first = path.read_bytes()
    save_state(path, rho)
    assert path.read_bytes() == first  # byte-identical rewrite


def test_state_io_spectrum_format(tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text('{"spectrum": [0.5, 0.5]}\n')
    st = load_state(path)
    assert np.allclose(st.mat, np.eye(2) / 2)


# ------------------------------------------------------------- generators


def test_generators_reproducible_and_valid():
    a = random_mixed(3, 9)
    b = random_mixed(3, 9)
    assert np.array_equal(a.mat, b.mat)
    c = random_pure_depolarized(4, 1, 0.3)
    vals = np.linalg.eigvalsh(c.mat)
    assert vals.min() >= 0.3 / 4 - 1e-12
    assert abs(vals.sum() - 1) < 1e-12
    top = vals.max()
    assert top == pytest.approx(0.7 + 0.3 / 4, abs=1e-12)
    d2 = random_mixed(2, 5, spectrum=[0.9, 0.1])
    assert np.allclose(np.sort(np.linalg.eigvalsh(d2.mat)), [0.1, 0.9], atol=1e-12)


def test_random_mixed_refuses_a_spectrum_whose_sum_overflows():
    with pytest.raises(InputError, match="^spectrum sum overflows a double$"):
        random_mixed(2, 0, spectrum=[1e308, 1e308])
