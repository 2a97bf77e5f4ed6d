"""Distribution engine tests.

Oracles kept independent of the engine under test (most in oracles.py):
- hand-worked small cases,
- an angular-momentum coupling recursion for commuting qubit pairs,
- Schur polynomial evaluations for block marginals,
- dense projector algebra on the full n-copy space,
- basis-string sums weighted by characters (brute_distribution), checked
  in turn against a full permutation-group average (brute only ever
  touches one representative per class),
- the exact identity tying the estimate's mean to the relative entropy,
- a 50-digit Jacobi-Trudi expansion in coefficient space (mpmath, no FFT),
- 50-digit cofactor expansions of the engine's own Jacobi-Trudi blocks.
"""

import dataclasses
import math
import time
import warnings
from fractions import Fraction
from itertools import combinations, permutations

import mpmath
import numpy as np
import pytest

from oracles import (
    block_projectors,
    block_spectrum,
    brute_distribution,
    kostka,
    kron_power,
    lam_marginal,
    pinching_defect,
    reference_lam_marginal,
    renyi_trace_check,
    schur_eval,
    schur_projector,
    string_digits,
    torus_schur_coefficients,
    type_mask,
)
from schurest.distribution import JT_MAX_N, JT_MAX_WORK, _work, check_size, distribution
from schurest.partitions import (
    compositions,
    enumerate_young,
    sn_dim,
    total_schur_dim,
    weyl_dim,
)
from schurest.states import (
    DensityMatrix,
    InputError,
    diagonal_state,
    random_mixed,
    random_pure_depolarized,
    relative_entropy,
    sigma_spectrum,
)


def random_pair(d, seed, floor=0.05):
    return random_mixed(d, seed=seed, floor=floor), random_mixed(d, seed=seed + 1000, floor=floor)


def atoms_dict(dist):
    return {(young, weight): p for young, weight, p in zip(dist.youngs, dist.weights, dist.p)}


# ------------------------------------------------------------ hand examples


def test_uniform_qubit_two_copies():
    rho = DensityMatrix(np.eye(2) / 2)
    dist = brute_distribution(rho, rho, 2)
    table = atoms_dict(dist)
    assert set(table) == {
        ((0, 2), (2, 0)),
        ((0, 2), (1, 1)),
        ((0, 2), (0, 2)),
        ((1, 1), (1, 1)),
    }
    for value in table.values():
        assert value == pytest.approx(0.25, abs=1e-14)
    assert np.exp(dist.log_q) == pytest.approx(np.full(len(dist), 0.25), abs=1e-14)
    assert dist.mult.tolist() == [1] * len(dist)


def test_commuting_qubit_two_copies():
    r0 = 0.3
    rho = diagonal_state([r0, 1 - r0])
    sigma = diagonal_state([0.7, 0.3])
    table = atoms_dict(brute_distribution(rho, sigma, 2))
    assert table[((0, 2), (2, 0))] == pytest.approx(r0**2, abs=1e-14)
    assert table[((0, 2), (0, 2))] == pytest.approx((1 - r0) ** 2, abs=1e-14)
    assert table[((0, 2), (1, 1))] == pytest.approx(r0 * (1 - r0), abs=1e-14)
    assert table[((1, 1), (1, 1))] == pytest.approx(r0 * (1 - r0), abs=1e-14)


def test_single_copy_reduces_to_diagonal():
    rho, sigma = random_pair(3, seed=21)
    spec = sigma_spectrum(sigma)
    rt = spec.basis.conj().T @ rho.mat @ spec.basis
    dist = brute_distribution(rho, sigma, 1)
    assert dist.youngs == tuple([(0, 0, 1)] * 3)
    for weight, p in zip(dist.weights, dist.p):
        letter = weight.index(1)
        assert p == pytest.approx(rt[letter, letter].real, abs=1e-14)


def test_atom_ordering_and_fields():
    rho, sigma = random_pair(2, seed=31)
    dist = brute_distribution(rho, sigma, 4)
    pairs = list(zip(dist.youngs, dist.weights))
    assert pairs == sorted(pairs)
    columns = (dist.youngs, dist.weights, dist.p, dist.log_q, dist.mult, dist.x, dist.x_star)
    assert {len(column) for column in columns} == {len(dist)}
    assert all(len(young) == len(weight) == 2 for young, weight in pairs)
    assert all(m >= 1 for m in dist.mult)


# ------------------------------------------------- coupling-walk oracle


def coupling_walk(probs, n):
    """(Young index, weight) masses for a commuting qubit pair, via sequential
    angular-momentum coupling of one letter at a time."""
    up, down = probs
    state = {(0.5, 0.5): up, (0.5, -0.5): down}
    for _ in range(n - 1):
        nxt = {}
        for (j, m), mass in state.items():
            for letter_mass, dm in ((up, 0.5), (down, -0.5)):
                if letter_mass == 0:
                    continue
                if dm > 0:
                    w_plus = (j + m + 1) / (2 * j + 1)
                else:
                    w_plus = (j - m + 1) / (2 * j + 1)
                for jn, w in ((j + 0.5, w_plus), (j - 0.5, 1 - w_plus)):
                    if jn < abs(m + dm) - 1e-9 or w <= 0:
                        continue
                    key = (jn, m + dm)
                    nxt[key] = nxt.get(key, 0.0) + mass * letter_mass * w
        state = nxt
    out = {}
    for (j, m), mass in state.items():
        young = (round(n / 2 - j), round(n / 2 + j))
        weight = (round(n / 2 + m), round(n / 2 - m))
        out[(young, weight)] = out.get((young, weight), 0.0) + mass
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_coupling_walk_matches_brute(n):
    rho = diagonal_state([0.62, 0.38])
    sigma = diagonal_state([0.85, 0.15])
    walk = coupling_walk([0.62, 0.38], n)
    table = atoms_dict(brute_distribution(rho, sigma, n))
    assert set(walk) == {k for k, v in table.items()}
    for key, mass in walk.items():
        assert table[key] == pytest.approx(mass, abs=1e-12)


@pytest.mark.parametrize("n", [10, 12])
def test_coupling_walk_matches_jacobi_trudi(n):
    rho = diagonal_state([0.9, 0.1])
    sigma = diagonal_state([0.55, 0.45])
    walk = coupling_walk([0.9, 0.1], n)
    table = atoms_dict(distribution(rho, sigma, n))
    for key, mass in walk.items():
        assert table[key] == pytest.approx(mass, abs=1e-12)


# ------------------------------------------------------ structural oracles


@pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (4, 3)])
def test_normalization_and_unit_mass(d, n):
    rho, sigma = random_pair(d, seed=100 * d + n)
    dist = distribution(rho, sigma, n)
    assert dist.total_probability() == pytest.approx(1.0, abs=1e-11)
    assert dist.total_unit_probability() == pytest.approx(1.0, abs=1e-11)
    assert dist.max_imag < 1e-10
    assert (dist.p >= 0).all()


@pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
def test_self_distribution_equals_unit_mass(d, n):
    # with rho = sigma every atom mass is multiplicity * unit weight
    sigma = random_mixed(d, seed=50 + d, floor=0.1)
    dist = distribution(sigma, sigma, n)
    predicted = dist.mult * np.exp(dist.log_q)
    np.testing.assert_allclose(dist.p, predicted, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 3), (3, 5), (4, 3)])
def test_block_marginal_is_schur_polynomial(d, n):
    rho, sigma = random_pair(d, seed=7 * d + n)
    dist = distribution(rho, sigma, n)
    marginal = lam_marginal(dist)
    rho_spec = np.linalg.eigvalsh(rho.mat).real
    for young in enumerate_young(n, d):
        v_dim, _ = sn_dim(young)
        expected = v_dim * schur_eval(young, rho_spec.tolist())
        assert marginal[young] == pytest.approx(expected, abs=1e-11)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (4, 2)])
def test_maximally_mixed_state_closed_form(d, n):
    rho = DensityMatrix(np.eye(d) / d)
    sigma = random_mixed(d, seed=17 + d)
    dist = distribution(rho, sigma, n)
    for young, mult, p in zip(dist.youngs, dist.mult, dist.p):
        v_dim, _ = sn_dim(young)
        assert p == pytest.approx(mult * v_dim / d**n, abs=1e-13)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4)])
def test_mean_identity(d, n):
    # exact relation: E[-log q_unit / n] = D(rho||sigma) + S(rho) - E[log v]/n
    rho, sigma = random_pair(d, seed=200 + 10 * d + n)
    dist = distribution(rho, sigma, n)
    mean_x = math.fsum(
        (-lq / n) * p for lq, p in zip(dist.log_q, dist.p)
    )
    rho_spec = np.clip(np.linalg.eigvalsh(rho.mat).real, 1e-300, None)
    entropy = -float(np.dot(rho_spec, np.log(rho_spec)))
    mean_log_v = math.fsum(
        math.log(sn_dim(young)[0]) * p for young, p in zip(dist.youngs, dist.p)
    )
    target = relative_entropy(rho, sigma) + entropy - mean_log_v / n
    assert mean_x == pytest.approx(target, abs=1e-9)


def test_unitary_covariance():
    from schurest.states import haar_unitary

    for d, n in ((3, 3), (2, 4)):
        rho, sigma = random_pair(d, seed=300)
        u = haar_unitary(d, np.random.default_rng(4))
        rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
        sigma_u = DensityMatrix(u @ sigma.mat @ u.conj().T)
        a = distribution(rho, sigma, n)
        b = distribution(rho_u, sigma_u, n)
        assert a.youngs == b.youngs and a.weights == b.weights
        np.testing.assert_allclose(a.p, b.p, atol=1e-11)
        np.testing.assert_allclose(a.log_q, b.log_q, atol=1e-11)


# ----------------------------------------------------- oracle equivalence


@pytest.mark.parametrize("compute,d,n", [
    (distribution, 2, 6),
    (distribution, 3, 4),
    (distribution, 3, 12),
    (distribution, 4, 10),
    (distribution, 5, 8),
    (brute_distribution, 3, 5),
    (brute_distribution, 4, 4),
])
def test_commuting_pair_closed_form(compute, d, n):
    # rho diagonal in sigma's eigenbasis: p(lam, mu) = dimV * K_lam,mu * prod r_i^mu_i,
    # with r the diagonal of rho in sigma's descending eigenbasis
    sigma = random_mixed(d, seed=40 + d, floor=0.05)
    vals, vecs = np.linalg.eigh(sigma.mat)
    basis = vecs[:, ::-1]
    r = np.random.default_rng(d).dirichlet(np.ones(d))
    rho = DensityMatrix((basis * r) @ basis.conj().T)
    dist = compute(rho, sigma, n)
    for young, weight, p in zip(dist.youngs, dist.weights, dist.p):
        expected = sn_dim(young)[0] * kostka(young, weight) * math.prod(r**np.array(weight))
        assert abs(p - expected) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (2, 8), (3, 3), (3, 5), (4, 3)])
def test_backend_equivalence(d, n):
    for seed in range(3):
        rho, sigma = random_pair(d, seed=1000 * d + 10 * n + seed)
        a = brute_distribution(rho, sigma, n)
        b = distribution(rho, sigma, n)
        assert a.youngs == b.youngs and a.weights == b.weights
        assert (a.mult == b.mult).all()
        np.testing.assert_allclose(a.p, b.p, atol=1e-9)
        np.testing.assert_allclose(a.log_q, b.log_q, atol=1e-12)


@pytest.mark.parametrize("d,n", [(5, 4), (5, 6), (6, 5), (7, 4), (8, 3)])
def test_large_dimension_matches_brute(d, n):
    # sizes past d = 4 that brute reaches too
    rho, sigma = random_pair(d, seed=10 * d + n)
    a = brute_distribution(rho, sigma, n)
    b = distribution(rho, sigma, n)
    assert a.youngs == b.youngs and a.weights == b.weights
    assert (a.mult == b.mult).all()
    assert b.neg_clip == 0.0
    np.testing.assert_allclose(a.p, b.p, rtol=0, atol=1e-12)


def test_backend_dispatch():
    rho, sigma = random_pair(2, seed=77)
    assert distribution(rho, sigma, 3).backend == "jacobi_trudi"
    assert distribution(rho, sigma, 15).backend == "jacobi_trudi"
    assert distribution(*random_pair(5, seed=77), 3).backend == "jacobi_trudi"
    with pytest.raises(TypeError):
        distribution(rho, sigma, 3, backend="brute")
    with pytest.raises(ValueError):
        brute_distribution(rho, sigma, 9)
    with pytest.raises(ValueError):
        distribution(rho, sigma, 31)


def test_work_guard_admits_every_small_dimension():
    # checked through the work count: running (4, 30) takes seconds
    assert all(_work(n, d) <= JT_MAX_WORK for d in range(1, 5) for n in range(1, JT_MAX_N + 1))
    assert _work(30, 4) == 31**3 * (2**4 + 4**2 * len(enumerate_young(30, 4)))


@pytest.mark.parametrize("d,n", [(9, 4), (64, 1)])
def test_work_guard_refuses_quickly(d, n):
    rho, sigma = random_pair(d, seed=d)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"\(n, d\) = \({n}, {d}\) needs at least"):
        distribution(rho, sigma, n)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [4.0, 2.5, math.nan, np.float64(3), True, False, None])
def test_a_copy_count_that_is_no_integer_is_refused(n):
    # a float n once reached the engine's plan and a bool came back as the
    # table's n; the refusal runs before the memo's key is formed
    from schurest.estimator import estimate_report

    rho, sigma = random_pair(2, seed=5)
    for call in (distribution, estimate_report):
        with pytest.raises(InputError, match="integer number of copies"):
            call(rho, sigma, n)


def test_numpy_integer_copy_counts_pass():
    rho, sigma = random_pair(2, seed=5)
    first = distribution(rho, sigma, 3)
    distribution(rho, sigma, 4)
    assert distribution(rho, sigma, np.int64(3)).p.tobytes() == first.p.tobytes()


@pytest.fixture
def engine_passes(monkeypatch):
    """A list that gains one entry per engine pass (_elementary call)."""
    from schurest import distribution as module

    calls = []
    elementary = module._elementary
    monkeypatch.setattr(module, "_elementary", lambda *args: calls.append(1) or elementary(*args))
    return calls


def test_the_memo_holds_one_table(engine_passes):
    a, b = random_pair(3, seed=21), random_pair(3, seed=22)
    distribution(*a, 4)  # warms the (4, 3) atom table
    distribution(*b, 4)
    engine_passes.clear()
    first = distribution(*a, 4)
    assert distribution(*b, 4) is not first
    assert distribution(*a, 4) is not first
    assert len(engine_passes) == 3


def test_the_memo_hits_on_equal_bytes_in_fresh_states(engine_passes):
    rho, sigma = random_pair(3, seed=23)
    first = distribution(rho, sigma, 4)
    engine_passes.clear()
    again = distribution(DensityMatrix(rho.mat.copy()), DensityMatrix(sigma.mat.copy()), 4)
    assert again is first and engine_passes == []


def test_the_memo_misses_on_any_other_input(engine_passes):
    rho, sigma = random_pair(3, seed=24)
    distribution(rho, sigma, 5)  # warms the (5, 3) atom table
    moved = rho.mat.copy()
    moved[0, 1] = complex(np.nextafter(moved[0, 1].real, 1.0), moved[0, 1].imag)
    others = [(DensityMatrix(moved), sigma, 4), (rho, sigma, 5), (sigma, rho, 4)]
    for args in others:
        first = distribution(rho, sigma, 4)
        engine_passes.clear()
        other = distribution(*args)
        assert other is not first and len(engine_passes) == 1, args[2]


def test_every_array_of_a_table_is_read_only():
    dist = distribution(*random_pair(2, seed=25), 3)
    arrays = [field.name for field in dataclasses.fields(dist)
              if isinstance(getattr(dist, field.name), np.ndarray)]
    assert len(arrays) == 7
    for name in arrays:
        array = getattr(dist, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 0


def test_refusals_fire_right_after_a_call_that_shares_an_argument():
    rho, sigma = random_pair(3, seed=26)
    distribution(rho, sigma, 4)
    with pytest.raises(InputError, match="different dimensions"):
        distribution(rho, random_mixed(2, seed=26), 4)
    distribution(rho, sigma, 4)
    with pytest.raises(ValueError, match=f"n <= {JT_MAX_N}"):
        distribution(rho, sigma, JT_MAX_N + 1)
    distribution(rho, sigma, 4)
    with pytest.raises(InputError, match="full rank"):
        distribution(rho, diagonal_state([0.5, 0.5, 0.0]), 4)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_engine_chunks_give_the_bytes_of_one_young_index_at_a_time(monkeypatch, d):
    # a one-cell cap makes every chunk one Young index, as the engine once
    # looped, and keeps no phase row in the plan
    from schurest import distribution as module

    spec = sigma_spectrum(random_mixed(d, 40 + d, floor=0.05))
    matrices = [np.eye(d)] + [module._rho_in_reference_basis(rho, spec)
                              for rho in (random_mixed(d, 3, floor=0.05), random_mixed(d, 3))]
    for n in range(1, 8):
        module.check_size(n, d)
        batched = [module._schur_coefficients(rt, n) for rt in matrices]
        with monkeypatch.context() as patch:
            patch.setattr(module, "_CHUNK_CELLS", 1)
            patch.setattr(module, "_plan", module._plan.__wrapped__)
            plan = module._plan(n, d)
            assert plan.phases is None and plan.step == 1
            single = [module._schur_coefficients(rt, n) for rt in matrices]
        for a, b in zip(batched, single):
            for part_a, part_b in zip(a, b):
                assert part_a.shape == part_b.shape and part_a.tobytes() == part_b.tobytes()


@pytest.mark.parametrize("n, d", [(19, 4), (20, 4), (9, 5)])
def test_engine_grid_past_the_cap_runs_one_young_index_per_chunk(n, d):
    # half grids of 4,400, 4,851 and 6,000 points
    from schurest import distribution as module

    plan = module._plan(n, d)
    assert plan.grid.shape[1] >= module._CHUNK_CELLS
    assert plan.step == 1


@pytest.mark.parametrize("n, d", [(8, 2), (30, 2), (6, 3), (20, 3), (5, 4)])
def test_engine_chunks_cover_the_young_indices_within_the_cap(n, d):
    # a chunk of step Young indices is the most that fits in _CHUNK_CELLS
    # cells, and last holds each Young index's lam_d, its power of e_d
    from schurest import distribution as module

    plan = module._plan(n, d)
    size = plan.grid.shape[1]
    assert plan.step * size <= module._CHUNK_CELLS < (plan.step + 1) * size
    assert plan.last.tolist() == [young[0] for young in plan.blocks]
    assert plan.last.max() == n // d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_h_recurrence_gives_the_bits_of_a_term_by_term_loop(d):
    # _complete forms the signed rows once; the loop signs e_j in every term
    from schurest import distribution as module

    spec = sigma_spectrum(random_mixed(d, 60 + d, floor=0.05))
    for rt in (np.eye(d), module._rho_in_reference_basis(random_mixed(d, 5), spec)):
        for n in (1, 4, 9):
            e = module._elementary(rt, module._plan(n, d))
            h = np.zeros((n + d, e.shape[1]), dtype=complex)
            h[0] = 1.0
            for k in range(1, n + d - 1):
                for j in range(1, min(k, d) + 1):
                    h[k] += (-1) ** (j - 1) * e[j] * h[k - j]
            assert module._complete(e, n).tobytes() == h.tobytes()


def degenerate_stacks(blocks):
    """Copies of a (Y, m, m, G) stack, m >= 2, on which elimination meets a
    zero pivot or cancels a whole row: a zero first column, row 1 equal to
    row 0, and a zero second pivot.  In the last, row 0 starts with a power
    of two near its old size and rows i >= 1 with 2^-i times row 0's first
    two entries, so every factor of the first step is exact and leaves
    their second column exactly zero."""
    zero_column = blocks.copy()
    zero_column[:, :, 0] = 0
    equal_rows = blocks.copy()
    equal_rows[:, 1] = equal_rows[:, 0]
    zero_second = blocks.copy()
    zero_second[:, 0, 0] = 2.0 ** np.round(np.log2(np.abs(zero_second[:, 0, 0])))
    for i in range(1, blocks.shape[1]):
        zero_second[:, i, :2] = 2.0**-i * zero_second[:, 0, :2]
    return zero_column, equal_rows, zero_second


def stack_dets(stack):
    """_block_dets on a given (Y, m, m, G) stack: its entries become the
    rows of h, and each block's index array names its own m^2 rows."""
    from schurest import distribution as module

    y, m, _, g = stack.shape
    return module._block_dets(stack.reshape(-1, g), np.arange(y * m * m).reshape(y, m, m))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_small_jacobi_trudi_blocks_match_lapack_det(order):
    # the closed forms (orders 1, 2) and the pivoted elimination (orders
    # >= 3) agree with LU to a few ulps of the product scale, the row-norm
    # product that bounds |det| (the tighter |a||d| + |b||c| at order 2);
    # np.linalg.det returns exp(log|det|), whose relative error grows with
    # |log|det||, hence the log term.  The elimination's degenerate stacks
    # meet the same bound, and no stack raises a floating-point warning.
    from schurest import distribution as module

    rng = np.random.default_rng(order)
    for scale in (1.0, 1e-8, 1e6):
        blocks = scale * (rng.standard_normal((40, order, order, 17))
                          + 1j * rng.standard_normal((40, order, order, 17)))
        stacks = [blocks, *degenerate_stacks(blocks)] if order >= 3 else [blocks]
        for stack in stacks:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                ours = stack_dets(stack)
            lapack = np.linalg.det(np.moveaxis(stack, -1, 1))
            size = np.abs(stack)
            product = (size[:, 0, 0] * size[:, 1, 1] + size[:, 0, 1] * size[:, 1, 0]
                       if order == 2 else np.prod(np.linalg.norm(stack, axis=2), axis=1))
            assert ours.shape == lapack.shape == (40, 17)
            assert np.all(np.isfinite(ours))
            ulps = np.abs(ours - lapack) / (np.finfo(float).eps * product)
            assert np.all(ulps <= 4 * (1 + np.abs(np.log(product))))


@pytest.mark.parametrize("order", [3, 4, 5])
def test_block_dets_give_the_same_bits_in_any_grid_slicing(monkeypatch, order):
    # the elimination is elementwise, so the engine's coefficients keep
    # their bits whatever slices of the grid _block_dets gathers
    from schurest import distribution as module

    d, n = {3: (4, 6), 4: (5, 4), 5: (6, 3)}[order]
    spec = sigma_spectrum(random_mixed(d, 20 + d, floor=0.05))
    matrices = [np.eye(d), module._rho_in_reference_basis(random_mixed(d, 2), spec)]
    whole = [module._schur_coefficients(rt, n) for rt in matrices]
    for tile in (1, 5, 16):
        monkeypatch.setattr(module, "_DET_TILE", tile)
        for rt, (rows, imag) in zip(matrices, whole):
            sliced = module._schur_coefficients(rt, n)
            assert sliced[0].tobytes() == rows.tobytes()
            assert sliced[1].tobytes() == imag.tobytes()


def test_elimination_never_sees_a_gather_wider_than_a_slice(monkeypatch):
    # at (4, 26) the half grid has 27 * 27 * 14 = 10,206 points, past one
    # _DET_TILE slice; each stack _eliminate receives owns its memory, so no
    # gather of the whole grid's blocks is ever built
    from schurest import distribution as module

    n, d = 26, 4
    assert module._plan(n, d).grid.shape[1] > module._DET_TILE
    widths = []

    def recorded(stack, eliminate=module._eliminate):
        root = stack
        while root.base is not None:
            root = root.base
        # the grid points the stack's memory spans, at Y m^2 entries per point
        widths.append((stack.shape[-1], root.size // (stack.size // stack.shape[-1])))
        return eliminate(stack)

    monkeypatch.setattr(module, "_eliminate", recorded)
    module._schur_coefficients(np.eye(d), n)
    assert len(widths) == 2 * len(module._plan(n, d).blocks)
    assert all(width == root <= module._DET_TILE for width, root in widths)


@pytest.mark.parametrize("d, n", [(3, 20), (4, 6)])
def test_engine_sends_only_principal_minors_to_lapack(monkeypatch, d, n):
    # only the d sizes of principal minor of rho_tilde reach np.linalg.det;
    # every Jacobi-Trudi block, 3 x 3 ones at d = 4 included, stays in
    # _block_dets
    from schurest import distribution as module

    shapes = []

    def counted(a, det=np.linalg.det):
        shapes.append(np.shape(a)[-2:])
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    module._schur_coefficients(np.eye(d), n)
    assert shapes == [(j, j) for j in range(1, d + 1)]


@pytest.mark.parametrize("d, sizes", [(2, (9, 12)), (3, (7, 8)), (4, (5, 6)), (5, (3, 4))])
def test_half_torus_rows_match_a_full_torus_fft(d, sizes):
    # n + 1 odd and even, so the half grid both has and lacks a Nyquist
    # plane; well-conditioned and near-pure pairs
    from schurest import distribution as module

    spec = sigma_spectrum(random_mixed(d, 100 + d))
    for rho in (random_mixed(d, 3), random_mixed(d, 4, floor=0.05),
                random_pure_depolarized(d, 7, 0.001)):
        rt = module._rho_in_reference_basis(rho, spec)
        for n in sizes:
            rows, _ = module._schur_coefficients(rt, n)
            assert np.abs(rows - torus_schur_coefficients(rt, n)).max() <= 1e-15


@pytest.mark.parametrize("d, n", [(2, 9), (3, 8), (4, 6)])
def test_max_imag_measures_the_self_conjugate_residue(d, n):
    # the principal minors of a rho_tilde with complex off-diagonals carry
    # roundoff in their imaginary parts, which the values at z = 1 keep
    from schurest import distribution as module

    rho, sigma = random_pair(d, seed=70 + d)
    rt = module._rho_in_reference_basis(rho, sigma_spectrum(sigma))
    assert np.abs(rt[np.triu_indices(d, 1)].imag).min() > 1e-3
    assert 0 < distribution(rho, sigma, n).max_imag < 1e-12


def test_largest_admitted_copy_count_per_dimension():
    # the work guard counts the full torus, not the half grid the engine
    # evaluates, so the limits are the full-torus count's
    limits = {2: 30, 3: 30, 4: 30, 5: 16, 6: 10, 7: 7, 8: 5, 9: 3, 10: 2}
    for d, largest in limits.items():
        check_size(largest, d)
        with pytest.raises(ValueError):
            check_size(largest + 1, d)


def test_large_n_stability():
    rho, sigma = random_pair(2, seed=88)
    dist = distribution(rho, sigma, 30)
    assert dist.total_probability() == pytest.approx(1.0, abs=1e-9)
    assert dist.max_imag < 1e-9
    assert dist.neg_clip > -1e-6
    marginal = lam_marginal(dist)
    rho_spec = np.linalg.eigvalsh(rho.mat).real
    for young in [(0, 30), (10, 20), (15, 15)]:
        v_dim, _ = sn_dim(young)
        expected = v_dim * schur_eval(young, rho_spec.tolist())
        assert marginal[young] == pytest.approx(expected, rel=1e-8, abs=1e-12)


# ------------------------------------------ high-precision coefficient oracle

REFERENCE_DIGITS = 50


def _poly_add(total, term, scale=1):
    """total += scale * term for polynomials stored as {exponent tuple: coefficient}."""
    for key, value in term.items():
        total[key] = total.get(key, 0) + scale * value


def _poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return out


def _leibniz_det(matrix, d):
    """Determinant of a square matrix of polynomials, term by term."""
    total = {}
    size = len(matrix)
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = {(0,) * d: mpmath.mpc((-1) ** inversions)}
        for row, col in enumerate(perm):
            term = _poly_mul(term, matrix[row][col])
        _poly_add(total, term)
    return total


def reference_atoms(rho, sigma, n):
    """{(young, weight): p} with p = dimV * [z^weight] s_lam(rho_tilde Z).

    Everything after rho_tilde runs at REFERENCE_DIGITS digits on exact
    coefficients: e_j as sums of principal minors of rho_tilde Z, h_k by
    h_k = sum_j (-1)^(j-1) e_j h_(k-j), and s_lam as the full d x d
    Jacobi-Trudi determinant, with no factor pulled out.
    """
    spec = sigma_spectrum(sigma)
    rt = spec.basis.conj().T @ rho.mat @ spec.basis
    d = rho.dim
    out = {}
    with mpmath.workdps(REFERENCE_DIGITS):
        unit = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        rz = [[{unit[b]: mpmath.mpc(rt[a, b].real, rt[a, b].imag)} for b in range(d)]
              for a in range(d)]
        e = [{(0,) * d: mpmath.mpc(1)}]
        for j in range(1, d + 1):
            e.append({})
            for s in combinations(range(d), j):
                _poly_add(e[j], _leibniz_det([[rz[a][b] for b in s] for a in s], d))
        h = [e[0]]
        for k in range(1, n + d):
            h.append({})
            for j in range(1, min(k, d) + 1):
                _poly_add(h[k], _poly_mul(e[j], h[k - j]), (-1) ** (j - 1))
        for young in enumerate_young(n, d):
            lam = young[::-1]
            s_lam = _leibniz_det(
                [[h[lam[i] - i + j] if lam[i] - i + j >= 0 else {} for j in range(d)]
                 for i in range(d)], d)
            v_dim, _ = sn_dim(young)
            for weight, value in s_lam.items():
                out[(young, weight)] = v_dim * value.real
    return out


def test_near_pure_state_matches_high_precision_reference():
    # A near-pure state at the largest supported n is where the Schur
    # polynomial cancels hardest; no raw probability may need clamping.
    rho = random_pure_depolarized(2, 42, 0.05)
    sigma = random_mixed(2, 102)
    dist = distribution(rho, sigma, 30)
    assert dist.neg_clip == 0.0
    ref = reference_atoms(rho, sigma, 30)
    error = max(abs(mpmath.mpf(float(p)) - ref.get((young, weight), 0))
                for young, weight, p in zip(dist.youngs, dist.weights, dist.p))
    assert error <= 1e-14


def lam_marginal_error(rho, sigma, n):
    """Largest absolute error of the engine's Young-index masses."""
    marginal = lam_marginal(distribution(rho, sigma, n))
    return float(max(abs(mpmath.mpf(marginal.get(young, 0.0)) - value)
                     for young, value in reference_lam_marginal(rho, n).items()))


# Near-pure states lose precision at d >= 3, inside the size limits:
# measured errors were 1.1e-11 at (3, 20), 2.7e-10 at (3, 25) and 9.5e-9 at
# (3, 30) for the first pair, and 1.1e-11 at (4, 16), 2.2e-10 at (4, 20)
# and 4.7e-9 at (4, 24) for the last.  Before _assemble the engine's rows
# are off by 4.8e-12, 9.2e-11 and 3.6e-9 at d = 3, the Jacobi-Trudi
# cancellation, but by 1.1e-12, 1.2e-11 and 3.0e-10 at d = 4, where most of
# the error is _assemble's renormalisation over the tens of thousands of
# clamped negatives.  Well-conditioned pairs stay near 1e-15.
NEAR_PURE_PAIRS = {
    3: (random_pure_depolarized(3, 3, 0.01), random_mixed(3, 103)),
    4: (random_pure_depolarized(4, 11, 0.001), random_mixed(4, 111)),
}


@pytest.mark.parametrize("d,n", [(3, 20), (4, 16)])
def test_near_pure_lam_marginal_within_1e10_at_moderate_n(d, n):
    assert lam_marginal_error(*NEAR_PURE_PAIRS[d], n) <= 1e-10


@pytest.mark.xfail(strict=True, reason="near-pure states pass the 1e-9 backend-agreement "
                   "target inside JT_MAX_N: Jacobi-Trudi cancellation at d = 3, "
                   "_assemble's renormalisation at d = 4")
@pytest.mark.parametrize("d,n", [(3, 30), (4, 24)])
def test_near_pure_lam_marginal_within_1e9_at_the_size_limit(d, n):
    assert lam_marginal_error(*NEAR_PURE_PAIRS[d], n) <= 1e-9


def test_well_conditioned_lam_marginal_matches_reference():
    rho, sigma = random_mixed(3, 8, floor=0.05), random_mixed(3, 7)
    assert lam_marginal_error(rho, sigma, 30) <= 1e-14


def test_pivoted_elimination_is_as_accurate_as_lu_on_near_pure_blocks():
    # the engine's own 3 x 3 Jacobi-Trudi blocks of the near-pure d = 4 pair
    # at n = 24, every Young index at every 109th point of the 8,125-point
    # half grid, the first (z = 1, whose values are the lambda-marginals)
    # included.  The exact determinant of each block's float entries is a
    # cofactor expansion at REFERENCE_DIGITS digits, sharing no code with
    # either method.  A block's error enters p times dimV |e_d|^lam_d = dimV
    # det(rho)^lam_d, so that is its weight: in those units LU's worst error
    # is 5.9e-10, the elimination's 5.2e-10 and a float cofactor
    # expansion's 3.8e-8.
    from schurest import distribution as module

    rho, sigma = NEAR_PURE_PAIRS[4]
    n = 24
    plan = module._plan(n, 4)
    h = module._complete(module._elementary(
        module._rho_in_reference_basis(rho, sigma_spectrum(sigma)), plan), n)
    blocks = h[:, ::109][plan.idx]
    assert blocks.shape == (len(plan.blocks), 3, 3, 75)
    results = {"elimination": module._block_dets(h[:, ::109], plan.idx),
               "lu": np.linalg.det(np.moveaxis(blocks, -1, 1))}
    det_rho = mpmath.mpf(float(np.linalg.det(rho.mat).real))
    worst = dict.fromkeys(results, mpmath.mpf(0))
    with mpmath.workdps(REFERENCE_DIGITS):
        for y, g in np.ndindex(blocks.shape[0], blocks.shape[-1]):
            m = [[mpmath.mpc(blocks[y, i, j, g]) for j in range(3)] for i in range(3)]
            exact = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                     - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                     + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
            young = plan.blocks[y]
            weight = sn_dim(young)[0] * det_rho ** young[0]
            for name, dets in results.items():
                error = weight * abs(mpmath.mpc(dets[y, g]) - exact)
                worst[name] = max(worst[name], error)
    assert 0 < worst["elimination"] <= 2 * worst["lu"]


# ----------------------------------------------- full-group dense oracle


def dense_distribution(rho, sigma, n):
    """Atom masses via explicit projector algebra on the d**n space."""
    spec = sigma_spectrum(sigma)
    rt = spec.basis.conj().T @ rho.mat @ spec.basis
    big = kron_power(rt, n)
    d = rho.dim
    out = {}
    for young in enumerate_young(n, d):
        proj = schur_projector(n, d, young)
        for weight in {w for w in map(tuple, _all_weights(n, d))}:
            mask = type_mask(n, d, weight)
            value = np.real(np.trace(big[np.ix_(mask, mask)] @ proj[np.ix_(mask, mask)]))
            if abs(value) > 1e-15 or True:
                out[(young, weight)] = float(value)
    return out


def _all_weights(n, d):
    from schurest.partitions import compositions

    return list(compositions(n, d))


@pytest.mark.parametrize("d,n", [(2, 3), (2, 4), (3, 3)])
def test_dense_projector_oracle(d, n):
    rho, sigma = random_pair(d, seed=40 * d + n)
    dist = distribution(rho, sigma, n)
    dense = dense_distribution(rho, sigma, n)
    for young, weight, p in zip(dist.youngs, dist.weights, dist.p):
        assert p == pytest.approx(dense[(young, weight)], abs=1e-11)
    # masses absent from the atom list must vanish: Kostka zero means the
    # weight space does not meet the block
    listed = set(zip(dist.youngs, dist.weights))
    for key, value in dense.items():
        if key not in listed:
            assert abs(value) < 1e-11


def test_full_group_average_matches_representative():
    # the projected trace is a class function; averaging over each whole
    # conjugacy class must reproduce the single-representative value
    rho, sigma = random_pair(2, seed=55)
    n = 4
    spec = sigma_spectrum(sigma)
    rt = spec.basis.conj().T @ rho.mat @ spec.basis
    digits = string_digits(n, 2)
    from oracles import _class_representative_inverse, _projected_traces, _weight_codes, cycle_types

    weights = list(compositions(n, 2))
    occ = np.stack([(digits == a).sum(axis=1) for a in range(2)], axis=1)
    codes = _weight_codes([tuple(r) for r in occ], n)
    sorted_codes = _weight_codes(weights, n)
    type_idx = np.searchsorted(sorted_codes, codes)

    def type_of(perm):
        seen = [False] * n
        parts = []
        for s in range(n):
            if seen[s]:
                continue
            c, cur = 0, s
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                c += 1
            parts.append(c)
        return tuple(sorted(parts, reverse=True))

    sums = {}
    counts = {}
    for perm in permutations(range(n)):
        inv = tuple(np.argsort(perm))
        row = _projected_traces(rt, digits, type_idx, len(weights), np.array(inv))
        key = type_of(perm)
        sums[key] = sums.get(key, 0) + row
        counts[key] = counts.get(key, 0) + 1
    for ct in cycle_types(n):
        avg = sums[ct.cycles] / counts[ct.cycles]
        rep = _projected_traces(rt, digits, type_idx, len(weights), _class_representative_inverse(ct))
        np.testing.assert_allclose(avg, rep, atol=1e-12)
        assert counts[ct.cycles] == ct.size


# ------------------------------------------------------- dense block ops


def test_schur_projectors_resolve_identity():
    for d, n in [(2, 3), (2, 4), (3, 3)]:
        total = np.zeros((d**n, d**n))
        for young in enumerate_young(n, d):
            proj = schur_projector(n, d, young)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            np.testing.assert_allclose(proj, proj.T, atol=1e-12)
            assert np.trace(proj) == pytest.approx(weyl_dim(young) * sn_dim(young)[0], abs=1e-9)
            total += proj
        np.testing.assert_allclose(total, np.eye(d**n), atol=1e-10)


def test_block_projectors_tile_identity():
    projs = block_projectors(3, 2)
    total = np.zeros((8, 8))
    for young, weight, block in projs:
        np.testing.assert_allclose(block @ block, block, atol=1e-10)
        total += block
    np.testing.assert_allclose(total, np.eye(8), atol=1e-10)
    assert len(projs) == 6


def test_block_spectrum_against_distribution():
    rho, sigma = random_pair(2, seed=66)
    n = 4
    dist = distribution(rho, sigma, n)
    marginal = lam_marginal(dist)
    for young in enumerate_young(n, 2):
        vals = block_spectrum(rho, sigma, n, young)
        assert math.fsum(vals.tolist()) == pytest.approx(marginal[young], abs=1e-10)
        assert vals.shape == (weyl_dim(young),)
        assert (vals >= -1e-12).all()
        assert (np.diff(vals) <= 1e-12).all()


def test_block_spectrum_commuting_case():
    # commuting pair: the block spectrum must reproduce the per-block
    # conditional masses of the fine-grained outcome table
    probs = [0.7, 0.3]
    rho = diagonal_state(probs)
    sigma = diagonal_state([0.6, 0.4])
    n = 3
    dist = distribution(rho, sigma, n)
    table = atoms_dict(dist)
    vals = block_spectrum(rho, sigma, n, (1, 2))
    expected = sorted(
        [table[((1, 2), (2, 1))], table[((1, 2), (1, 2))]], reverse=True
    )
    np.testing.assert_allclose(vals, expected, atol=1e-11)


def test_pure_state_block_spectrum():
    rho = random_pure_depolarized(2, seed=5, p=0.0)
    sigma = random_mixed(2, seed=1005)
    vals = block_spectrum(rho, sigma, 3, (0, 3))
    # a pure state lives entirely in the symmetric block, on one ray
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(vals[1:]).max() < 1e-10


def test_pinching_defect_nonnegative():
    for d, n, seed in [(2, 3, 1), (2, 4, 2), (3, 2, 3)]:
        projs = [b for _, _, b in block_projectors(n, d)]
        rho = random_mixed(d, seed=seed)
        big = kron_power(sigma_spectrum(random_mixed(d, seed=seed + 1000)).basis.conj().T @ rho.mat
                         @ sigma_spectrum(random_mixed(d, seed=seed + 1000)).basis, n)
        defect = pinching_defect(big, projs)
        assert defect >= -1e-9


def test_pinching_defect_rejects_bad_family():
    projs = [b for _, _, b in block_projectors(2, 2)]
    with pytest.raises(ValueError):
        pinching_defect(np.eye(4) / 4, projs[:-1])  # misses identity
    bad = [p.copy() for p in projs]
    bad[0] = bad[0] * 0.5
    with pytest.raises(ValueError):
        pinching_defect(np.eye(4) / 4, bad)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_renyi_trace_inequality(alpha):
    for d, n, seed in [(2, 2, 9), (2, 3, 10), (3, 2, 11)]:
        rho, sigma = random_pair(d, seed=seed)
        lhs, rhs = renyi_trace_check(rho, sigma, n, alpha)
        assert 0 < lhs <= rhs * (1 + 1e-9)


def test_renyi_trace_alpha_validation():
    rho, sigma = random_pair(2, seed=12)
    with pytest.raises(ValueError):
        renyi_trace_check(rho, sigma, 2, 1.0)
    with pytest.raises(ValueError):
        renyi_trace_check(rho, sigma, 2, 0.0)


# ----------------------------------------------------------- diagnostics


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (3, 3), (5, 3), (6, 4), (4, 5), (3, 6), (20, 3), (16, 4),
                                 (10, 5)])
def test_atom_table_matches_kostka_loop(n, d):
    # reference: one strip-recursion kostka call per (Young index, weight),
    # Young index first; the largest K checked is 30, at (16, 4) and (10, 5)
    atoms = [(young, weight, kostka(young, weight))
             for young in enumerate_young(n, d) for weight in compositions(n, d)]
    atoms = [atom for atom in atoms if atom[2]]
    uniform = diagonal_state([1 / d] * d)
    dist = distribution(uniform, uniform, n)
    assert dist.youngs == tuple(young for young, _, _ in atoms)
    assert dist.weights == tuple(weight for _, weight, _ in atoms)
    assert dist.mult.tolist() == [k for _, _, k in atoms]
    # the weight multiplicities of a Young index tile its unitary block
    for young in enumerate_young(n, d):
        assert sum(int(m) for y, m in zip(dist.youngs, dist.mult) if y == young) == weyl_dim(young)


@pytest.mark.parametrize("offset", [0.3, 1e-3j])
def test_atom_table_refuses_off_integer_kostka_rows(monkeypatch, offset):
    from schurest import distribution as module

    engine = module._schur_coefficients

    def shifted(*args):
        rows, imag = engine(*args)
        return rows + offset, imag

    monkeypatch.setattr(module, "_schur_coefficients", shifted)
    with pytest.raises(ArithmeticError, match=r"\(n, d\) = \(5, 3\)"):
        module._atom_table.__wrapped__(5, 3)


def test_total_schur_block_count_matches_atoms():
    rho, sigma = random_pair(2, seed=99)
    for n in [3, 5]:
        dist = distribution(rho, sigma, n)
        assert len(set(dist.youngs)) == total_schur_dim(n, 2).count


def test_degenerate_reference_gauge_freedom():
    # with sigma maximally mixed the eigenbasis is arbitrary; the atom
    # table must not depend on which basis the solver happens to pick
    rho = random_mixed(2, seed=123)
    sigma_a = DensityMatrix(np.eye(2) / 2)
    from schurest.states import haar_unitary

    u = haar_unitary(2, np.random.default_rng(7))
    sigma_b = DensityMatrix(u @ (np.eye(2) / 2) @ u.conj().T)
    a = distribution(rho, sigma_a, 4)
    b = distribution(rho, sigma_b, 4)
    np.testing.assert_allclose(a.p, b.p, atol=1e-11)
    np.testing.assert_allclose(a.log_q, b.log_q, atol=1e-11)


def test_exact_rational_reconstruction():
    # commuting pair with rational spectra: brute masses are exact
    # rationals; compare against direct Fraction arithmetic on strings
    rho = diagonal_state([Fraction(1, 4), Fraction(3, 4)])
    sigma = diagonal_state([Fraction(2, 3), Fraction(1, 3)])
    n = 3
    dist = brute_distribution(rho, sigma, n)
    walk = coupling_walk([0.25, 0.75], n)
    for key, mass in walk.items():
        assert atoms_dict(dist)[key] == pytest.approx(mass, abs=1e-14)


# Per-Young rows at n = d = 2 for I/2, built from the swap trace row and the
# identity trace row [0.25, 0.5, 0.25] over the weights (0, 2), (1, 1),
# (2, 0).  Young index (0, 2) has p = (swap + identity) / 2 and (1, 1) has
# p = (identity - swap) / 2; its only atom is ((1, 1), (1, 1)).
def _two_copy_rows(swap):
    swap, identity = np.array(swap), np.array([0.25, 0.5, 0.25])
    return np.array([(swap + identity) / 2, (identity - swap) / 2])


def test_small_negative_probability_is_clamped():
    from schurest.distribution import _assemble

    spec = sigma_spectrum(DensityMatrix(np.eye(2) / 2))
    dist = _assemble(2, 2, spec, _two_copy_rows([0.25, 0.5 + 2e-8, 0.25]), 0.0)
    assert dist.weights[-1] == (1, 1) and dist.youngs[-1] == (1, 1)
    assert dist.neg_clip == pytest.approx(-1e-8, rel=1e-6)
    assert dist.p[-1] == 0.0
    assert dist.total_probability() == pytest.approx(1.0, abs=1e-15)


def test_large_negative_probability_aborts_at_first_atom():
    from schurest.distribution import _assemble

    spec = sigma_spectrum(DensityMatrix(np.eye(2) / 2))
    rows = _two_copy_rows([-0.25 - 4e-6, 0.5 + 4e-6, 0.25])  # two atoms at -2e-6
    with pytest.raises(ArithmeticError, match=r"at \(0, 2\), \(0, 2\):"):
        _assemble(2, 2, spec, rows, 0.0)
