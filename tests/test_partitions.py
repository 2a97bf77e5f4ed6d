"""Oracle-backed tests for the exact combinatorics layer."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CycleType, character, cycle_types, kostka, schur_eval
from schurest.partitions import (
    compositions,
    enumerate_young,
    multinomial,
    sn_dim,
    total_schur_dim,
    type_entropy_bounds,
    weyl_dim,
    weyl_dim_log_bound,
    young_count,
)


# ---------------------------------------------------------------- oracles


def brute_young(n: int, d: int) -> list[tuple[int, ...]]:
    """Filter all d-tuples with entries in 0..n: the defining property, no cleverness."""
    out = [
        t
        for t in product(range(n + 1), repeat=d)
        if sum(t) == n and all(t[i] <= t[i + 1] for i in range(d - 1))
    ]
    return sorted(out)


def brute_syt_count(shape_desc: tuple[int, ...]) -> int:
    """Count standard fillings by trying every permutation of 1..n (n <= 6)."""
    n = sum(shape_desc)
    cells = [(r, c) for r, row_len in enumerate(shape_desc) for c in range(row_len)]
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = {}
        ok = True
        for cell, value in zip(cells, perm):
            grid[cell] = value
        for (r, c), value in grid.items():
            if c + 1 < shape_desc[r] and grid[(r, c + 1)] < value:
                ok = False
                break
            if r + 1 < len(shape_desc) and shape_desc[r + 1] > c and grid[(r + 1, c)] < value:
                ok = False
                break
        count += ok
    return count


def hook_length_dim(shape_desc: tuple[int, ...]) -> int:
    """Independent dimension oracle via the hook length formula."""
    n = sum(shape_desc)
    cols = [sum(1 for row_len in shape_desc if row_len > c) for c in range(shape_desc[0])]
    hooks = 1
    for r, row_len in enumerate(shape_desc):
        for c in range(row_len):
            hooks *= (row_len - c) + (cols[c] - r) - 1
    dim, rem = divmod(math.factorial(n), hooks)
    assert rem == 0
    return dim


def power_sum_schur_eval(lam, values) -> float:
    """Character-route evaluation: sum over classes of size*chi*prod p_cycle / n!."""
    n = sum(lam)
    total = 0.0
    for ct in cycle_types(n):
        p_prod = 1.0
        for length in ct.cycles:
            p_prod *= sum(v**length for v in values)
        total += ct.size * character(lam, ct) * p_prod
    return total / math.factorial(n)


def shape_of(lam) -> tuple[int, ...]:
    return tuple(x for x in reversed(lam) if x)


# ------------------------------------------------------------ enumeration


@pytest.mark.parametrize("n,d", [
    (0, 1), (1, 1), (7, 1), (0, 3), (2, 2), (3, 2), (5, 2), (4, 3), (6, 3), (5, 4), (8, 5), (6, 6),
])
def test_enumerate_young_matches_brute(n, d):
    got = enumerate_young(n, d)
    assert got == brute_young(n, d)
    assert len(got) <= (n + 1) ** (d - 1)


def test_enumerate_young_known_small():
    assert enumerate_young(2, 2) == [(0, 2), (1, 1)]
    assert enumerate_young(0, 3) == [(0, 0, 0)]
    assert enumerate_young(3, 2) == [(0, 3), (1, 2)]


@given(st.integers(0, 12), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_enumerate_young_properties(n, d):
    lams = enumerate_young(n, d)
    assert len(set(lams)) == len(lams) == len(brute_young(n, d)) if n <= 6 else True
    assert lams == sorted(lams)
    for lam in lams:
        assert len(lam) == d and sum(lam) == n
        assert all(lam[i] <= lam[i + 1] for i in range(d - 1))


def test_enumerate_young_validation():
    for n, d in [(-1, 2), (3, 0)]:
        with pytest.raises(ValueError):
            enumerate_young(n, d)


def test_multinomial_matches_factorials():
    for lam in [(0,), (9,), (2, 3), (0, 4, 4), (1, 2, 3, 4), (5, 0, 0, 7, 1)]:
        n = sum(lam)
        expected = math.factorial(n) // math.prod(math.factorial(x) for x in lam)
        assert multinomial(lam) == expected
    assert multinomial((10**9,)) == 1


def test_young_count_matches_enumeration():
    for n in range(0, 25):
        for d in range(1, 8):
            count = len(enumerate_young(n, d))
            assert young_count(n, d, 10**6) == count
            assert young_count(n, d, 40) == min(count, 41)  # cap + 1 past the cap


def test_young_count_is_cheap_for_any_size():
    assert young_count(10**12, 1, 100) == 1
    assert young_count(10**12, 2, 100) == 101
    assert young_count(10**12, 10**12, 100) == 101
    assert young_count(200, 9, 10**5) == 10**5 + 1  # 405,047,836 in full


def test_compositions_cover_and_order():
    got = list(compositions(3, 2))
    assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(6, 3))) == 28  # stars and bars


# -------------------------------------------------------------- dimensions


def test_weyl_dim_known_values():
    assert weyl_dim((0, 2)) == 3  # two-qubit symmetric subspace
    assert weyl_dim((1, 1)) == 1  # singlet
    for n in range(1, 7):
        sym = weyl_dim((0, 0, n))
        assert sym == (n + 2) * (n + 1) // 2  # stars and bars
    assert weyl_dim((0, 1, 1)) == 3  # antisymmetric square at d=3
    assert weyl_dim((1, 1, 1)) == 1


@pytest.mark.parametrize("n,d", [(n, d) for d in (2, 3) for n in range(0, 9)] + [(n, 4) for n in range(0, 6)])
def test_regular_representation_identity(n, d):
    total = sum(weyl_dim(lam) * sn_dim(lam)[0] for lam in enumerate_young(n, d))
    assert total == d**n


def test_sn_dim_known_values():
    assert sn_dim((1, 1)) == (1, Fraction(1, 2))
    assert sn_dim((0, 5))[0] == 1
    assert sn_dim((1, 2)) == (2, Fraction(2, 3))


def test_sn_dim_vs_syt_brute_and_hooks():
    for n in range(1, 7):
        for lam in enumerate_young(n, n):
            shape = shape_of(lam)
            dim, ratio = sn_dim(lam)
            assert 0 < ratio <= 1
            assert dim == hook_length_dim(shape)
            if n <= 6:
                assert dim == brute_syt_count(shape)


def test_sn_dim_padding_invariance():
    # leading zero parts must not change the symmetric-group block
    assert sn_dim((0, 1, 2))[0] == sn_dim((1, 2))[0]
    assert sn_dim((0, 0, 4))[0] == sn_dim((0, 4))[0]


# -------------------------------------------------------------- characters


def test_character_sign_and_trivial():
    for n in range(2, 8):
        triv = (0,) * (n - 1) + (n,)
        sign = (1,) * n
        for ct in cycle_types(n):
            assert character(triv, ct) == 1
            assert character(sign, ct) == (-1) ** (n - len(ct.cycles))


def test_character_s3_s4_tables():
    s3 = {
        (0, 0, 3): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
        (0, 1, 2): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
        (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
    }
    for lam, row in s3.items():
        for cyc, want in row.items():
            assert character(lam, cyc) == want
    s4 = {
        (0, 0, 0, 4): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
        (0, 0, 1, 3): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
        (0, 0, 2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
        (0, 1, 1, 2): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
        (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
    }
    for lam, row in s4.items():
        for cyc, want in row.items():
            assert character(lam, cyc) == want


def test_character_identity_is_dimension():
    for n in range(1, 9):
        identity = CycleType((1,) * n)
        for lam in enumerate_young(n, min(n, 4)):
            assert character(lam, identity) == sn_dim(lam)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_character_row_orthogonality(n):
    classes = cycle_types(n)
    assert sum(c.size for c in classes) == math.factorial(n)
    lams = enumerate_young(n, n)
    for i, l1 in enumerate(lams):
        for l2 in lams[i:]:
            acc = sum(c.size * character(l1, c) * character(l2, c) for c in classes)
            assert acc == (math.factorial(n) if l1 == l2 else 0)


def test_character_column_orthogonality_n5():
    n = 5
    classes = cycle_types(n)
    lams = enumerate_young(n, n)
    for ci in classes:
        for cj in classes:
            acc = sum(character(lam, ci) * character(lam, cj) for lam in lams)
            if ci.cycles == cj.cycles:
                assert acc * ci.size == math.factorial(n)
            else:
                assert acc == 0


# ------------------------------------------------------------------ kostka


def test_kostka_known_values():
    assert kostka((1, 2), (1, 1, 1)) == 2
    assert kostka((0, 2), (1, 1)) == 1
    assert kostka((1, 1), (1, 1)) == 1
    assert kostka((1, 1), (2, 0)) == 0  # column of equal letters is impossible
    assert kostka((0, 0, 3), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 2)) == 1


def test_kostka_weight_symmetry_and_sum():
    for n, d in [(4, 2), (5, 3), (6, 3), (4, 4)]:
        for lam in enumerate_young(n, d):
            total = 0
            for nu in compositions(n, d):
                k = kostka(lam, nu)
                assert k == kostka(lam, tuple(reversed(nu)))
                total += k
            assert total == weyl_dim(lam)


def test_kostka_self_weight_is_one():
    for n, d in [(5, 2), (6, 3), (7, 4)]:
        for lam in enumerate_young(n, d):
            assert kostka(lam, lam) == 1


# ----------------------------------------------------------- polynomial eval


def test_schur_eval_at_ones_is_weyl_dim():
    for n, d in [(3, 2), (4, 3), (5, 2), (4, 4)]:
        for lam in enumerate_young(n, d):
            assert abs(schur_eval(lam, [1.0] * d) - weyl_dim(lam)) < 1e-9


def test_schur_eval_two_routes_agree():
    # Kostka-monomial route vs character/power-sum route: independent pipelines
    points = {2: [(0.7, 0.3), (0.9, 0.1), (0.5, 0.5)], 3: [(0.5, 0.3, 0.2), (0.8, 0.15, 0.05)]}
    for n in range(1, 6):
        for d, pts in points.items():
            for lam in enumerate_young(n, d):
                for xs in pts:
                    a = schur_eval(lam, xs)
                    b = power_sum_schur_eval(lam, xs)
                    assert abs(a - b) < 1e-10 * max(1.0, abs(a))


# ------------------------------------------------------------------- bounds


def test_total_schur_dim_examples_and_bounds():
    assert total_schur_dim(1, 2).total == 2
    assert total_schur_dim(2, 2).total == 4
    rec = total_schur_dim(2, 2)
    assert rec.total_bound == 9.0
    for n in range(0, 11):
        for d in (2, 3, 4):
            rec = total_schur_dim(n, d)
            assert rec.total <= rec.total_bound + 1e-9
            assert rec.count <= rec.count_bound + 1e-9
            for lam in enumerate_young(n, d):
                assert weyl_dim(lam) <= rec.per_block_bound + 1e-9


@pytest.mark.parametrize("n, d, count", [(3, 40, 3), (20, 30, 627)])
def test_total_schur_dim_saturates_bounds_past_the_float_range(n, d, count):
    rec = total_schur_dim(n, d)
    # Schur's identity: the sum of all s_lam(x) is prod_i (1 - x_i)^-1
    # prod_{i<j} (1 - x_i x_j)^-1, so at x = 1^d the weight-n blocks add up to
    # [t^n] (1 - t)^-d (1 - t^2)^-(d(d-1)/2)
    pairs = d * (d - 1) // 2
    expected = sum(
        math.comb(n - 2 * k + d - 1, d - 1) * math.comb(k + pairs - 1, pairs - 1)
        for k in range(n // 2 + 1)
    )
    assert rec.total == expected
    assert rec.count == count  # partitions of n into at most d parts; here d >= n
    assert rec.count_bound == float(n + 1) ** (d - 1)
    assert rec.per_block_bound == math.inf
    assert rec.total_bound == math.inf


def test_type_entropy_bounds_examples():
    H, lo, up = type_entropy_bounds((0, 4))
    assert H == 0 and up == 1.0 and abs(lo - 1 / 5) < 1e-12
    H, lo, up = type_entropy_bounds((2, 2))
    assert abs(up - 16.0) < 1e-9 and abs(lo - 16.0 / 5) < 1e-9
    assert lo <= 6 <= up
    H, lo, up = type_entropy_bounds((1, 2))
    assert lo <= 3 <= up


@pytest.mark.parametrize(
    "lam,finite_lower",
    [((600, 600), False), ((515, 515), True), ((0,) * 290 + (1,) * 10, True)],
    ids=["600-600", "515-515", "ten-ones-in-300"],
)
def test_type_entropy_bounds_saturate_past_the_float_range(lam, finite_lower):
    # (515, 515): exp(n H) overflows but the lower bound does not;
    # 290 zeros and ten ones: (n + 1)^(d - 1) = 11^299 overflows
    entropy, lower, upper = type_entropy_bounds(lam)
    n = sum(lam)
    assert entropy == -math.fsum((x / n) * math.log(x / n) for x in lam if x)
    assert math.isfinite(lower) == finite_lower
    assert multinomial(lam) <= upper
    if finite_lower:
        log_lower = n * entropy - (len(lam) - 1) * math.log(n + 1)
        assert lower == pytest.approx(math.exp(log_lower), rel=1e-12)
        assert 0 < lower <= multinomial(lam)
    else:
        assert lower == upper == math.inf  # saturated, as total_schur_dim's bounds


@given(st.integers(1, 20), st.integers(2, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_type_entropy_sandwich_random(n, d, data):
    lams = enumerate_young(n, d)
    lam = data.draw(st.sampled_from(lams))
    _, lo, up = type_entropy_bounds(lam)
    m = multinomial(lam)
    assert lo * (1 - 1e-12) <= m <= up * (1 + 1e-12)


def test_weyl_dim_log_bound_examples_and_validity():
    assert weyl_dim_log_bound(2, 1, 0.5) == 0.0
    assert abs(weyl_dim_log_bound(2, 2, 0.5) - 2 * math.sqrt(2)) < 1e-12
    for d in (2, 3, 4):
        for n in (2, 5, 10, 30):
            for s in (0.25, 0.5, 0.75):
                bound = weyl_dim_log_bound(n, d, s)
                for lam in enumerate_young(n, d):
                    assert math.log(weyl_dim(lam)) <= bound + 1e-12


def test_weyl_dim_log_bound_minimizer_grid():
    # the s-minimum of c^(s-1)/(s(1-s)) sits at least as low as the s=1/2 value
    for c in (1.0, 4.0, 25.0):
        values = [c ** (s - 1) / (s * (1 - s)) for s in [k / 200 for k in range(1, 200)]]
        assert min(values) <= c ** (-0.5) * 4 + 1e-12


# -------------------------------------------------------------- cycle types


def test_cycle_types_class_sizes():
    for n in range(1, 11):
        classes = cycle_types(n)
        assert sum(c.size for c in classes) == math.factorial(n)
        assert classes[-1].cycles == (1,) * n and classes[-1].size == 1
        assert classes[0].cycles == (n,) and classes[0].size == math.factorial(n - 1)


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((1, 2))  # must be non-increasing
    with pytest.raises(ValueError):
        CycleType((0,))
