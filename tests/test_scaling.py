"""Tests for the maximally-mixed-reference scan.

The scan reimplements block dimensions, Schur values, and tail sums in
vectorized log arithmetic over strided table views, so everything here
cross-checks it against the exact integer combinatorics, the generic
engine, and the gathered-batch scan kept in the oracles.
"""

import math
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest

from schurest.bounds import sample_complexity_bound
from oracles import gather_scan, schur_eval
from schurest.distribution import distribution
from schurest.estimator import tail_probabilities
from schurest.partitions import sn_dim, young_count
from schurest.scaling import (
    BUDGET_TARGET,
    SCAN_MAX_N,
    SCAN_MAX_YOUNG,
    ComplexityRow,
    UniformReferenceScan,
    _BAND_CELLS,
    _check_scan_size,
    _ScanTables,
    calibrated_budget,
    complexity_row,
    geometric_spectrum,
    uniform_reference_scan,
    varentropy_scale_proxy,
)
from schurest.states import DensityMatrix, relative_entropy


def grid_young(n, d, prefix, row, t):
    """The Young index in row `row`, column t of the grid after prefix, or
    None for a cell past the row's end."""
    if d == 2:
        return (t, n - t)
    shifted = [part + i for i, part in enumerate(prefix)]
    u = (shifted[-1] + 1 if shifted else 0) + row
    rest = n + d * (d - 1) // 2 - sum(shifted)
    shifted += [u, u + 1 + t, rest - 2 * u - 1 - t]
    if shifted[-1] <= shifted[-2]:
        return None
    return tuple(part - i for i, part in enumerate(shifted))


def band_cells(n, d, q=0.5):
    """(band, young, log dimV, log mass) of every Young index in the scan's
    bands, in scan order; cells past a row's end must read NaN and -inf."""
    cells = []
    for index, band in enumerate(_ScanTables(n, d, q).bands()):
        rows, width = band.log_v.shape
        assert band.log_mass.shape == (rows, width)
        held = 0
        for r in range(rows):
            for t in range(width):
                young = grid_young(n, d, band.prefix, band.first_row + r, t)
                log_v, log_mass = float(band.log_v[r, t]), float(band.log_mass[r, t])
                if young is None:
                    assert math.isnan(log_v) and log_mass == -math.inf
                else:
                    held += 1
                    cells.append((index, young, log_v, log_mass))
        assert band.blocks == held
    return cells


def collect_parts(n, d):
    return [young for _, young, _, _ in band_cells(n, d)]


def filtered_young(n, d):
    """Non-decreasing d-tuples summing to n, by filtering itertools output."""
    return [t for t in combinations_with_replacement(range(n + 1), d) if sum(t) == n]


def assert_scans_agree(scan, reference):
    assert scan.block_count == reference.block_count
    assert abs(scan.total_mass - reference.total_mass) <= 1e-11
    for value, expected in (
        (scan.log_delta_plus, reference.log_delta_plus),
        (scan.log_delta_minus, reference.log_delta_minus),
    ):
        if math.isinf(expected):
            assert value == expected
        else:
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


class TestGeometricSpectrum:
    def test_normalized_and_decreasing(self):
        for d in (2, 3, 4):
            for q in (0.2, 0.5, 0.9):
                s = geometric_spectrum(d, q)
                assert abs(s.sum() - 1.0) < 1e-14
                ratios = s[1:] / s[:-1]
                assert np.allclose(ratios, q, atol=1e-14)

    def test_rejects_bad_ratio(self):
        for q in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                geometric_spectrum(3, q)


class TestEnumeration:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_matches_reference_enumeration(self, n, d):
        # same rows, in the same lexicographic order; d = 5 runs the grid
        # after a two-part prefix, past the scan's own SCAN_MAX_D
        assert collect_parts(n, d) == filtered_young(n, d)

    def test_one_batch_per_smallest_part(self):
        # at d = 4 there is one grid per smallest part a, in order, and its
        # bands cover its rows from row 0 on without a gap or an overlap
        next_row = {}
        for band in _ScanTables(400, 4, 0.5).bands():
            assert band.first_row == next_row.get(band.prefix, 0)
            next_row[band.prefix] = band.first_row + len(band.log_v)
        assert list(next_row) == [(a,) for a in range(400 // 4 + 1)]
        assert next_row[(0,)] == (400 + 3) // 3  # rows u = 1 .. (n + 3) / 3

    def test_two_row_count(self):
        assert len(collect_parts(25, 2)) == 13
        assert len(collect_parts(24, 2)) == 13

    def test_rows_are_valid_shapes(self):
        for row in collect_parts(9, 4):
            assert sum(row) == 9
            assert all(0 <= row[i] <= row[i + 1] for i in range(3))

    @pytest.mark.parametrize("d,n", [(2, 301), (3, 80), (4, 40)])
    def test_scan_block_count(self, d, n):
        scan = uniform_reference_scan(d, n, q=0.8, epsilon=1.0)
        assert scan.block_count == young_count(n, d, 10**6)

    def test_block_count_at_every_small_size_raises_no_float_flag(self):
        # the NaN and -inf of cells past a row's end must not trip a flag
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for d in (2, 3, 4):
                for n in range(1, 61):
                    scan = uniform_reference_scan(d, n, q=0.7, epsilon=0.2)
                    assert scan.block_count == young_count(n, d, 10**6)

    def test_bands_stay_within_the_cell_limit(self):
        # d = 3, n = 400: rows of about 200 cells, many rows per band
        bands = list(_ScanTables(400, 3, 0.5).bands())
        assert len(bands) > 1
        assert all(band.log_v.size <= _BAND_CELLS for band in bands)


class TestLogDimensions:
    @pytest.mark.parametrize("n,d", [(10, 2), (12, 3), (9, 4), (9, 5)])
    def test_perm_dims_match_exact(self, n, d):
        for _, lam, value, _ in band_cells(n, d):
            exact, _ = sn_dim(lam)
            assert value == pytest.approx(math.log(exact), rel=1e-12)

    def test_log_factorial_table_matches_high_precision_reference(self):
        table = _ScanTables(5000, 2, 0.5).log_factorial
        assert len(table) == 5003 and table[0] == table[1] == 0.0
        with mpmath.workdps(50):
            worst = max(
                float(abs(mpmath.mpf(float(value)) - exact)) / math.ulp(float(exact))
                for value, exact in ((table[k], mpmath.loggamma(k + 1)) for k in range(2, len(table)))
            )
        assert worst <= 4.0

    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_schur_values_match_expansion(self, q):
        # log mass - log dimV is the Schur value at the normalized spectrum
        for d in (2, 3, 4):
            spectrum = geometric_spectrum(d, q)
            for _, lam, log_v, log_mass in band_cells(6, d, q):
                value = math.exp(log_mass - log_v)
                assert value == pytest.approx(schur_eval(lam, spectrum), rel=1e-10)


class TestScan:
    @pytest.mark.parametrize("d,n,tol", [(2, 300, 1e-10), (3, 80, 1e-9), (4, 40, 1e-8)])
    def test_total_mass_is_one(self, d, n, tol):
        scan = uniform_reference_scan(d, n, q=0.8, epsilon=1.0)
        assert scan.total_mass == pytest.approx(1.0, abs=tol)

    def test_matches_generic_backend(self):
        d, n, q, eps = 2, 12, 0.8, 0.3
        spectrum = geometric_spectrum(d, q)
        rho = DensityMatrix(np.diag(spectrum).astype(complex))
        sigma = DensityMatrix(np.eye(d, dtype=complex) / d)
        scan = uniform_reference_scan(d, n, q, eps)
        assert scan.divergence == pytest.approx(relative_entropy(rho, sigma), abs=1e-12)
        dist = distribution(rho, sigma, n)
        report = tail_probabilities(dist, scan.divergence, eps)
        assert scan.delta_plus == pytest.approx(report.delta_plus, abs=1e-10)
        assert scan.delta_minus == pytest.approx(report.delta_minus, abs=1e-10)
        assert scan.block_count == len(set(dist.youngs))

    def test_three_level_matches_generic_backend(self):
        d, n, q, eps = 3, 7, 0.55, 0.4
        spectrum = geometric_spectrum(d, q)
        rho = DensityMatrix(np.diag(spectrum).astype(complex))
        sigma = DensityMatrix(np.eye(d, dtype=complex) / d)
        scan = uniform_reference_scan(d, n, q, eps)
        dist = distribution(rho, sigma, n)
        report = tail_probabilities(dist, scan.divergence, eps)
        assert scan.delta_plus == pytest.approx(report.delta_plus, abs=1e-10)
        assert scan.delta_minus == pytest.approx(report.delta_minus, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 12])
    def test_four_level_matches_generic_backend(self, n):
        d, q, eps = 4, 0.1, 0.2
        spectrum = geometric_spectrum(d, q)
        rho = DensityMatrix(np.diag(spectrum).astype(complex))
        sigma = DensityMatrix(np.eye(d, dtype=complex) / d)
        scan = uniform_reference_scan(d, n, q, eps)
        dist = distribution(rho, sigma, n)
        report = tail_probabilities(dist, scan.divergence, eps)
        assert scan.delta_plus == pytest.approx(report.delta_plus, abs=1e-10)
        assert scan.delta_minus == pytest.approx(report.delta_minus, abs=1e-10)
        assert scan.block_count == len(set(dist.youngs))
        assert scan.delta_plus > 0 and scan.delta_minus > 0  # both tails are checked

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 7, 40, 199, 800])
    def test_matches_gathered_batches(self, d, n):
        for q, eps in ((0.3, 0.05), (0.8, 0.3), (0.95, 1.0)):
            scan = uniform_reference_scan(d, n, q, eps)
            assert_scans_agree(scan, gather_scan(d, n, q, eps))

    def test_tails_shrink_with_epsilon(self):
        masses = []
        for eps in (0.1, 0.3, 0.6, 1.2):
            scan = uniform_reference_scan(3, 60, q=0.7, epsilon=eps)
            masses.append(scan.tail_mass)
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        # at eps below the finite-n bias the window misses the bulk entirely
        assert all(m <= 1.0 + 1e-9 for m in masses)
        assert masses[-1] < 1e-6

    def test_tails_shrink_with_n(self):
        small = uniform_reference_scan(2, 50, q=0.6, epsilon=0.4)
        large = uniform_reference_scan(2, 400, q=0.6, epsilon=0.4)
        assert large.tail_mass < small.tail_mass
        assert large.log_delta_plus < small.log_delta_plus

    def test_log_and_linear_tails_agree(self):
        scan = uniform_reference_scan(2, 40, q=0.5, epsilon=0.2)
        assert scan.delta_plus == pytest.approx(math.exp(scan.log_delta_plus), rel=1e-12)
        assert scan.delta_minus == pytest.approx(math.exp(scan.log_delta_minus), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_reference_scan(5, 10, q=0.5, epsilon=0.3)
        with pytest.raises(ValueError):
            uniform_reference_scan(2, 0, q=0.5, epsilon=0.3)
        with pytest.raises(ValueError):
            uniform_reference_scan(2, 10, q=0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            uniform_reference_scan(2, 10, q=1.0, epsilon=0.3)

    @pytest.mark.parametrize("epsilon", [math.nan, -math.inf, -0.0])
    def test_rejects_epsilon_not_above_zero(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            uniform_reference_scan(2, 10, q=0.5, epsilon=epsilon)

    @pytest.mark.parametrize("d,n", [(4, 16000), (3, 10**6), (4, 10**30), (2, SCAN_MAX_N + 1)])
    def test_refuses_oversized_scans_before_any_table(self, d, n, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr("schurest.scaling._ScanTables.__init__", no_tables)
        with pytest.raises(ValueError, match="scan"):
            uniform_reference_scan(d, n, q=0.9, epsilon=0.5)

    def test_size_guard_admits_the_calibrated_budgets(self):
        # criterion 12 runs (4, 4585): about 6.7e8 Young indices
        for d, n in ((2, SCAN_MAX_N), (3, 2621), (4, 4585)):
            _check_scan_size(d, n)
        assert young_count(4585, 4, SCAN_MAX_YOUNG) <= SCAN_MAX_YOUNG


class TestBudget:
    def test_calibration_hits_target(self):
        assert BUDGET_TARGET == 0.25
        for c0 in (0.0, 0.2, 1.5):
            c = calibrated_budget(c0, epsilon=0.5)
            report = sample_complexity_bound(c, c0, 0.5)
            assert report.simple == pytest.approx(0.25, abs=1e-12)

    def test_zero_variance_budget(self):
        assert calibrated_budget(0.0, epsilon=0.5) == pytest.approx(256.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrated_budget(1.0, epsilon=-1.0)


class TestVarentropyProxy:
    def test_positive_and_modest(self):
        value = varentropy_scale_proxy(2, seeds=range(4))
        assert 0 < value < 1.0

    def test_dominates_named_family_member(self):
        from schurest.states import relative_varentropy

        d = 3
        uniform = DensityMatrix(np.eye(d, dtype=complex) / d)
        member = DensityMatrix(np.diag(geometric_spectrum(d, 0.6)).astype(complex))
        proxy = varentropy_scale_proxy(d, seeds=range(4))
        assert proxy >= relative_varentropy(member, uniform) / d**2 - 1e-12


class TestComplexityRow:
    def test_calibrated_qubit_row(self):
        c0 = varentropy_scale_proxy(2, seeds=range(4))
        c = calibrated_budget(c0)
        row = complexity_row(2, c, c0, epsilon=0.5)
        assert isinstance(row, ComplexityRow)
        assert row.n == math.ceil(c * 4)
        assert row.bound_simple == pytest.approx(0.25, abs=1e-12)
        assert row.bound_exact <= row.bound_simple + 1e-12
        assert row.tail_mass <= 0.25
        assert row.tomography_ratio > 0

    def test_row_fields_coherent(self):
        row = complexity_row(2, c=30.0, c0=0.0, epsilon=0.5)
        assert row.n == 120
        assert 0 <= row.tail_mass < row.bound_simple
