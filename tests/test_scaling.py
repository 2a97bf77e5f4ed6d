"""Tests for the maximally-mixed-reference scan.

The scan reimplements block dimensions, Schur values, and tail sums in
vectorized log arithmetic, so everything here cross-checks it against the
exact integer combinatorics and the generic engine on small instances.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from schurest.bounds import sample_complexity_bound
from oracles import schur_eval
from schurest.distribution import distribution
from schurest.estimator import annotate_estimates, tail_probabilities
from schurest.partitions import sn_dim, young_count
from schurest.scaling import (
    ComplexityRow,
    UniformReferenceScan,
    _ScanTables,
    _young_batches,
    calibrated_budget,
    complexity_row,
    geometric_spectrum,
    uniform_reference_scan,
    varentropy_scale_proxy,
)
from schurest.states import DensityMatrix, relative_entropy


def batch_rows(a, columns):
    """The Young indices a + (0, *columns) of one scan batch, as tuples."""
    return [(a,) + tuple(a + int(c) for c in row) for row in zip(*columns)]


def collect_parts(n, d):
    rows = []
    for a, columns in _young_batches(n, d):
        rows.extend(batch_rows(a, columns))
    return rows


def filtered_young(n, d):
    """Non-decreasing d-tuples summing to n, by filtering itertools output."""
    return [t for t in combinations_with_replacement(range(n + 1), d) if sum(t) == n]


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
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_matches_reference_enumeration(self, n, d):
        # same rows, in the same lexicographic order
        assert collect_parts(n, d) == filtered_young(n, d)

    def test_one_batch_per_smallest_part(self):
        for a, columns in _young_batches(13, 3):
            assert all(row[0] == a for row in batch_rows(a, columns))

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


class TestLogDimensions:
    @pytest.mark.parametrize("n,d", [(10, 2), (12, 3), (9, 4)])
    def test_perm_dims_match_exact(self, n, d):
        tables = _ScanTables(n, d, 0.5)
        for a, columns in _young_batches(n, d):
            logs, _ = tables.batch_logs(a, columns)
            for lam, value in zip(batch_rows(a, columns), logs):
                exact, _ = sn_dim(lam)
                assert value == pytest.approx(math.log(exact), rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_schur_values_match_expansion(self, q):
        point = [q**k for k in range(3)]
        tables = _ScanTables(6, 3, q)
        for a, columns in _young_batches(6, 3):
            _, logs = tables.batch_logs(a, columns)
            for lam, value in zip(batch_rows(a, columns), logs):
                assert math.exp(value) == pytest.approx(schur_eval(lam, point), rel=1e-10)


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
        ann = annotate_estimates(distribution(rho, sigma, n))
        report = tail_probabilities(ann, scan.divergence, eps)
        assert scan.delta_plus == pytest.approx(report.delta_plus, abs=1e-10)
        assert scan.delta_minus == pytest.approx(report.delta_minus, abs=1e-10)
        assert scan.block_count == len({atom.young for atom in ann.dist.atoms})

    def test_three_level_matches_generic_backend(self):
        d, n, q, eps = 3, 7, 0.55, 0.4
        spectrum = geometric_spectrum(d, q)
        rho = DensityMatrix(np.diag(spectrum).astype(complex))
        sigma = DensityMatrix(np.eye(d, dtype=complex) / d)
        scan = uniform_reference_scan(d, n, q, eps)
        ann = annotate_estimates(distribution(rho, sigma, n))
        report = tail_probabilities(ann, scan.divergence, eps)
        assert scan.delta_plus == pytest.approx(report.delta_plus, abs=1e-10)
        assert scan.delta_minus == pytest.approx(report.delta_minus, abs=1e-10)

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


class TestBudget:
    def test_calibration_hits_target(self):
        for c0 in (0.0, 0.2, 1.5):
            c = calibrated_budget(c0, target=0.25, epsilon=0.5)
            report = sample_complexity_bound(c, c0, 0.5)
            assert report.simple == pytest.approx(0.25, abs=1e-12)

    def test_zero_variance_budget(self):
        assert calibrated_budget(0.0, target=0.25, epsilon=0.5) == pytest.approx(256.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrated_budget(1.0, target=0.0)
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
        row = complexity_row(2, c, c0, epsilon=0.5, q=0.9)
        assert isinstance(row, ComplexityRow)
        assert row.n == math.ceil(c * 4)
        assert row.bound_simple == pytest.approx(0.25, abs=1e-12)
        assert row.bound_exact <= row.bound_simple + 1e-12
        assert row.tail_mass <= 0.25
        assert row.tomography_ratio > 0

    def test_row_fields_coherent(self):
        row = complexity_row(2, c=30.0, c0=0.0, epsilon=0.5, q=0.8)
        assert row.n == 120
        assert 0 <= row.tail_mass < row.bound_simple
