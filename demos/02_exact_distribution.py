#!/usr/bin/env python3
"""Exact outcome distribution of the joint block measurement, atom by atom.

Measuring n copies of a state rho with the block projectors built from a
reference state sigma yields a pair (young index, weight vector) with an
exactly computable probability.  The per-atom statistic

    x = -(1/n) * log(unit outcome weight)

estimates the relative entropy D(rho || sigma).  This script prints the whole
outcome table for a small instance and compares the mean of x against the
true divergence.  The independent references the table is tested against
(sums over all d^n basis strings, dense projectors) are in tests/oracles.py.

Run:  python3 demos/02_exact_distribution.py
"""

import numpy as np

from schurest.distribution import distribution
from schurest.estimator import annotate_estimates
from schurest.states import random_mixed, relative_entropy, relative_varentropy

N = 6


def main() -> None:
    rho = random_mixed(2, seed=7, floor=0.05)
    sigma = random_mixed(2, seed=1007, floor=0.05)
    d_true = relative_entropy(rho, sigma)
    v_true = relative_varentropy(rho, sigma)
    print(f"Random qubit pair: D = {d_true:.6f}, V = {v_true:.6f}")
    print(f"Joint measurement on n = {N} copies\n")

    dist = distribution(rho, sigma, N)
    ann = annotate_estimates(dist)

    print(f"{'young':>8} {'weight':>8} {'mult':>5} {'probability':>13} {'x':>9} {'x_star':>9}")
    for atom, x, x_star in zip(dist.atoms, ann.x, ann.x_star):
        print(
            f"{str(atom.young):>8} {str(atom.weight):>8} {atom.multiplicity:>5} "
            f"{atom.p:>13.9f} {x:>9.5f} {x_star:>9.5f}"
        )
    total = float(np.sum(dist.p))
    print(f"\nTotal probability: {total:.15f}")
    assert abs(total - 1.0) < 1e-12

    mean_x = ann.mean_x()
    print(f"\nMean of x:            {mean_x:.6f}")
    print(f"True divergence D:    {d_true:.6f}")
    print(f"Finite-size bias:     {mean_x - d_true:+.6f}  (always >= 0; shrinks like log(n)/n)")
    assert mean_x >= d_true - 1e-12

    # The explicit surrogate x_star never exceeds x, and the gap has a
    # per-atom bound that vanishes as n grows.
    gaps = ann.x - ann.x_star
    print(f"x - x_star range:     [{gaps.min():.6f}, {gaps.max():.6f}]  (bounded by {ann.gap_bound.max():.6f})")
    assert gaps.min() >= -1e-12


if __name__ == "__main__":
    main()
