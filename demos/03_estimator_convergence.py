#!/usr/bin/env python3
"""Convergence of the block-measurement estimator as the copy count grows.

Three finite-n effects are visible at once:

  1. the positive bias of the mean of x above D, inside its O(log n / n) window;
  2. the exact mean-square error staying under the closed-form bound
     (sqrt(V/n) + log(total block dimension)/n)^2
     while n * MSE approaches the varentropy V;
  3. the standardized distribution of x approaching a normal limit
     (Kolmogorov-Smirnov distance shrinking in n).

Run:  python3 demos/03_estimator_convergence.py
"""

import math

from schurest.distribution import distribution
from schurest.estimator import estimate_report, normality_report
from schurest.states import (
    diagonal_state,
    random_mixed,
    relative_entropy,
    relative_varentropy,
)


def convergence_table(rho, sigma, n_values) -> None:
    d_true = relative_entropy(rho, sigma)
    v_true = relative_varentropy(rho, sigma)
    d = rho.dim
    print(f"dim {d}: D = {d_true:.6f}, V = {v_true:.6f}")
    header = f"{'n':>4} {'bias':>10} {'bias window':>12} {'MSE':>11} {'bound':>11} {'n*MSE':>8} {'KS':>8}"
    print(header)
    for n in n_values:
        rep = estimate_report(rho, sigma, n)
        window = (d + 1) * (d - 1) * math.log(n + 1) / n
        dist = distribution(rho, sigma, n)
        ks = normality_report(dist, d_true, v_true).ks
        print(
            f"{n:>4} {rep.bias:>10.6f} {window:>12.6f} {rep.mse:>11.6f} "
            f"{rep.mse_bound:>11.6f} {n * rep.mse:>8.4f} {ks:>8.4f}"
        )
        assert -1e-12 <= rep.bias <= window + 1e-9
        assert rep.mse <= rep.mse_bound + 1e-12
    print(f"{'':>4} {'':>10} {'':>12} {'':>11} {'target':>11} {v_true:>8.4f}\n")


def main() -> None:
    print("Commuting pair (both states diagonal):")
    rho_c = diagonal_state([0.72, 0.28])
    sigma_c = diagonal_state([0.40, 0.60])
    convergence_table(rho_c, sigma_c, (2, 4, 8, 16, 30))

    print("Non-commuting qubit pair:")
    rho = random_mixed(2, seed=11, floor=0.05)
    sigma = random_mixed(2, seed=2011, floor=0.05)
    convergence_table(rho, sigma, (2, 4, 8, 16, 30))

    print("Qutrit pair:")
    rho3 = random_mixed(3, seed=21, floor=0.05)
    sigma3 = random_mixed(3, seed=2021, floor=0.05)
    convergence_table(rho3, sigma3, (2, 4, 8, 12))

    print("In every table the bias stays inside its logarithmic window, the exact")
    print("MSE stays under the closed-form bound, n*MSE approaches the varentropy,")
    print("and the KS distance to the normal limit decreases.")


if __name__ == "__main__":
    main()
