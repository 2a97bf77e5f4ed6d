#!/usr/bin/env python3
"""Monte Carlo draws from the exact distribution, plus the command-line surface.

The exact outcome table doubles as a sampler: inverse-CDF draws of (x, x_star)
pairs reproduce the exact mean and MSE at the usual 1/sqrt(m) rate.  The same
computations are reachable without writing Python via the `schurest` command;
this script shells out to a few subcommands to show the round trip.

Run:  python3 demos/06_monte_carlo_and_cli.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from schurest.distribution import distribution
from schurest.estimator import exact_mse, sample_outcomes
from schurest.states import random_mixed, relative_entropy, save_state


def monte_carlo_section() -> None:
    rho = random_mixed(2, seed=42, floor=0.05)
    sigma = random_mixed(2, seed=1042, floor=0.05)
    n = 10
    d_true = relative_entropy(rho, sigma)
    dist = distribution(rho, sigma, n)
    mean_exact = dist.mean_x()
    mse_exact = exact_mse(dist, d_true)

    print(f"Sampling the exact n = {n} outcome distribution (D = {d_true:.6f})")
    print(f"{'draws m':>9} {'sample mean':>12} {'|error|':>10} {'sample MSE':>11} {'|error|':>10}")
    for m in (100, 10_000, 1_000_000):
        draws = sample_outcomes(dist, m, seed=2024)
        mean_mc = float(draws[:, 0].mean())
        mse_mc = float(np.mean((draws[:, 0] - d_true) ** 2))
        print(
            f"{m:>9} {mean_mc:>12.6f} {abs(mean_mc - mean_exact):>10.2e} "
            f"{mse_mc:>11.6f} {abs(mse_mc - mse_exact):>10.2e}"
        )
    print(f"{'exact':>9} {mean_exact:>12.6f} {'':>10} {mse_exact:>11.6f}\n")


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "schurest.cli", *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def cli_section() -> None:
    print("The same numbers through the command line:")
    with tempfile.TemporaryDirectory() as tmp:
        rho_path = Path(tmp) / "rho.json"
        sigma_path = Path(tmp) / "sigma.json"
        save_state(rho_path, random_mixed(2, seed=42, floor=0.05))
        save_state(sigma_path, random_mixed(2, seed=1042, floor=0.05))

        out = run_cli(
            "estimate", "--rho", str(rho_path), "--sigma", str(sigma_path), "--n", "10"
        )
        report = json.loads(out)
        print("  schurest estimate --n 10 ->")
        for key in ("D", "mean_x", "bias", "mse", "mse_bound"):
            print(f"    {key:>10}: {report[key]}")

        dims = json.loads(run_cli("dims", "--n", "10", "--d", "2", "--format", "json"))
        print(f"  schurest dims --n 10 --d 2 -> {dims['count']} blocks, "
              f"total dimension {dims['total_dim']}")

        tail = json.loads(run_cli(
            "tail", "--rho", str(rho_path), "--sigma", str(sigma_path),
            "--n", "10", "--epsilon", "0.5",
        ))
        print(f"  schurest tail --epsilon 0.5 -> delta_plus = {tail['delta_plus']}, "
              f"bound_plus = {tail['bound_plus']}")

    print("\nRe-running any subcommand with the same arguments reproduces the bytes")
    print("exactly; `schurest verify` checks that and the paper's finite-size claims.")


def main() -> None:
    monte_carlo_section()
    cli_section()


if __name__ == "__main__":
    main()
