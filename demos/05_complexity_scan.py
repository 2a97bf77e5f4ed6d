#!/usr/bin/env python3
"""Copy budgets that scale as O(d^2): calibration and exact verification.

How many copies n guarantee P{|x - D| > eps} <= 1/4?  The closed-form answer
is n = c * d^2 with c = (sqrt(c0) + 4)^2 / (0.25 * eps^2), where c0 calibrates
the worst varentropy-to-d^2 ratio over a family of states.  That is
quadratically better in d than full tomography of the unknown state.

This script calibrates c0 empirically, derives the budget for eps = 0.5, and
then *proves* the guarantee for a concrete instance (measured state with a
geometric spectrum, maximally mixed reference state) by streaming over every
block of the exact outcome distribution at the full calibrated n — hundreds
of millions of blocks at d = 4 — and summing the true tail mass.

Run:       python3 demos/05_complexity_scan.py          (d = 2, 3; about 1 s)
Full run:  python3 demos/05_complexity_scan.py --full   (adds d = 4; about 10 s)
"""

import argparse
import math

from schurest.bounds import tomography_baseline
from schurest.scaling import (BUDGET_TARGET, calibrated_budget, complexity_row,
                              varentropy_scale_proxy)

EPSILON = 0.5


def scan_dimension(d: int) -> None:
    c0 = varentropy_scale_proxy(d)
    c = calibrated_budget(c0, epsilon=EPSILON)
    row = complexity_row(d, c, c0, epsilon=EPSILON)
    baseline = tomography_baseline(d, math.log(d) / d, EPSILON)

    print(f"d = {d}")
    print(f"  varentropy scale c0 = max V / d^2 over the probe family: {c0:.4f}")
    print(f"  calibrated budget c = (sqrt(c0)+4)^2 / ({BUDGET_TARGET} * {EPSILON}^2): {c:.1f}")
    print(f"  copies n = ceil(c * d^2) = {row.n}")
    print(f"  closed-form failure bound at that n: {row.bound_simple:.4f} (target {BUDGET_TARGET})")
    lower = ("empty" if row.log_delta_minus == -math.inf
             else f"log P = {row.log_delta_minus:.1f}")
    print(f"  exact upper-tail mass from the full block scan: log P = {row.log_delta_plus:.1f}"
          f" (lower side {lower})")
    print(f"  exact total tail {row.tail_mass:.3e} <= bound {row.bound_simple:.4f}: "
          f"{'OK' if row.tail_mass <= row.bound_simple else 'VIOLATED'}")
    print(f"  tomography baseline for the same accuracy: ~{baseline:.0f} copies "
          f"(ratio to this budget: {row.tomography_ratio:.3f})")
    assert row.tail_mass <= row.bound_simple
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="include d = 4 (about 10 s)")
    args = parser.parse_args()

    dims = (2, 3, 4) if args.full else (2, 3)
    for d in dims:
        scan_dimension(d)

    print("At every dimension the exact tail mass at the calibrated budget sits far")
    print("below the 1/4 target, confirming the O(d^2) copy scaling with exact")
    print("arithmetic rather than a bound-on-top-of-bound argument.")
    if not args.full:
        print("(Pass --full to add the d = 4 scan: ~6.7e8 blocks, about 10 s.)")


if __name__ == "__main__":
    main()
