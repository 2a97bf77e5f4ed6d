#!/usr/bin/env python3
"""Tour of the symmetric-function layer: blocks, dimensions, and multiplicities.

n copies of a d-level system decompose into joint blocks labelled by Young
indices (length-d non-decreasing integer tuples summing to n).  Each block
carries a unitary-group dimension and a symmetric-group dimension, and the
products tile the full d^n-dimensional space exactly.  This script walks that
bookkeeping end to end with exact integer arithmetic.

Run:  python3 demos/01_block_structure.py
"""

import math

import numpy as np

from schurest.distribution import distribution
from schurest.partitions import (
    enumerate_young,
    multinomial,
    sn_dim,
    total_schur_dim,
    type_entropy_bounds,
    weyl_dim,
)
from schurest.states import DensityMatrix


def show_block_table(n: int, d: int) -> None:
    print(f"Blocks for n={n} copies of a d={d} system")
    print(f"{'young':>12} {'unitary dim':>12} {'perm dim':>9} {'product':>9}")
    total = 0
    for young in enumerate_young(n, d):
        u = weyl_dim(young)
        v, _ = sn_dim(young)
        total += u * v
        print(f"{str(young):>12} {u:>12} {v:>9} {u * v:>9}")
    print(f"{'':>12} {'':>12} {'sum':>9} {total:>9}  (d^n = {d**n})")
    assert total == d**n
    print()


def show_multiplicity_tiling(n: int, d: int) -> None:
    """Each unitary block splits across weight vectors with Kostka multiplicity."""
    print(f"Multiplicity tiling at n={n}, d={d}: sum of Kostka numbers per block")
    # the multiplicities depend on (n, d) alone; any state pair lists them
    mixed = DensityMatrix(np.eye(d) / d)
    dist = distribution(mixed, mixed, n)
    slots: dict = {}
    for young, m in zip(dist.youngs, dist.mult):
        slots[young] = slots.get(young, 0) + int(m)
    for young in enumerate_young(n, d):
        u = weyl_dim(young)
        print(f"  {str(young):>12}: {slots[young]:>4} weight slots  == unitary dim {u}")
        assert slots[young] == u
    print()


def show_growth(d: int) -> None:
    """Block count grows polynomially in n while the space grows as d^n."""
    print(f"Polynomial block growth at d={d} (count <= (n+1)^(d-1) shown as ratio)")
    print(f"{'n':>4} {'blocks':>8} {'total dim':>12} {'count/bound':>12}")
    for n in (4, 8, 16, 32):
        summary = total_schur_dim(n, d)
        count_cap = (n + 1) ** (d - 1)
        print(f"{n:>4} {summary.count:>8} {summary.total:>12} {summary.count / count_cap:>12.4f}")
        assert summary.count <= count_cap
        assert summary.total <= (n + 1) ** ((d + 2) * (d - 1) // 2)
    print()


def show_type_entropy(n: int, d: int) -> None:
    """The multinomial weight of a block sits within an entropy-rate sandwich."""
    print(f"Type-counting sandwich at n={n}, d={d}: "
          f"exp(nH)/(n+1)^(d-1) <= multinomial <= exp(nH)")
    print(f"{'young':>12} {'entropy H':>10} {'lower':>10} {'multinomial':>12} {'upper':>10}")
    for young in enumerate_young(n, d):
        entropy, log_lower, log_upper = type_entropy_bounds(young)
        multi = multinomial(young)
        lower, upper = math.exp(log_lower), math.exp(log_upper)
        print(f"{str(young):>12} {entropy:>10.4f} {lower:>10.3f} {multi:>12} {upper:>10.3f}")
        assert log_lower - 1e-12 <= math.log(multi) <= log_upper + 1e-12
    print()


def main() -> None:
    show_block_table(4, 2)
    show_block_table(3, 3)
    show_multiplicity_tiling(4, 2)
    show_growth(2)
    show_growth(3)
    show_type_entropy(6, 2)
    print("All exact identities verified.")


if __name__ == "__main__":
    main()
