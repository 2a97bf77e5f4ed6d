"""Exact combinatorics of Schur-Weyl blocks for n tensor copies of a d-level system.

A Young index is stored in the increasing convention: a tuple of d
non-negative integers with lam[0] <= ... <= lam[d-1] summing to n.
young_columns is the one enumerator and enumerate_young reads it; the
large-n scan walks its own triangular grids, and young_count counts
without enumerating.  Every block dimension is exact (Python integers
and fractions); floating point appears only in the explicit *_bound
helpers, which evaluate closed-form inequalities.  Kostka numbers are
not here: the distribution engine reads them off as Schur coefficients.
Symmetric-group characters, Schur polynomial expansions and the
horizontal-strip Kostka recursion serve only as test oracles and live in
the test tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SchurDimSummary",
    "as_young",
    "compositions",
    "enumerate_young",
    "multinomial",
    "sn_dim",
    "total_schur_dim",
    "type_entropy_bounds",
    "weyl_dim",
    "weyl_dim_log_bound",
    "young_columns",
    "young_count",
]


def as_young(lam: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a Young index (non-decreasing, non-negative)."""
    parts = tuple(int(x) for x in lam)
    if not parts:
        raise ValueError("Young index must have at least one part")
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in Young index {parts}")
    if any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"Young index must be non-decreasing, got {parts}")
    return parts


def young_columns(n: int, d: int) -> list[np.ndarray]:
    """The Young indices of (n, d) as d int64 columns, in enumerate_young order.

    Built one part at a time: part k runs from part k-1 up to rem // slots
    (the parts still to place are at least as large), and every prefix row
    is expanded by one np.repeat.  The last part is the remainder.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    columns: list[np.ndarray] = []
    rem = np.array([n], dtype=np.int64)
    lo = np.zeros(1, dtype=np.int64)
    for slots in range(d, 1, -1):
        # every count is >= 1: a part <= rem // slots leaves room for the rest
        counts = rem // slots - lo + 1
        row = np.repeat(np.arange(len(rem)), counts)
        starts = np.cumsum(counts) - counts
        lo = lo[row] + np.arange(len(row)) - starts[row]
        if len(row) > len(rem):  # otherwise every count is 1 and row is the identity
            columns = [column[row] for column in columns]
        columns.append(lo)
        rem = rem[row] - lo
    return columns + [rem]


def enumerate_young(n: int, d: int) -> list[tuple[int, ...]]:
    """All non-decreasing d-tuples of non-negative integers summing to n.

    Lexicographic order; the list has at most (n+1)**(d-1) entries.
    """
    return list(zip(*(column.tolist() for column in young_columns(n, d))))


def young_count(n: int, d: int, cap: int) -> int:
    """Number of Young indices of (n, d) without enumerating them, or cap + 1 past cap.

    The count is p_d(n), the partitions of n into at most d parts, from
    p_k(m) = p_(k-1)(m) + p_k(m - k).  It never decreases in n or in d, so
    the recurrence stops at the first k whose count passes cap, and n is
    cut to 2 * cap: p_2 passes cap there, and p_1 = 1 for every n.  The
    cost is O(cap * k) for the k passes made, whatever n and d are.
    """
    if n < 0 or d < 1 or cap < 0:
        raise ValueError("need n >= 0, d >= 1 and cap >= 0")
    m = min(n, 2 * cap)
    counts = [1] + [0] * m
    for k in range(1, min(d, m) + 1):
        for j in range(k, m + 1):
            counts[j] += counts[j - k]
        if counts[m] > cap:
            return cap + 1
    return counts[m]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`, lexicographic."""
    if parts < 1:
        raise ValueError("need at least one part")
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def multinomial(lam: Sequence[int]) -> int:
    """n! / prod(lam_i!) as an exact integer, a product of binomials."""
    value = 1
    total = 0
    for x in map(int, lam):
        total += x
        value *= math.comb(total, x)
    return value


def weyl_dim(lam: Sequence[int]) -> int:
    """Dimension of the unitary-group block, by Weyl's product formula.

    With the increasing convention every factor (j - i + lam[j] - lam[i])
    with i < j is a positive integer, so the product is exact.  Pairs with
    equal parts contribute (j - i) / (j - i) and are skipped, so the
    integers stay small when most parts are equal (large d, small n).
    """
    parts = as_young(lam)
    d = len(parts)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            if parts[j] != parts[i]:
                num *= j - i + parts[j] - parts[i]
                den *= j - i
    dim, r = divmod(num, den)
    if r or dim < 1:
        raise ArithmeticError(f"Weyl product for {parts} is not a positive integer")
    return dim


def sn_dim(lam: Sequence[int]) -> tuple[int, Fraction]:
    """Dimension of the symmetric-group block and its size ratio.

    Returns (dim, ratio) where ratio = dim * prod(lam_i!) / n! in (0, 1],
    i.e. dim = multinomial(lam) * ratio.  The ratio is an exact fraction:

        ratio = prod over i < j of (lam[j] - lam[i] + j - i) / (lam[j] + j - i)

    (1-based indices), and the product dim must come out an integer.  A
    factor with lam[i] = 0 is 1, so the loop starts at the first nonzero part.
    """
    parts = as_young(lam)
    d = len(parts)
    ratio = Fraction(1)
    for i in range(d - sum(1 for x in parts if x) + 1, d + 1):
        for j in range(i + 1, d + 1):
            ratio *= Fraction(parts[j - 1] - parts[i - 1] + j - i, parts[j - 1] + j - i)
    dim_frac = multinomial(parts) * ratio
    if not 0 < ratio <= 1 or dim_frac.denominator != 1:
        raise ArithmeticError(f"hook ratio {ratio} for {parts} gives no positive integer dimension")
    return int(dim_frac), ratio


@dataclass(frozen=True)
class SchurDimSummary:
    """Total block-dimension count for n copies of a d-level system."""

    n: int
    d: int
    total: int  # sum over Young indices of the unitary block dimension
    count: int  # number of Young indices
    per_block_bound: float  # (n+1)^(d(d-1)/2), bounds every single block
    count_bound: float  # (n+1)^(d-1)
    total_bound: float  # (n+1)^((d+2)(d-1)/2)


def _power_bound(base: int, exponent: float) -> float:
    """float(base) ** exponent, saturating at inf past the float range."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def _exp_bound(exponent: float) -> float:
    """math.exp(exponent), saturating at inf past the float range."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def total_schur_dim(n: int, d: int) -> SchurDimSummary:
    """Exact total dimension of the direct sum of unitary blocks, with bounds.

    The total and the count are exact integers at any size; a bound past
    the float range reads inf.
    """
    dims = [weyl_dim(lam) for lam in enumerate_young(n, d)]
    return SchurDimSummary(
        n=n,
        d=d,
        total=sum(dims),
        count=len(dims),
        per_block_bound=_power_bound(n + 1, d * (d - 1) / 2),
        count_bound=_power_bound(n + 1, d - 1),
        total_bound=_power_bound(n + 1, (d + 2) * (d - 1) / 2),
    )


def type_entropy_bounds(lam: Sequence[int]) -> tuple[float, float, float]:
    """Shannon entropy of lam/n (nats) and the multinomial sandwich.

    Returns (H, lower, upper) with lower = exp(n H)/(n+1)**(d-1) and
    upper = exp(n H); the exact multinomial n!/prod(lam_i!) lies in
    [lower, upper].  A bound past the float range reads inf.  Requires
    n >= 1.
    """
    parts = as_young(lam)
    n = sum(parts)
    if n < 1:
        raise ValueError("need total weight >= 1")
    d = len(parts)
    entropy = -math.fsum(
        (x / n) * math.log(x / n) for x in parts if x
    )
    try:
        upper = math.exp(n * entropy)
        lower = upper / float(n + 1) ** (d - 1)
    except OverflowError:  # a term past the float range: take both through logs
        upper = _exp_bound(n * entropy)
        lower = _exp_bound(n * entropy - (d - 1) * math.log(n + 1))
    return entropy, lower, upper


def weyl_dim_log_bound(n: int, d: int, s: float) -> float:
    """Closed-form upper bound on the log of any unitary block dimension.

    For every Young index with d parts and weight n,
    log(weyl_dim) <= sum over l in 1..d-1 of (d-l)^(1-s) n^s / (s l^s),
    valid for s in (0, 1).  Returns 0 for d = 1.
    """
    if not 0 < s < 1:
        raise ValueError("need s in (0, 1)")
    return math.fsum(
        (d - level) ** (1 - s) * n**s / (s * level**s) for level in range(1, d)
    )
