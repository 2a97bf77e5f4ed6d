"""Exact combinatorics of Schur-Weyl blocks for n tensor copies of a d-level system.

A Young index is stored in the increasing convention: a tuple of d
non-negative integers with lam[0] <= ... <= lam[d-1] summing to n.
young_columns is the one enumerator and enumerate_young reads it; the
large-n scan walks its own triangular grids, and young_count counts
without enumerating.  Every block dimension and count is exact (Python
integers and fractions); the type-class sandwich comes as logs, so no
bound leaves the float range.  Kostka numbers are
not here: the distribution engine reads them off as Schur coefficients.
Symmetric-group characters, Schur polynomial expansions, the
horizontal-strip Kostka recursion and the closed-form log bound on a block
dimension serve only as test oracles and live in the test tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    cut to 2 * cap: p_2 passes cap there, and p_1 = 1 for every n, which
    needs no table.  The cost is O(cap * k) for the k passes made, whatever
    n and d are.
    """
    if n < 0 or d < 1 or cap < 0:
        raise ValueError("need n >= 0, d >= 1 and cap >= 0")
    if d == 1:
        return 1
    m = min(n, 2 * cap)
    counts = [1] * (m + 1)  # p_1, so a one-level count makes no pass over m
    for k in range(2, min(d, m) + 1):
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


@lru_cache(maxsize=None)
def total_schur_dim(n: int, d: int) -> SchurDimSummary:
    """Exact total dimension of the direct sum of unitary blocks, and the block count.

    In closed form, by the Schur-Littlewood identity sum_lam s_lam(x) =
    prod_i (1 - x_i)^-1 prod_(i<j) (1 - x_i x_j)^-1 at x = (t, ..., t):
    the weight-n blocks add up to [t^n] (1 - t)^-d (1 - t^2)^-m, m = d(d-1)/2,
    which is sum_k C(d-1 + n-2k, d-1) C(m-1 + k, m-1); at m = 0 only k = 0
    counts.  Cached: it depends on (n, d) alone, and each exact report
    reads it."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    pairs = d * (d - 1) // 2
    total = sum(math.comb(d - 1 + n - 2 * k, d - 1) * math.comb(pairs - 1 + k, pairs - 1)
                for k in range(n // 2 + 1)) if pairs else 1
    # the weights, C(n + d - 1, d - 1) of them, bound the count from above
    count = young_count(n, d, math.comb(n + d - 1, d - 1))
    return SchurDimSummary(n=n, d=d, total=total, count=count)


def type_entropy_bounds(lam: Sequence[int]) -> tuple[float, float, float]:
    """Shannon entropy of lam/n (nats) and the multinomial sandwich in logs.

    Returns (H, log_lower, log_upper) with log_lower = n H - (d-1) log(n+1)
    and log_upper = n H; the log of the exact multinomial n!/prod(lam_i!)
    lies in [log_lower, log_upper] (the method of types).  Requires n >= 1.
    """
    parts = as_young(lam)
    n = sum(parts)
    if n < 1:
        raise ValueError("need total weight >= 1")
    entropy = -math.fsum(
        (x / n) * math.log(x / n) for x in parts if x
    )
    return entropy, n * entropy - (len(parts) - 1) * math.log(n + 1), n * entropy

