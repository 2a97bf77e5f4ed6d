"""Exact combinatorics of Schur-Weyl blocks for n tensor copies of a d-level system.

A Young index is stored in the increasing convention: a tuple of d
non-negative integers with lam[0] <= ... <= lam[d-1] summing to n.  Every
dimension, character, and class size is exact (Python integers and
fractions); floating point appears only in the explicit *_bound helpers,
which evaluate closed-form inequalities.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

__all__ = [
    "CycleType",
    "SchurDimSummary",
    "as_young",
    "character",
    "compositions",
    "cycle_types",
    "enumerate_young",
    "kostka",
    "multinomial",
    "schur_eval",
    "sn_dim",
    "total_schur_dim",
    "type_entropy_bounds",
    "weyl_dim",
    "weyl_dim_log_bound",
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


def enumerate_young(n: int, d: int) -> list[tuple[int, ...]]:
    """All non-decreasing d-tuples of non-negative integers summing to n.

    Lexicographic order; the list has at most (n+1)**(d-1) entries.
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    result: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], rem: int, lo: int) -> None:
        slots = d - len(prefix)
        if slots == 1:
            if rem >= lo:
                result.append(prefix + (rem,))
            return
        # the smallest remaining part is at most rem // slots
        for v in range(lo, rem // slots + 1):
            extend(prefix + (v,), rem - v, v)

    extend((), n, 0)
    return result


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
    """n! / prod(lam_i!) as an exact integer."""
    parts = [int(x) for x in lam]
    n = sum(parts)
    den = 1
    for x in parts:
        den *= math.factorial(x)
    value, r = divmod(math.factorial(n), den)
    assert r == 0
    return value


def weyl_dim(lam: Sequence[int]) -> int:
    """Dimension of the unitary-group block, by Weyl's product formula.

    With the increasing convention every factor (j - i + lam[j] - lam[i])
    with i < j is a positive integer, so the product is exact.
    """
    parts = as_young(lam)
    d = len(parts)
    num = 1
    den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= j - i + parts[j] - parts[i]
            den *= j - i
    dim, r = divmod(num, den)
    assert r == 0 and dim >= 1
    return dim


def sn_dim(lam: Sequence[int]) -> tuple[int, Fraction]:
    """Dimension of the symmetric-group block and its size ratio.

    Returns (dim, ratio) where ratio = dim * prod(lam_i!) / n! in (0, 1],
    i.e. dim = multinomial(lam) * ratio.  The ratio is an exact fraction:

        ratio = prod over i < j of (lam[j] - lam[i] + j - i) / (lam[j] + j - i)

    (1-based indices), and the product dim must come out an integer.
    """
    parts = as_young(lam)
    d = len(parts)
    ratio = Fraction(1)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            ratio *= Fraction(parts[j - 1] - parts[i - 1] + j - i, parts[j - 1] + j - i)
    assert 0 < ratio <= 1
    dim_frac = multinomial(parts) * ratio
    assert dim_frac.denominator == 1
    dim = int(dim_frac)
    assert dim >= 1
    return dim, ratio


@dataclass(frozen=True)
class CycleType:
    """Conjugacy class of the permutation group on n letters."""

    cycles: tuple[int, ...]  # non-increasing positive cycle lengths summing to n

    def __post_init__(self) -> None:
        if not self.cycles or any(c < 1 for c in self.cycles):
            raise ValueError("cycle lengths must be positive")
        if any(self.cycles[i] < self.cycles[i + 1] for i in range(len(self.cycles) - 1)):
            raise ValueError("cycle lengths must be non-increasing")

    @property
    def n(self) -> int:
        return sum(self.cycles)

    @property
    def size(self) -> int:
        """Exact number of permutations in the class: n! / prod(i^m_i m_i!)."""
        den = 1
        for length, mult in Counter(self.cycles).items():
            den *= length**mult * math.factorial(mult)
        size, r = divmod(math.factorial(self.n), den)
        assert r == 0
        return size


def _partitions_desc(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(min(cap, n), 0, -1):
        for rest in _partitions_desc(n - head, head):
            yield (head,) + rest


@cache
def cycle_types(n: int) -> tuple[CycleType, ...]:
    """All conjugacy classes of the permutation group on n letters.

    Deterministic order: cycle tuples in decreasing lexicographic order,
    starting with the single n-cycle and ending with the identity class.
    Built once per n and shared, hence a tuple.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(CycleType(c) for c in _partitions_desc(n, n))


@cache
def _mn_character(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    # Border-strip recursion over beta numbers; shape is decreasing with no
    # zero parts, cycles is the remaining cycle list (consumed front-first).
    if not cycles:
        return 1
    k = cycles[0]
    rest = cycles[1:]
    m = len(shape)
    beta = tuple(shape[i] + m - 1 - i for i in range(m))  # strictly decreasing
    bset = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted(beta[:pos] + beta[pos + 1 :] + (nb,), reverse=True)
        newshape = tuple(newbeta[i] - (m - 1 - i) for i in range(m))
        newshape = tuple(x for x in newshape if x)
        total += (-1) ** height * _mn_character(newshape, rest)
    return total


def character(lam: Sequence[int], cycles: Sequence[int] | CycleType) -> int:
    """Irreducible character of the symmetric group, exact integer.

    Murnaghan-Nakayama recursion with memoization on (shape, remaining
    cycles); cycles are processed longest-first to keep the memo small.
    """
    parts = as_young(lam)
    if isinstance(cycles, CycleType):
        cyc = cycles.cycles
    else:
        cyc = tuple(sorted((int(c) for c in cycles), reverse=True))
        if any(c < 1 for c in cyc):
            raise ValueError("cycle lengths must be positive")
    shape = tuple(x for x in reversed(parts) if x)
    if sum(cyc) != sum(shape):
        raise ValueError("cycle type and Young index weights differ")
    if not shape:
        return 1
    return _mn_character(shape, cyc)


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


def total_schur_dim(n: int, d: int) -> SchurDimSummary:
    """Exact total dimension of the direct sum of unitary blocks, with bounds."""
    dims = [weyl_dim(lam) for lam in enumerate_young(n, d)]
    return SchurDimSummary(
        n=n,
        d=d,
        total=sum(dims),
        count=len(dims),
        per_block_bound=float(n + 1) ** (d * (d - 1) / 2),
        count_bound=float(n + 1) ** (d - 1),
        total_bound=float(n + 1) ** ((d + 2) * (d - 1) / 2),
    )


def type_entropy_bounds(lam: Sequence[int]) -> tuple[float, float, float]:
    """Shannon entropy of lam/n (nats) and the multinomial sandwich.

    Returns (H, lower, upper) with lower = exp(n H)/(n+1)**(d-1) and
    upper = exp(n H); the exact multinomial n!/prod(lam_i!) lies in
    [lower, upper].  Requires n >= 1.
    """
    parts = as_young(lam)
    n = sum(parts)
    if n < 1:
        raise ValueError("need total weight >= 1")
    d = len(parts)
    entropy = -math.fsum(
        (x / n) * math.log(x / n) for x in parts if x
    )
    upper = math.exp(n * entropy)
    lower = upper / float(n + 1) ** (d - 1)
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


@cache
def _kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    # shape: decreasing, no zero parts; content: letter multiplicities,
    # decreasing, no zero entries.  Recursion strips the last letter, which
    # occupies a horizontal strip.
    if not shape:
        return 1 if not content else 0
    if not content or len(shape) > len(content):
        return 0
    target = sum(shape) - content[-1]
    rest = content[:-1]
    m = len(shape)

    def strips(i: int, rem: int, acc: tuple[int, ...]) -> int:
        # choose inner shape nu with shape[i+1] <= nu[i] <= shape[i]
        if i == m:
            if rem:
                return 0
            return _kostka(tuple(x for x in acc if x), rest)
        lo = shape[i + 1] if i + 1 < m else 0
        hi = min(shape[i], rem)
        total = 0
        for v in range(lo, hi + 1):
            total += strips(i + 1, rem - v, acc + (v,))
        return total

    if target < 0:
        return 0
    return strips(0, target, ())


def kostka(lam: Sequence[int], weight: Sequence[int]) -> int:
    """Weight-space dimension of the unitary block: semistandard fillings.

    `weight` is an occupation vector (any order; the count is symmetric in
    it) with the same total as lam.
    """
    parts = as_young(lam)
    mu = tuple(int(x) for x in weight)
    if any(x < 0 for x in mu):
        raise ValueError("weights must be non-negative")
    if sum(mu) != sum(parts):
        raise ValueError("weight total must match the Young index weight")
    shape = tuple(x for x in reversed(parts) if x)
    content = tuple(sorted((x for x in mu if x), reverse=True))
    if not shape:
        return 1 if not content else 0
    return _kostka(shape, content)


def schur_eval(lam: Sequence[int], values: Sequence[float]) -> float:
    """Evaluate the unitary-block character polynomial at the given point.

    Uses the weight-multiplicity expansion: the polynomial is the sum over
    occupation vectors nu of kostka(lam, nu) * prod(values_i ** nu_i).
    """
    parts = as_young(lam)
    xs = [float(v) for v in values]
    if len(xs) != len(parts):
        raise ValueError("need one value per part")
    n = sum(parts)
    terms = []
    for nu in compositions(n, len(xs)):
        k = kostka(parts, nu)
        if k == 0:
            continue
        mono = 1.0
        for base, exp in zip(xs, nu):
            mono *= base**exp
        terms.append(k * mono)
    return math.fsum(terms)
