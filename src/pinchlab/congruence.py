"""Exact arithmetic for principal congruence subgroups of SL(2, Z).

Index, genus, cusp count, and area of the level-N surface are computed in
exact rational arithmetic; floating point enters only through the systole
length and the area. An exhaustive walk over the traces, linear in the entry
bound, acts as a falsifier for the systole trace within an entry-bounded box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InternalInvariantViolation, _as_int, _as_level
from .hyperbolic import length_from_trace


@dataclass(frozen=True)
class IntegerMatrix2:
    """A 2x2 integer matrix; the arithmetic carrier of group elements."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d


@dataclass(frozen=True)
class CongruenceSurfaceData:
    """Exact level data: index, genus, cusps, plus systole length and area."""

    level: int
    index_d: int
    genus: int
    cusps: int
    systole: float
    area: float


def _distinct_primes(n: int) -> list[int]:
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def index_d(level) -> int:
    """Index of the level-N subgroup: 12 at N = 2, else N^3 * prod(1 - 1/p^2)
    over the distinct primes dividing N, evaluated exactly."""
    n = _as_int("level", level)
    if n < 2:
        raise DomainError(f"level must be >= 2, got {n}")
    if n == 2:
        return 12  # the -I identification makes level 2 special
    value = Fraction(n) ** 3
    for p in _distinct_primes(n):
        value *= 1 - Fraction(1, p * p)
    if value.denominator != 1:
        raise InternalInvariantViolation(f"index of level {n} is not integral: {value}")
    return int(value)


@lru_cache(maxsize=None)
def _surface_data_cached(n: int) -> CongruenceSurfaceData:
    d = index_d(n)
    genus = 1 + Fraction(d * (n - 6), 24 * n)
    cusps = Fraction(d, 2 * n)
    if genus.denominator != 1:
        raise InternalInvariantViolation(f"genus of level {n} is not integral: {genus}")
    if cusps.denominator != 1:
        raise InternalInvariantViolation(f"cusp count of level {n} is not integral: {cusps}")
    if int(cusps) % 2 != 0:
        raise InternalInvariantViolation(f"cusp count of level {n} is odd: {cusps}")
    return CongruenceSurfaceData(
        level=n,
        index_d=d,
        genus=int(genus),
        cusps=int(cusps),
        systole=length_from_trace(n * n - 2),
        # 6 divides d, so d/6 is an exact integer and this rounds identically
        # to the compacted-surface volume 4*pi*(genus' - 1)
        area=math.pi * (d / 6.0),
    )


def surface_data(level) -> CongruenceSurfaceData:
    """Complete exact record for level N >= 3 (torsion-free levels only)."""
    return _surface_data_cached(_as_level(level))


def is_in_gamma(m: IntegerMatrix2, level) -> bool:
    """Whether the matrix is congruent to the identity mod N. Requires det 1."""
    n = _as_level(level)
    if m.det != 1:
        raise DomainError(f"matrix determinant must be 1, got {m.det}")
    return (
        (m.a - 1) % n == 0
        and (m.d - 1) % n == 0
        and m.b % n == 0
        and m.c % n == 0
    )


def witness_matrix(level) -> IntegerMatrix2:
    """A concrete level-N matrix with |trace| = N^2 - 2, attaining the systole."""
    n = _as_level(level)
    return IntegerMatrix2(a=1 - n * n, b=n, c=-n, d=1)


def _require_box(level, entry_bound) -> tuple[int, int]:
    """Level N >= 3 and entry bound B >= N^2, so the witness lies in the box."""
    n = _as_level(level)
    bound = _as_int("entry_bound", entry_bound)
    if bound < n * n:
        raise DomainError(
            f"entry_bound must be >= N^2 = {n * n} so the witness lies in the box, got {bound}"
        )
    return n, bound


def _walk_traces(n: int) -> list[int]:
    """Traces tr = 2 (mod N) with 3 <= |tr| <= N^2 - 2, by increasing |tr|."""
    return sorted((tr for tr in range(2 - n * n, n * n - 1, n) if abs(tr) >= 3), key=abs)


def _diagonal_entries(n: int, bound: int, tr: int) -> range:
    """Every a = 1 (mod N) with |a| <= B and |tr - a| <= B."""
    low, high = max(-bound, tr - bound), min(bound, tr + bound)
    return range(low + (1 - low) % n, high + 1, n)


def search_size_estimate(level, entry_bound) -> int:
    """Number of (trace, a) pairs the minimal-trace walk visits when it runs
    to its last trace N^2 - 2: an upper bound on its work, linear in B.
    Closed form per trace, so the cost is O(N) whatever the box."""
    n, bound = _require_box(level, entry_bound)
    return sum(len(_diagonal_entries(n, bound, tr)) for tr in _walk_traces(n))


def min_hyperbolic_trace(level, entry_bound) -> int | None:
    """Minimal |trace| > 2 over level-N matrices with entries bounded by
    ``entry_bound``, by an exhaustive walk over the traces.

    Walks tr = 2 (mod N) by increasing |tr| from 3 to N^2 - 2, both signs.
    For each trace it visits every a = 1 (mod N) with d = tr - a in the box,
    and keeps a only if N^2 divides ad - 1, as it must when N | b and N | c.
    Then bc = ad - 1 with b = Nx and c = Ny asks for xy = m = (ad - 1)/N^2;
    the pair fits the box iff |m| has a divisor x with ceil(|m|/K) <= x <=
    min(K, isqrt|m|), K = floor(B/N) (x <= |y| up to swapping b and c, whose
    signs are free). The first hit is the minimum. The cost is linear in B:
    about 4B pairs, as ``search_size_estimate`` counts. Returns None only if
    nothing hits by |tr| = N^2 - 2, which cannot happen when the
    precondition entry_bound >= N^2 holds, since the witness lies in the box.
    """
    n, bound = _require_box(level, entry_bound)
    k = bound // n
    nn = n * n
    for tr in _walk_traces(n):
        for a in _diagonal_entries(n, bound, tr):
            num = a * (tr - a) - 1
            if num % nn:
                continue
            m = abs(num) // nn
            if m and any(m % x == 0 for x in range(-(-m // k), min(k, math.isqrt(m)) + 1)):
                return abs(tr)
    return None
