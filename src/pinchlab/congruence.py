"""Exact arithmetic for principal congruence subgroups of SL(2, Z).

Index, genus and cusp count of the level-N surface are computed in exact
integer arithmetic; floating point enters only through the systole length
and the area.

Every level-N matrix has trace tr = 2 (mod N^2): with a = 1 + Nx and
d = 1 + Ny, ad - 1 = N(x + y) + N^2 xy, and N^2 divides ad - 1 = bc exactly
when N divides x + y, that is when N^2 divides tr - 2. So among
3 <= |tr| <= N^2 - 2 only tr = 2 - N^2 can occur. The witness
(1 - N^2, N; -N, 1) attains it, so the minimal |trace| > 2 over any box with
entries up to B >= N^2 is N^2 - 2, and the systole is 2 arccosh((N^2 - 2)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    value = n**3
    for p in _distinct_primes(n):
        # p^3 divides N^3, and the earlier primes' factors are prime to p
        value, rest = divmod(value, p * p)
        if rest:
            raise InternalInvariantViolation(f"index of level {n} is not integral")
        value *= p * p - 1
    return value


@lru_cache(maxsize=None)
def _surface_data_cached(n: int) -> CongruenceSurfaceData:
    d = index_d(n)
    genus, rest = divmod(d * (n - 6), 24 * n)
    if rest:
        raise InternalInvariantViolation(
            f"genus of level {n} is not integral: 1 + {d * (n - 6)}/{24 * n}")
    cusps, rest = divmod(d, 2 * n)
    if rest:
        raise InternalInvariantViolation(f"cusp count of level {n} is not integral: {d}/{2 * n}")
    if cusps % 2 != 0:
        raise InternalInvariantViolation(f"cusp count of level {n} is odd: {cusps}")
    return CongruenceSurfaceData(
        level=n,
        index_d=d,
        genus=1 + genus,
        cusps=cusps,
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


def search_size_estimate(level, entry_bound) -> int:
    """Number of diagonal entries a of the one trace tr = 2 - N^2 that can
    lie in the box: the 2K - N + 1 values a = 1 (mod N) with |a| <= B and
    |tr - a| <= B, K = (B + 1) // N. Nothing walks them; the count sizes the
    box for reports. Exact integer arithmetic, any B."""
    n, bound = _require_box(level, entry_bound)
    return 2 * ((bound + 1) // n) - n + 1


def min_hyperbolic_trace(level, entry_bound) -> int:
    """Minimal |trace| > 2 over level-N matrices with entries bounded by
    ``entry_bound``: N^2 - 2 for every box with entry_bound >= N^2.

    Every level-N trace is 2 (mod N^2), since with a = 1 + Nx and d = 1 + Ny,
    ad - 1 = N(x + y) + N^2 xy is divisible by N^2 exactly when N | x + y.
    So among 3 <= |tr| <= N^2 - 2 only tr = 2 - N^2 can occur, and the
    witness (1 - N^2, N; -N, 1) attains it with every entry inside the box.
    """
    n, _ = _require_box(level, entry_bound)
    return abs(witness_matrix(n).trace)
