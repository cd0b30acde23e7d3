"""Exact arithmetic for principal congruence subgroups of SL(2, Z).

Index, genus and cusp count of the level-N surface, and of the compacted
surface that pinches each pair of cusps and doubles (genus g + cusps/2, the
same area), are computed in exact integer arithmetic; floating point enters
only through the systole length and the area.

Every level-N matrix has trace tr = 2 (mod N^2): with a = 1 + Nx and
d = 1 + Ny, ad - 1 = N(x + y) + N^2 xy, and N^2 divides ad - 1 = bc exactly
when N divides x + y, that is when N^2 divides tr - 2. So among
3 <= |tr| <= N^2 - 2 only tr = 2 - N^2 can occur. The witness
(1 - N^2, N; -N, 1) attains it, so the minimal |trace| > 2 over any box with
entries up to B >= N^2 is N^2 - 2, and the systole is 2 arccosh((N^2 - 2)/2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, _as_int, _as_level, _validate_pinch
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


_TRIAL_LIMIT = 1 << 12  # trial division covers every factor up to here
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on _MR_BASES is exact below this, the least strong pseudoprime to
# all 13 (Sorenson and Webster, Math. Comp. 2017); without 41 the bound is 3.2e23
_MR_EXACT = 3317044064679887385961981
_RHO_BUDGET = 1 << 20  # Pollard-Brent steps one factorization may take


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..41 for an odd n > 41, exact below
    _MR_EXACT."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, budget: list[int]) -> int | None:
    """A proper factor of the odd composite n by Pollard's rho in Brent's
    form (BIT 1980), iterating x^2 + c from 2 with c = 1, 2, ...; the steps
    are taken from ``budget[0]``, and None comes back once it is spent."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            budget[0] -= 2 * r
            if budget[0] < 0:
                return None
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                if g > 1:
                    break
        if g != n:
            return g


def _power_root(m: int) -> int | None:
    """r where m = r^k for some k >= 2, else None, for m without factors up to
    _TRIAL_LIMIT = 2^12, so that k stays below its bit length / 12. Rho
    would need about sqrt(r) steps to split a power of a large prime r."""
    for k in range(2, m.bit_length() // 12 + 1):
        r = 1 << -(-m.bit_length() // k)  # above the root; Newton descends from here
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r**k == m:
            return r
    return None


def _distinct_primes(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending: trial division up to
    _TRIAL_LIMIT, then Miller-Rabin and Pollard-Brent on what is left, so a
    level of any size costs a bounded number of steps. Raises DomainError
    naming n when _RHO_BUDGET runs out, or when a cofactor at or past
    _MR_EXACT passes Miller-Rabin, which proves no primality there."""
    level, primes, d = n, [], 2
    stop = n if n < _TRIAL_SQUARE else _TRIAL_SQUARE  # divisors d with d^2 <= stop
    while d * d <= stop:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
            stop = n if n < _TRIAL_SQUARE else _TRIAL_SQUARE
        d += 1 if d == 2 else 2
    if n < _TRIAL_SQUARE:  # every d up to sqrt(n) was tried: n is 1 or a prime
        if n > 1:
            primes.append(n)
        return primes
    budget, found, stack = [_RHO_BUDGET], set(), [n]
    while stack:
        m = stack.pop()
        if _is_prime(m):
            if m >= _MR_EXACT:
                raise DomainError(f"cannot factor level {level}: a cofactor of "
                                  f"{len(str(m))} digits is only a probable prime")
            found.add(m)
            continue
        root = _power_root(m)
        f = root if root is not None else _rho(m, budget)
        if f is None:
            raise DomainError(f"cannot factor level {level} within {_RHO_BUDGET} "
                              "Pollard-Brent steps")
        stack += [f, m // f]
    return primes + sorted(found)


def index_d(level) -> int:
    """Index of the level-N subgroup: 12 at N = 2, else N^3 * prod(1 - 1/p^2)
    over the distinct primes dividing N, evaluated exactly. A level that
    ``_distinct_primes`` cannot factor in its budget raises DomainError."""
    n = _as_int("level", level)
    if n < 2:
        raise DomainError(f"level must be >= 2, got {n}")
    if n == 2:
        return 12  # the -I identification makes level 2 special
    value = n**3
    for p in _distinct_primes(n):
        # p^3 divides N^3, and the earlier primes' factors are prime to p
        value = value // (p * p) * (p * p - 1)
    return value


@lru_cache(maxsize=None)
def _surface_data_cached(n: int) -> CongruenceSurfaceData:
    d = index_d(n)
    return CongruenceSurfaceData(
        level=n,
        index_d=d,
        genus=1 + d * (n - 6) // (24 * n),
        cusps=d // (2 * n),
        systole=length_from_trace(n * n - 2),
        # 6 divides d, so d/6 is exact; the compacted surface keeps this volume
        area=math.pi * (d / 6.0),
    )


def surface_data(level) -> CongruenceSurfaceData:
    """Complete exact record for level N >= 3 (torsion-free levels only)."""
    return _surface_data_cached(_as_level(level))


@dataclass(frozen=True)
class CompactedSurface:
    """The closed surface obtained by trading every cusp for a pinched geodesic."""

    level: int
    pinch_length: float
    pinched_count: int
    genus: int
    volume: float


def compacted_surface(level, pinch_length) -> CompactedSurface:
    """Record of the closed surface with cusps of level N traded for paired
    geodesics of length t: pinched_count = cusps/2, genus gains one handle per
    pair, and the volume matches the cusped area pi*d/6 exactly."""
    t = _validate_pinch(pinch_length)
    return _compacted(surface_data(level), t)


def _compacted(sd, t: float) -> CompactedSurface:
    """compacted_surface from the level's surface data and a valid t."""
    pairs = sd.cusps // 2
    # level, pinch_length, pinched_count, genus, volume, by position: the
    # schedule passes make one per row
    return CompactedSurface(sd.level, t, pairs, sd.genus + pairs, sd.area)


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
