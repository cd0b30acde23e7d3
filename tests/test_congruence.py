import math
from fractions import Fraction

import mpmath as mp
import pytest

from pinchlab import (
    DomainError,
    IntegerMatrix2,
    index_d,
    is_in_gamma,
    length_from_trace,
    min_hyperbolic_trace,
    search_size_estimate,
    surface_data,
    witness_matrix,
)

mp.mp.dps = 50

GOLDEN = {3: (24, 0, 4), 5: (120, 0, 12), 7: (336, 3, 24), 11: (1320, 26, 60)}


@pytest.mark.parametrize(
    "n,d", [(2, 12), (3, 24), (4, 48), (5, 120), (6, 144), (7, 336),
            (8, 384), (11, 1320), (12, 1152), (25, 15000)]
)
def test_index_values(n, d):
    assert index_d(n) == d


def test_index_multiplicative():
    # N^3 * prod(1 - p^-2) is multiplicative over coprime levels
    for a, b in [(3, 5), (4, 9), (5, 8), (7, 12)]:
        assert index_d(a * b) == index_d(a) * index_d(b)


def test_index_rejects_bad_levels():
    for bad in (1, 0, -3, 2.5):
        with pytest.raises(DomainError):
            index_d(bad)


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_surface_data_golden(n):
    d, g, b = GOLDEN[n]
    sd = surface_data(n)
    assert (sd.index_d, sd.genus, sd.cusps) == (d, g, b)
    assert sd.area == math.pi * (d / 6.0)


@pytest.mark.parametrize("n", range(3, 13))
def test_surface_data_consistency(n):
    sd = surface_data(n)
    assert sd.cusps % 2 == 0
    # Gauss-Bonnet: area = pi*d/6 = 2*pi*(2g - 2 + b)
    assert sd.index_d == 12 * (2 * sd.genus - 2 + sd.cusps)
    ref = float(2 * mp.acosh(mp.mpf(n * n - 2) / 2))
    assert abs(sd.systole - ref) <= 1e-14 * ref
    assert sd.systole == length_from_trace(float(n * n - 2))


def test_integer_invariants_match_rational_formulas():
    # d = N^3 prod(1 - p^-2), g = 1 + d(N - 6)/24N and b = d/2N in Fractions,
    # with the primes of each N from a sieve
    limit = 10**4
    primes_of = [[] for _ in range(limit + 1)]
    for p in range(2, limit + 1):
        if not primes_of[p]:
            for m in range(p, limit + 1, p):
                primes_of[m].append(p)
    bad = []
    for n in range(3, limit + 1):
        d = Fraction(n) ** 3
        for p in primes_of[n]:
            d *= 1 - Fraction(1, p * p)
        sd = surface_data(n)
        got = (index_d(n), sd.index_d, sd.genus, sd.cusps)
        if (got != (d, d, 1 + d * (n - 6) / (24 * n), d / (2 * n))
                or any(type(v) is not int for v in got)
                or sd.cusps % 2
                or sd.index_d != 12 * (2 * sd.genus - 2 + sd.cusps)):
            bad.append((n, got))
    assert bad == []


def test_surface_data_rejects_level_two_and_below():
    # the systole formula needs N^2 - 2 > 2
    for bad in (0, 1, 2):
        with pytest.raises(DomainError):
            surface_data(bad)


def test_membership_basics():
    eye = IntegerMatrix2(1, 0, 0, 1)
    for n in range(3, 9):
        assert is_in_gamma(eye, n)
    assert is_in_gamma(IntegerMatrix2(-8, 3, -3, 1), 3)
    assert not is_in_gamma(IntegerMatrix2(2, 1, 1, 1), 3)
    assert not is_in_gamma(IntegerMatrix2(-1, 0, 0, -1), 3)
    # torsion-free levels only
    with pytest.raises(DomainError):
        is_in_gamma(eye, 2)


def test_membership_requires_determinant_one():
    with pytest.raises(DomainError):
        is_in_gamma(IntegerMatrix2(1, 0, 0, 2), 3)


@pytest.mark.parametrize("n", range(3, 13))
def test_witness_matrix(n):
    w = witness_matrix(n)
    assert w.a * w.d - w.b * w.c == 1
    assert is_in_gamma(w, n)
    assert abs(w.a + w.d) == n * n - 2


def _brute_force_min_trace(n, bound):
    best = None
    for a in range(-bound, bound + 1):
        if a % n != 1 % n:
            continue
        for d in range(-bound, bound + 1):
            if d % n != 1 % n or abs(a + d) <= 2:
                continue
            for b in range(-bound, bound + 1):
                if b == 0 or b % n != 0:
                    continue
                num = a * d - 1
                if num % b != 0:
                    continue
                c = num // b
                if abs(c) <= bound and c % n == 0:
                    t = abs(a + d)
                    if best is None or t < best:
                        best = t
    return best


def _box_enumeration_min_trace(n, bound):
    """The (a, b, d) enumeration over the whole box that the trace walk
    replaced: a = 1 and b = 0 (mod N) with b > 0, d solved from the
    determinant congruence, c derived exactly. b < 0 is covered because
    inversion flips b's sign while preserving |trace| and the box."""
    best = None
    a_first = -bound + ((1 + bound) % n)
    for a in range(a_first, bound + 1, n):
        for b in range(n, bound + 1, n):
            if math.gcd(a, b) != 1:
                continue  # det 1 forces gcd(a, b) = 1
            d0 = pow(a, -1, b)
            d_first = -bound + ((d0 + bound) % b)
            for d in range(d_first, bound + 1, b):
                s = abs(a + d)
                if s <= 2 or (best is not None and s >= best):
                    continue
                c = (a * d - 1) // b
                if c % n == 0 and -bound <= c <= bound:
                    best = s
    return best


def _brute_force_diagonal(n, bound):
    """The a = 1 (mod N) of the one trace tr = 2 - N^2 that reaches N^2 - 2,
    with |a| <= B and |tr - a| <= B."""
    tr = 2 - n * n
    return [a for a in range(-bound, bound + 1) if (a - 1) % n == 0 and abs(tr - a) <= bound]


def _box_enumeration_traces(n, bound):
    """Trace of every level-N matrix in the box: a = 1 and b = 0 (mod N),
    d solved from the determinant congruence mod |b|, c derived exactly.
    b = 0 forces a = d = 1 (a = d = -1 is not 1 mod N), with c = 0 (mod N) free."""
    traces = [2] * (2 * (bound // n) + 1)
    a_first = -bound + ((1 + bound) % n)
    for a in range(a_first, bound + 1, n):
        for b in range(-(bound // n) * n, bound + 1, n):
            if b == 0 or math.gcd(a, b) != 1:
                continue  # det 1 forces gcd(a, b) = 1
            d0 = pow(a, -1, abs(b))
            d_first = -bound + ((d0 + bound) % abs(b))
            for d in range(d_first, bound + 1, abs(b)):
                c = (a * d - 1) // b
                if c % n == 0 and -bound <= c <= bound:
                    assert is_in_gamma(IntegerMatrix2(a, b, c, d), n)
                    traces.append(a + d)
    return traces


@pytest.mark.parametrize("n", range(3, 8))
def test_every_level_trace_is_two_mod_n_squared(n):
    # the premise of min_hyperbolic_trace: only tr = 2 - N^2 can reach 3 <= |tr| <= N^2 - 2
    traces = _box_enumeration_traces(n, 2 * n * n)
    assert len(traces) > 100 and 2 - n * n in traces
    assert all((tr - 2) % (n * n) == 0 for tr in traces)


def test_min_trace_against_brute_force():
    assert min_hyperbolic_trace(3, 15) == _brute_force_min_trace(3, 15) == 7
    for n in (3, 4, 5):
        for bound in range(n * n, 2 * n * n + 1, max(1, n // 2)):
            assert min_hyperbolic_trace(n, bound) == _brute_force_min_trace(n, bound), (n, bound)


@pytest.mark.parametrize("n,bound", [(3, 1000), (4, 1200), (5, 2000), (6, 500), (7, 2000),
                                     (9, 400), (11, 1000), (12, 700)])
def test_min_trace_walk_matches_box_enumeration(n, bound):
    assert min_hyperbolic_trace(n, bound) == _box_enumeration_min_trace(n, bound)


@pytest.mark.parametrize("n,expected", [(3, 7), (4, 14), (5, 23)])
def test_min_trace_known_values(n, expected):
    assert min_hyperbolic_trace(n, 10 * n * n) == expected


def test_min_trace_large_box():
    # 1.35e8 candidates for the box enumeration; the theorem needs none
    assert min_hyperbolic_trace(5, 10**4) == 23


def test_min_trace_requires_room():
    with pytest.raises(DomainError):
        min_hyperbolic_trace(5, 24)


@pytest.mark.parametrize("n,bound", [(3, 9), (3, 40), (4, 16), (4, 57), (5, 25), (5, 90),
                                     (7, 49), (7, 300), (10, 100), (10, 333)])
def test_search_size_estimate_counts_walk_pairs(n, bound):
    assert search_size_estimate(n, bound) == len(_brute_force_diagonal(n, bound))


def test_search_size_estimate_grows():
    small = search_size_estimate(3, 90)
    big = search_size_estimate(3, 900)
    assert 0 < small < big


def test_search_size_estimate_rejects_bad_levels():
    for bad in (0, -3, 2):
        with pytest.raises(DomainError):
            search_size_estimate(bad, 10)


def test_search_size_estimate_rejects_small_bounds():
    for n in (3, 5, 8):
        for bad in (-5, 0, n * n - 1):
            with pytest.raises(DomainError):
                search_size_estimate(n, bad)


def test_search_beyond_int64():
    # a = 1 (mod 3) in [-10^20 + 2, 10^20 - 9]: (2 * 10^20 - 8) / 3 of them
    assert search_size_estimate(3, 10**20) == 66666666666666666664
    # the witness lies in every admitted box, so the box size does not matter
    for n, bound in ((3, 10**20), (3, 10**12), (100, 10**6)):
        assert min_hyperbolic_trace(n, bound) == n * n - 2
