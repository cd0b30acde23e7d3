import math

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


def test_min_trace_against_brute_force():
    assert min_hyperbolic_trace(3, 15) == _brute_force_min_trace(3, 15) == 7


@pytest.mark.parametrize("n,expected", [(3, 7), (4, 14), (5, 23)])
def test_min_trace_known_values(n, expected):
    assert min_hyperbolic_trace(n, 10 * n * n) == expected


def test_min_trace_requires_room():
    with pytest.raises(DomainError):
        min_hyperbolic_trace(5, 24)


def test_search_size_estimate_grows():
    small = search_size_estimate(3, 90)
    big = search_size_estimate(3, 900)
    assert 0 < small < big


def test_search_size_estimate_rejects_bad_levels():
    for bad in (0, -3, 2):
        with pytest.raises(DomainError):
            search_size_estimate(bad, 10)
