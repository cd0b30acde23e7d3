import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from pinchlab import (
    DomainError,
    GeodesicClass,
    Schedule,
    TestFunction,
    bump,
    g_transform,
    geometric_side,
    h_transform,
    pinch_ladder,
    plancherel_integral,
    plancherel_sum,
    transform_profile,
    vanishing_series,
)

mp.mp.dps = 50


@pytest.fixture(scope="module")
def profile1():
    return transform_profile(bump(1.0))


@pytest.fixture(scope="module")
def spectral1(profile1):
    return plancherel_integral(profile1)


# ---------------------------------------------------------------- test function

def test_bump_values():
    phi = bump(1.0)
    assert phi(0.0) == math.exp(-1.0)
    assert phi(1.0) == 0.0
    assert phi(0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)
    assert phi(7.3) == 0.0


def test_bump_amplitude_and_support():
    phi = bump(4.0, amplitude=2.5)
    assert phi(0.0) == 2.5 * math.exp(-1.0)
    assert phi(2.0) == pytest.approx(2.5 * math.exp(-4.0 / 3.0), rel=1e-15)
    out = phi(np.array([0.0, 3.5, 4.0, 5.0]))
    assert out[0] > 0.0 and out[1] > 0.0
    assert out[2] == 0.0 and out[3] == 0.0
    with pytest.raises(DomainError):
        bump(0.0)
    with pytest.raises(DomainError):
        bump(-2.0)


def test_test_function_support_enforced():
    with pytest.raises(DomainError):
        TestFunction(evaluator=lambda u: 1.0, support_bound=1.0)
    with pytest.raises(DomainError):
        TestFunction(evaluator=lambda u: math.inf if u == 0.0 else 0.0, support_bound=1.0)


# ---------------------------------------------------------------- g

def test_g_zero_beyond_support():
    phi = bump(1.0)
    edge = math.acosh(1.5)
    for r in (edge, edge + 1e-9, 2.0, 30.0, 600.0):
        assert g_transform(phi, r) == 0.0


def test_g_at_zero_against_quad():
    for S in (0.5, 1.0, 4.0):
        phi = bump(S)
        ref, _ = quad(lambda s: math.exp(-1.0 / (1.0 - (s * s / S) ** 2)),
                      0.0, math.sqrt(S), epsabs=1e-13, epsrel=1e-13)
        assert abs(g_transform(phi, 0.0) - 2.0 * ref) <= 5e-10


def test_g_scales_with_amplitude():
    r = 0.3
    base = g_transform(bump(1.0), r)
    assert g_transform(bump(1.0, amplitude=3.0), r) == pytest.approx(3.0 * base, abs=2e-10)


def test_g_nonincreasing():
    phi = bump(2.0)
    grid = np.linspace(0.0, math.acosh(2.0), 30)
    vals = [g_transform(phi, r) for r in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_g_rejects_negative_argument():
    with pytest.raises(DomainError):
        g_transform(bump(1.0), -0.1)


# ---------------------------------------------------------------- profile

def test_profile_matches_direct_g(profile1):
    phi = bump(1.0)
    L = profile1.g_support
    assert L == pytest.approx(math.acosh(1.5), rel=1e-15)
    for r in np.linspace(0.0, L * 0.999, 17):
        assert abs(profile1.g(r) - g_transform(phi, r)) <= 1e-9
    assert profile1.g(L) == 0.0
    assert profile1.g(10.0) == 0.0


def test_profile_metadata(profile1):
    assert profile1.g_nonincreasing


# ---------------------------------------------------------------- h

def test_h_at_zero_is_g_mass(profile1):
    ref, _ = quad(profile1.g, 0.0, profile1.g_support, epsabs=1e-13, epsrel=1e-13)
    assert abs(h_transform(profile1, 0.0) - 2.0 * ref) <= 1e-9


def test_h_even_bit_identical(profile1):
    for r in (0.0, 0.37, 1.0, 4.5, 80.0):
        assert h_transform(profile1, r) == h_transform(profile1, -r)
        assert profile1.h(r) == profile1.h(-r)


def test_h_fast_path_matches_adaptive(profile1):
    for r in (0.0, 0.5, 0.999, 1.0, 2.7, 10.0, 100.0):
        assert abs(profile1.h(r) - h_transform(profile1, r)) <= 5e-10


def test_h_batch_matches_scalar(profile1):
    # batched matvec products may reassociate, so ask for ulp-level agreement
    # rather than bit equality across different batch shapes
    grid = np.concatenate([np.linspace(0.0, 3.0, 23), np.geomspace(3.0, 300.0, 17)])
    batch = profile1.h_batch(grid)
    for r, v in zip(grid, batch):
        assert v == pytest.approx(profile1.h(float(r)), rel=1e-12, abs=1e-15)


def test_h_bounded_by_l1(profile1):
    mass, _ = quad(lambda u: abs(profile1.g(u)), 0.0, profile1.g_support,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    for r in np.geomspace(0.1, 1000.0, 25):
        assert abs(profile1.h(r)) <= 2.0 * mass * (1.0 + 1e-12)


# ---------------------------------------------------------------- spectral side

def test_spectral_integral_recovers_phi0(spectral1):
    assert abs(float(spectral1) - math.exp(-1.0)) <= 1e-6
    assert spectral1.radius <= 1e-6


def test_spectral_integral_against_compact_oracle(profile1, spectral1):
    # second route through the pairing: push the spectral density onto g,
    # which turns the oscillatory r-integral into a one-dimensional integral
    # against W(u) = cosh(u/2)/(4 sinh^2(u/2)) - 1/u^2 plus a boundary term
    L = profile1.g_support
    g0 = profile1.g(0.0)

    def w_kernel(u):
        if u < 1e-3:
            return 1.0 / 24.0 - 7.0 * u * u / 1920.0
        return math.cosh(0.5 * u) / (4.0 * math.sinh(0.5 * u) ** 2) - 1.0 / (u * u)

    def integrand(u):
        return (profile1.g(u) - g0) / (u * u) + profile1.g(u) * w_kernel(u)

    val, quad_err = quad(integrand, 0.0, L, epsabs=1e-11, epsrel=1e-11, limit=400)
    oracle = (g0 / L - val) / math.pi
    assert abs(float(spectral1) - oracle) <= 5e-9 + quad_err


@pytest.mark.parametrize("S", [0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0])
def test_spectral_integral_encloses_phi0(S):
    value = plancherel_integral(transform_profile(bump(S)))
    assert abs(float(value) - math.exp(-1.0)) <= value.radius <= 1e-9


# ---------------------------------------------------------------- geometric side

def test_geometric_side_empty():
    val = geometric_side([], lambda r: 1.0)
    assert float(val) == 0.0


def test_geometric_side_single_class():
    cls = GeodesicClass(length=1.0, primitive_length=1.0, multiplicity=1)
    val = geometric_side([cls], lambda r: 1.0)
    ref = float(1 / (2 * mp.sinh(mp.mpf("0.5"))))
    assert float(val) == pytest.approx(ref, rel=1e-14)


def test_geometric_side_list_against_fsum(profile1):
    classes = list(pinch_ladder(0.07, 0.9, 4))
    val = geometric_side(classes, profile1)
    ref = math.fsum(
        c.multiplicity * c.primitive_length / (2.0 * math.sinh(0.5 * c.length))
        * profile1.g(c.length)
        for c in classes
    )
    assert float(val) == pytest.approx(ref, rel=1e-13)


def test_geometric_side_ladder_matches_list(profile1):
    ladder = pinch_ladder(0.01, 0.9, 6)
    fast = geometric_side(ladder, profile1)
    slow = geometric_side(list(ladder), profile1)
    assert float(fast) == pytest.approx(float(slow), rel=1e-12)
    assert abs(float(fast) - float(slow)) <= fast.radius + slow.radius


def test_geometric_side_termwise_sandwich(profile1):
    # g is nonincreasing, so the side is pinned between the extreme g values
    # times half the criterion sum
    for t in (0.05, 0.003):
        ladder = pinch_ladder(t, 0.9, 2)
        gs = float(geometric_side(ladder, profile1))
        pl = float(plancherel_sum(ladder, 0.9))
        top = ladder[ladder.count - 1].length
        lo = 0.5 * profile1.g(top) * pl
        hi = 0.5 * profile1.g(0.0) * pl
        assert lo * (1.0 - 1e-9) <= gs <= hi * (1.0 + 1e-9)


def test_geometric_side_bracket_route(profile1):
    # past the exact-summation cap the head is summed and the tail bracketed;
    # check it against brute force while that is still affordable
    t = 1e-7
    ladder = pinch_ladder(t, 1.0, 2)
    val = geometric_side(ladder, profile1)
    n_eff = int(profile1.g_support * (1.0 + 1e-12) / t)
    acc = 0.0
    for start in range(1, n_eff + 1, 2_000_000):
        k = np.arange(start, min(start + 2_000_000 - 1, n_eff) + 1, dtype=float)
        acc += float(np.sum(t / (2.0 * np.sinh(0.5 * k * t)) * profile1.g(k * t)))
    acc *= 2.0
    assert abs(float(val) - acc) <= val.radius + 1e-9 * acc
    assert val.radius <= 1e-4 * float(val)


def test_geometric_side_huge_ladder_is_cheap(profile1):
    ladder = pinch_ladder(math.exp(-20.0), 1.0, 12)
    val = geometric_side(ladder, profile1)
    assert float(val) > 0.0
    assert val.radius <= 1e-6 * float(val)


def test_geometric_side_ladder_needs_profile():
    with pytest.raises(DomainError):
        geometric_side(pinch_ladder(1e-7, 1.0, 2), lambda r: 1.0)


# ---------------------------------------------------------------- series

def test_vanishing_series_reciprocal_prefix():
    phi = bump(1.0)
    sched = Schedule.from_rule("recip", range(3, 13), "reciprocal")
    rows = vanishing_series(sched, phi, 20)
    assert [row.level for row in rows] == list(range(3, 13))
    assert all(row.valid for row in rows)
    vals = [row.normalized for row in rows]
    assert all(v > 0.0 for v in vals)
    assert vals[-1] < vals[0]


def test_vanishing_series_flags_uncertified_rows():
    # widen the support until the integration radius outruns the floor
    phi = bump(2.0 * math.cosh(1.6) - 2.0)
    sched = Schedule.explicit("wide", [3, 5], [0.45, 0.2])
    rows = vanishing_series(sched, phi, 10)
    assert not rows[0].valid and math.isnan(rows[0].normalized)
    assert rows[1].valid and math.isfinite(rows[1].normalized)


def test_vanishing_series_respects_j_max():
    rows = vanishing_series(Schedule.from_rule("r", range(3, 50), "reciprocal"),
                            bump(1.0), 4)
    assert [row.j for row in rows] == [1, 2, 3, 4]
