import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad

from pinchlab import (
    STANDARD_COLLAR_RADIUS,
    DomainError,
    NotHyperbolic,
    collar_width,
    collar_width_at_radius,
    crossing_length_bound,
    cylinder_volume,
    distortion_bound,
    injrad_from_collar,
    length_from_trace,
    thin_part_upper_bound,
)

mp.mp.dps = 50


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("trace", [2.0 + 1e-12, 2.1, 3.0, 7.0, 100.0, 1e10, 1e300])
def test_length_from_trace_matches_arccosh(trace):
    ref = float(2 * mp.acosh(mp.mpf(trace) / 2))
    assert rel(length_from_trace(trace), ref) <= 1e-14


def test_length_from_trace_rejects_non_hyperbolic():
    for bad in (2.0, 1.5, 0.0, -3.0):
        with pytest.raises(NotHyperbolic):
            length_from_trace(bad)
    with pytest.raises(DomainError):
        length_from_trace(math.inf)


def test_trace_round_trip():
    # the forward map quantizes 2cosh(l/2) to a double; compare against the
    # exact arccosh of that quantized value, which is what the inverse sees
    for l in np.geomspace(1e-6, 50.0, 40):
        tr = 2.0 * math.cosh(0.5 * l)
        ref = float(2 * mp.acosh(mp.mpf(tr) / 2))
        assert rel(length_from_trace(tr), ref) <= 1e-12
    # above the cancellation regime the literal round trip holds too
    for l in np.geomspace(5e-3, 50.0, 30):
        assert rel(length_from_trace(2.0 * math.cosh(0.5 * l)), l) <= 1e-10


def test_collar_self_width_fixed_point():
    l = 2.0 * math.asinh(1.0)  # sinh(l/2) = 1, so the collar width equals l/2
    assert rel(collar_width(l), math.asinh(1.0)) <= 1e-14


def test_collar_width_decreasing():
    grid = np.geomspace(1e-8, 60.0, 50)
    widths = [collar_width(l) for l in grid]
    assert all(b < a for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize("l", [1e-9, 1e-3, 0.7, 4.0, 80.0, 800.0])
def test_collar_width_reference(l):
    ref = float(mp.asinh(1 / mp.sinh(mp.mpf(l) / 2)))
    assert rel(collar_width(l), ref) <= 1e-13


@pytest.mark.parametrize("l", [1e-6, 0.1, 2.0, 30.0])
def test_radius_collar_specializes(l):
    got = collar_width_at_radius(l, STANDARD_COLLAR_RADIUS)
    assert rel(got, collar_width(l)) <= 1e-14


@pytest.mark.parametrize(
    "l,r", [(1e-9, 0.5), (0.3, 3.0), (5.0, 1.0), (700.0, 2.0), (2.0, 500.0), (900.0, 400.0)]
)
def test_radius_collar_reference(l, r):
    ref = float(mp.asinh(mp.sinh(r) / mp.sinh(mp.mpf(l) / 2)))
    assert rel(collar_width_at_radius(l, r), ref) <= 1e-13


def test_cylinder_volume_closed_points():
    # l/sinh(l/2) = 2 at l = 2 only in the limit; at l = 2 the exact value is
    # 4*pi*sinh(1)*2/sinh(1) = 8*pi
    assert rel(cylinder_volume(2.0, 1.0), 8.0 * math.pi) <= 1e-14
    for r in (0.5, 1.0, 3.0):
        assert rel(cylinder_volume(1e-12, r), 8.0 * math.pi * math.sinh(r)) <= 1e-9


def test_cylinder_volume_bound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        l = float(10.0 ** rng.uniform(-8, 2))
        r = float(10.0 ** rng.uniform(-2, 2))
        cap = 8.0 * math.pi * math.sinh(r)
        assert cylinder_volume(l, r) <= cap * (1.0 + 1e-14)


def test_cylinder_volume_against_quadrature():
    l, r = 1.0, 1.0
    w = float(mp.asinh(mp.sinh(r) / mp.sinh(mp.mpf(l) / 2)))
    area, _ = dblquad(lambda rho, s: l * math.cosh(rho), 0.0, 2.0 * math.pi,
                      -w, w, epsabs=1e-12, epsrel=1e-12)
    assert rel(cylinder_volume(l, r), area) <= 1e-9


def test_thin_part_bound():
    assert thin_part_upper_bound(0, 2.0) == 0.0
    assert rel(thin_part_upper_bound(3, 1.0), 24.0 * math.pi * math.sinh(1.0)) <= 1e-15
    with pytest.raises(DomainError):
        thin_part_upper_bound(-1, 1.0)
    # the bound dominates any collection of cylinders at the same radius
    rng = np.random.default_rng(11)
    r = 1.3
    lengths = 10.0 ** rng.uniform(-6, math.log10(2 * r), size=12)
    total = sum(cylinder_volume(l, r) for l in lengths)
    assert total <= thin_part_upper_bound(len(lengths), r) * (1.0 + 1e-14)


def test_thin_part_bound_rejects_non_integers():
    for bad in (True, 2.5):
        with pytest.raises(DomainError):
            thin_part_upper_bound(bad, 1.0)


def test_injrad_on_the_geodesic():
    for l in (1e-7, 0.3, 2.0, 40.0):
        assert rel(injrad_from_collar(l, 0.0), 0.5 * l) <= 1e-13


@pytest.mark.parametrize(
    "l,lam", [(1e-8, 300.0), (0.5, 0.0), (0.5, 10.0), (200.0, 200.0), (2.0, 700.0)]
)
def test_injrad_reference(l, lam):
    ref = float(mp.asinh(mp.sinh(mp.mpf(l) / 2) * mp.cosh(lam)))
    assert rel(injrad_from_collar(l, lam), ref) <= 1e-13


def test_injrad_monotone_in_offset():
    vals = [injrad_from_collar(0.01, lam) for lam in np.linspace(0.0, 20.0, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_crossing_bound_self_dual():
    t = 2.0 * math.asinh(1.0)
    assert rel(crossing_length_bound(t), t) <= 1e-14


@pytest.mark.parametrize("t", [1e-10, 1e-3, 1.0, 10.0, 800.0])
def test_crossing_bound_reference(t):
    ref = float(2 * mp.asinh(1 / mp.sinh(mp.mpf(t) / 2)))
    assert rel(crossing_length_bound(t), ref) <= 1e-13


def test_crossing_bound_diverges():
    assert crossing_length_bound(1e-15) > 60.0
    grid = np.geomspace(1e-10, 5.0, 40)
    vals = [crossing_length_bound(t) for t in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_distortion_bound_values():
    assert distortion_bound(0.25) == 1.078125
    assert rel(distortion_bound(0.4), 1.2) <= 1e-15


def test_distortion_bound_window():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            distortion_bound(bad)


def test_positive_domain_enforced():
    for fn in (collar_width, crossing_length_bound):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                fn(bad)
    with pytest.raises(DomainError):
        cylinder_volume(1.0, 0.0)
    with pytest.raises(DomainError):
        collar_width_at_radius(0.0, 1.0)
    with pytest.raises(DomainError):
        injrad_from_collar(1.0, -0.5)
