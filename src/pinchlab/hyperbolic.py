"""Closed-form hyperbolic trigonometry: traces, collars, cylinders, injectivity radii.

Every function is pure and total on its stated domain; arguments outside it
raise typed errors rather than being clamped. Lengths and radii are in
hyperbolic length units.
"""

from __future__ import annotations

import math

from .errors import DomainError, NotHyperbolic, _as_int, _as_real, _require_positive

LOG2 = math.log(2.0)

# sinh(arcsinh(1)) = 1: the radius at which the radius-R collar specializes
# to the standard collar.
STANDARD_COLLAR_RADIUS = math.asinh(1.0)


def _sinh_half(length: float) -> float:
    """sinh(length/2), with the series used below 1e-8 so the pinching regime
    stays free of spurious rounding. Overflow-safe: e^y/2 above y = 350, and
    inf once that leaves the float range, where math.sinh would raise."""
    y = 0.5 * length
    if y > 350.0:
        try:
            return math.exp(y - LOG2)
        except OverflowError:
            return math.inf
    if y < 1e-8:
        return y * (1.0 + y * y / 6.0)
    return math.sinh(y)


def _acosh1p(x: float) -> float:
    # arccosh(1 + x) without cancellation for small x
    return math.log1p(x + math.sqrt(x * (x + 2.0)))


def _log_sinh(u: float) -> float:
    # sinh(u) = e^u (1 - e^{-2u}) / 2; the direct path overflows past u ~ 710
    if u < 300.0:
        return math.log(math.sinh(u))
    return u - LOG2 + math.log1p(-math.exp(-2.0 * u))


def length_from_trace(abs_trace: float) -> float:
    """Geodesic length of a hyperbolic matrix class from |trace|, via 2cosh(l/2) = |tr|.

    Raises NotHyperbolic for |trace| <= 2 (elliptic or parabolic classes have
    no geodesic length).
    """
    x = _as_real("abs_trace", abs_trace)
    if x <= 2.0:
        raise NotHyperbolic(f"|trace| = {x!r} is not > 2; no closed geodesic")
    half = 0.5 * x
    if half > 1e8:
        # acosh(h) = log(2h) - 1/(4h^2) - ...; the correction is below one ulp
        # here, and the direct path would overflow past h ~ 1e154
        return 2.0 * (math.log(half) + LOG2)
    return 2.0 * _acosh1p(half - 1.0)  # half - 1 is exact for half < 2^53


def collar_width(length: float) -> float:
    """Half-width arcsinh(1/sinh(l/2)) of the embedded collar around a simple
    closed geodesic of the given length. Strictly decreasing in the length."""
    l = _require_positive("length", length)
    return math.asinh(1.0 / _sinh_half(l))


def collar_width_at_radius(length: float, radius: float) -> float:
    """Half-width arcsinh(sinh(R)/sinh(l/2)) of the radius-R collar.

    Reduces to collar_width at R = arcsinh(1). Increasing in R, decreasing in
    the length.
    """
    l = _require_positive("length", length)
    r = _require_positive("radius", radius)
    y = 0.5 * l
    if r > 300.0 or y > 300.0:
        log_ratio = _log_sinh(r) - _log_sinh(y)
        if log_ratio < 700.0:
            return math.asinh(math.exp(log_ratio))
        return LOG2 + log_ratio  # asinh(x) = log(2x) + O(x^-2)
    return math.asinh(math.sinh(r) / _sinh_half(l))


def cylinder_volume(length: float, radius: float) -> float:
    """Volume 4*pi*sinh(R)*l/sinh(l/2) of the radius-R cylinder around a
    closed geodesic; bounded by 8*pi*sinh(R), with equality in the pinching
    limit l -> 0."""
    l = _require_positive("length", length)
    r = _require_positive("radius", radius)
    ratio = l / _sinh_half(l)  # 0 for very long geodesics
    if r > 709.0:
        return math.inf if ratio > 0.0 else 0.0
    return 4.0 * math.pi * math.sinh(r) * ratio


def thin_part_upper_bound(simple_count: int, radius: float) -> float:
    """Upper bound 8*pi*sinh(R)*count for the volume of the R-thin part, given
    the number of simple closed geodesics of length at most 2R."""
    n = _as_int("simple_count", simple_count)
    if n < 0:
        raise DomainError(f"simple_count must be a nonnegative integer, got {simple_count!r}")
    r = _require_positive("radius", radius)
    if n == 0:
        return 0.0
    if r > 709.0:
        return math.inf
    return 8.0 * math.pi * math.sinh(r) * n


def injrad_from_collar(length: float, offset: float) -> float:
    """Injectivity radius at distance ``offset`` from a geodesic of the given
    length, from sinh(InjRad) = sinh(l/2)*cosh(offset)."""
    l = _require_positive("length", length)
    lam = _as_real("offset", offset)
    if not lam >= 0.0:
        raise DomainError(f"offset must be a nonnegative finite real, got {offset!r}")
    y = 0.5 * l
    if y + lam > 350.0:
        # sinh(y)cosh(lam) = e^{y+lam}(1-e^{-2y})(1+e^{-2lam})/4, then log form of asinh
        return (y + lam) + math.log(
            (1.0 - math.exp(-2.0 * y)) * (1.0 + math.exp(-2.0 * lam)) / 2.0
        )
    return math.asinh(_sinh_half(l) * math.cosh(lam))


def crossing_length_bound(pinch_length: float) -> float:
    """Minimal length 2*arcsinh(1/sinh(t/2)) of a simple closed geodesic that
    crosses a geodesic of length t; diverges as t -> 0."""
    t = _require_positive("pinch_length", pinch_length)
    inv = 1.0 / _sinh_half(t)  # overflows to inf only below the subnormal floor of sinh
    return 2.0 * math.asinh(inv)


def distortion_bound(eps: float) -> float:
    """Length-distortion bound 1 + (5/4)*eps^2 of the boundary-coherent
    comparison map between the eps-pinched surface and its model.

    Only valid for 0 < eps < 1/2; outside that window raises DomainError.
    """
    e = _as_real("eps", eps)
    if not 0.0 < e < 0.5:
        raise DomainError(f"eps must lie strictly in (0, 1/2), got {eps!r}")
    return 1.0 + 1.25 * e * e
