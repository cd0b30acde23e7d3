"""Closed-form hyperbolic trigonometry: traces, collars, cylinders, injectivity radii.

Every function is pure and total on its stated domain; arguments outside it
raise typed errors rather than being clamped. Lengths and radii are in
hyperbolic length units.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NotHyperbolic, _as_int, _as_real, _require_positive

LOG2 = math.log(2.0)
_NORMAL_MIN = sys.float_info.min  # below it l/2 rounds, down to 0 at the smallest length

# sinh(arcsinh(1)) = 1: the radius at which the radius-R collar specializes
# to the standard collar.
STANDARD_COLLAR_RADIUS = math.asinh(1.0)


def _sinh_half(length: float) -> float:
    """sinh(length/2): y = length/2 below 1e-8, where the series past y no
    longer changes a bit, and inf where math.sinh raises past the float range."""
    y = 0.5 * length
    if y < 1e-8:
        return y
    try:
        return math.sinh(y)
    except OverflowError:
        return math.inf


def _acosh1p(x: float) -> float:
    """arccosh(1 + x), without cancellation for small x. Past 1 + x = 1e8 it
    is log(2(1 + x)): arccosh(y) = log(2y) - 1/(4y^2) - ..., and the
    correction is below one ulp there, where x(x + 2) would overflow past
    x ~ 1.3e154."""
    y = x + 1.0
    if y > 1e8:
        return math.log(y) + LOG2
    return math.log1p(x + math.sqrt(x * (x + 2.0)))


def _log1mexp(x: float) -> float:
    """log(1 - e^-x) for x > 0, as log(-expm1(-x)): exact in the small
    lengths, where 1 - e^-x cancels, and 0 where e^-x underflows."""
    return math.log(-math.expm1(-x))


def _log_tanh(z: float) -> float:
    """log tanh(z) to a few ulp of its value, also where tanh(z) rounds to 1."""
    if z < 1.0:
        return math.log(math.tanh(z))
    e = math.exp(-2.0 * z)
    return math.log1p(-2.0 * e / (1.0 + e))


def _exp_fsum(terms) -> float:
    """exp of the exact sum of ``terms``, as exp(hi) (1 + lo) with hi their
    rounded sum and lo the part it rounded off; inf past the float range."""
    hi = math.fsum(terms)
    lo = math.fsum([*terms, -hi])
    try:
        return math.exp(hi) * (1.0 + lo)
    except OverflowError:
        return math.inf


def _collar(length: float) -> float:
    """arcsinh(1/sinh(l/2)) = -log tanh(l/4) for a valid length; log(4/l)
    below the normal range, where l/4 need not be a float."""
    if length < _NORMAL_MIN:
        return 2.0 * LOG2 - math.log(length)
    return -_log_tanh(0.25 * length)


def length_from_trace(abs_trace: float) -> float:
    """Geodesic length of a hyperbolic matrix class from |trace|, via 2cosh(l/2) = |tr|.

    Raises NotHyperbolic for |trace| <= 2 (elliptic or parabolic classes have
    no geodesic length).
    """
    x = _as_real("abs_trace", abs_trace)
    if x <= 2.0:
        raise NotHyperbolic(f"|trace| = {x!r} is not > 2; no closed geodesic")
    return 2.0 * _acosh1p(0.5 * x - 1.0)  # 0.5 x - 1 is exact for |trace| < 2^54


def collar_width(length: float) -> float:
    """Half-width arcsinh(1/sinh(l/2)) of the embedded collar around a simple
    closed geodesic of the given length. Strictly decreasing in the length."""
    return _collar(_require_positive("length", length))


def collar_width_at_radius(length: float, radius: float) -> float:
    """Half-width arcsinh(sinh(R)/sinh(l/2)) of the radius-R collar.

    Reduces to collar_width at R = arcsinh(1). Increasing in R, decreasing in
    the length.
    """
    l = _require_positive("length", length)
    r = _require_positive("radius", radius)
    x = math.inf
    if r < 709.0 and l <= 1400.0:
        # sinh(l/2) is l/2 below the normal range, where l/2 need not be a float
        x = 2.0 * math.sinh(r) / l if l < _NORMAL_MIN else math.sinh(r) / _sinh_half(l)
    if x < math.inf:
        return math.asinh(x)
    # log x from the exact R - l/2 and two logs that are small wherever x is
    terms = (r, -0.5 * l, _log1mexp(2.0 * r), -_log1mexp(l))
    log_x = math.fsum(terms)
    if log_x > 20.0:
        return LOG2 + log_x  # asinh(x) = log(2x) + O(x^-2)
    return math.asinh(_exp_fsum(terms))


def cylinder_volume(length: float, radius: float) -> float:
    """Volume 4*pi*sinh(R)*l/sinh(l/2) of the radius-R cylinder around a
    closed geodesic; bounded by 8*pi*sinh(R), with equality in the pinching
    limit l -> 0."""
    l = _require_positive("length", length)
    r = _require_positive("radius", radius)
    if r <= 700.0 and l <= 1400.0:
        # l/sinh(l/2) is 2 below the normal range, where l/2 need not be a float
        return 4.0 * math.pi * math.sinh(r) * (2.0 if l < _NORMAL_MIN else l / _sinh_half(l))
    # 4 pi e^(R - l/2) (1 - e^-2R) l/(1 - e^-l), its logarithm summed exactly;
    # l/(1 - e^-l) lies in [1, l]
    return _exp_fsum((r, -0.5 * l, math.log(4.0 * math.pi), _log1mexp(2.0 * r),
                      math.log(l / -math.expm1(-l))))


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
    # one rounding of the exact product, for counts past the float range too
    a, b = (8.0 * math.pi).as_integer_ratio()
    p, q = math.sinh(r).as_integer_ratio()
    try:
        return n * a * p / (b * q)
    except OverflowError:
        return math.inf


def injrad_from_collar(length: float, offset: float) -> float:
    """Injectivity radius at distance ``offset`` from a geodesic of the given
    length, from sinh(InjRad) = sinh(l/2)*cosh(offset)."""
    l = _require_positive("length", length)
    lam = _as_real("offset", offset)
    if not lam >= 0.0:
        raise DomainError(f"offset must be a nonnegative finite real, got {offset!r}")
    x = math.inf  # sinh(l/2) cosh(lam)
    if lam < 1400.0 and l <= 1400.0:
        # past lam = 700, cosh(lam) = c (c/2) with c = e^(lam/2), which stays finite
        c = math.cosh(lam) if lam < 700.0 else math.exp(0.5 * lam)
        # sinh(l/2) is l/2 below the normal range, where l/2 need not be a float
        x = l * c * 0.5 if l < _NORMAL_MIN else _sinh_half(l) * c
        if lam >= 700.0:
            x *= 0.5 * c
    if x < math.inf:
        return math.asinh(x)
    # x = e^(l/2 + lam) (1 - e^-l) (1 + e^-2 lam)/4 is past the float range here
    return LOG2 + math.fsum((0.5 * l, lam, -2.0 * LOG2, _log1mexp(l),
                             math.log1p(math.exp(-2.0 * lam))))


def crossing_length_bound(pinch_length: float) -> float:
    """Minimal length 2*arcsinh(1/sinh(t/2)) of a simple closed geodesic that
    crosses a geodesic of length t; diverges as t -> 0."""
    return 2.0 * _collar(_require_positive("pinch_length", pinch_length))


def distortion_bound(eps: float) -> float:
    """Length-distortion bound 1 + (5/4)*eps^2 of the boundary-coherent
    comparison map between the eps-pinched surface and its model.

    Only valid for 0 < eps < 1/2; outside that window raises DomainError.
    """
    e = _as_real("eps", eps)
    if not 0.0 < e < 0.5:
        raise DomainError(f"eps must lie strictly in (0, 1/2), got {eps!r}")
    return 1.0 + 1.25 * e * e
