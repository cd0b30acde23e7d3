"""Test-function transforms and both sides of the trace-formula identity.

A smooth compactly supported profile phi on [0, infinity) determines the
geometric-side kernel g (an integral of phi over a horocyclic variable) and
the spectral-side multiplier h (the Fourier cosine dual of g). The identity
anchoring everything here is that the spectral integral of h against the
plane's spectral density recovers phi(0); the geometric side pairs g with a
length spectrum. Both evaluations return a value with an error radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .certified import CertifiedValue
from .congruence import _as_int
from .convergence import (
    _EPS,
    PinchLadder,
    _ladder_count,
    _rung_weights,
    compacted_surface,
    short_spectrum,
    validity_check,
)
from .errors import DomainError, NumericsError
from .hyperbolic import _sinh_half
from .quadrature import adaptive_integral, gauss_legendre

_KNOTS = 2049  # kernel spline knots; odd, so every other knot keeps both ends
_R_SPLIT = 14.0  # 2r/(e^(2 pi r) + 1) is below 1e-36 past here
_CLAMP = ((1, 0.0), "not-a-knot")  # g is even, so g'(0) = 0


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Smooth profile phi on [0, infinity) vanishing at and beyond support_bound."""

    __test__ = False  # "test function" is analytic vocabulary; keep pytest away

    evaluator: Callable[[float], float]
    support_bound: float

    def __post_init__(self) -> None:
        s = float(self.support_bound)
        if not (math.isfinite(s) and s > 0.0):
            raise DomainError(f"support_bound must be a positive finite real, got {s!r}")
        object.__setattr__(self, "support_bound", s)
        for u in np.linspace(s, 2.0 * s, 9):
            if self.evaluator(float(u)) != 0.0:
                raise DomainError(f"evaluator({u}) != 0 beyond the stated support {s}")
        for u in np.linspace(0.0, s, 33):
            if not math.isfinite(self.evaluator(float(u))):
                raise DomainError(f"evaluator({u}) is not finite inside the support")

    def __call__(self, u):
        return self.evaluator(u)


def bump(S, amplitude=1.0) -> TestFunction:
    """The standard smooth bump amplitude * exp(-1/(1 - (u/S)^2)) on [0, S)."""
    S = float(S)
    if not (math.isfinite(S) and S > 0.0):
        raise DomainError(f"S must be a positive finite real, got {S!r}")
    amplitude = float(amplitude)

    def phi(u):
        x = np.asarray(u, dtype=float) / S
        w = 1.0 - x * x
        inside = w > 0.0
        out = np.where(inside, amplitude * np.exp(-1.0 / np.where(inside, w, 1.0)), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    return TestFunction(evaluator=phi, support_bound=S)


def g_transform(phi: TestFunction, r) -> float:
    """Kernel value g(r) = 2 * integral of phi(2 cosh r - 2 + s^2) over s >= 0.

    Exactly zero once 2 cosh r - 2 clears the support; otherwise adaptive
    quadrature to 1e-10 absolute.
    """
    r = float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"r must be a nonnegative finite real, got {r!r}")
    S = phi.support_bound
    if r > 500.0:
        return 0.0
    x0 = 2.0 * math.cosh(r) - 2.0
    if x0 >= S:
        return 0.0
    s_max = math.sqrt(S - x0)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        return phi.evaluator(x0 + s * s)

    value, _ = adaptive_integral(integrand, 0.0, s_max, 5e-11)
    return 2.0 * value


def _acosh1p(x: float) -> float:
    # arccosh(1 + x) without cancellation for small x
    return math.log1p(x + math.sqrt(x * (x + 2.0)))


@dataclass(frozen=True, eq=False)
class TransformProfile:
    """The packaged (g, h) pair for one test function.

    ``spline`` is the clamped cubic spline of g on [0, g_support]; ``g`` is
    its even extension, zero at and beyond ``g_support``. ``h`` is the cosine
    transform of that g by a fixed rule on the kernel nodes, accurate to
    about 1e-12 absolute while r * g_support stays below about 1300 (the
    rule aliases past that), and ``h_batch`` is the same map over float
    arrays.
    """

    g: Callable
    h: Callable[[float], float]
    g_support: float
    spline: CubicSpline
    g_nonincreasing: bool
    h_batch: Callable[[np.ndarray], np.ndarray]


def transform_profile(phi: TestFunction) -> TransformProfile:
    """Evaluate g once on 2049 knots and package spline-backed g and h.

    The spline is clamped to g'(0) = 0, since g is even. h(r) is the cosine
    integral of the spline by a 384-point Gauss-Legendre rule on the support,
    one route for every r. The knot count is odd so that every other knot,
    which plancherel_integral uses to estimate the spline error, keeps both
    ends.
    """
    S = phi.support_bound
    L = _acosh1p(0.5 * S)
    beta = np.linspace(0.0, L, _KNOTS)
    v = 2.0 * np.cosh(beta) - 2.0
    s_max = np.sqrt(np.maximum(S - v, 0.0))
    xi, wq = gauss_legendre(128)
    xi = 0.5 * (xi + 1.0)
    wq = 0.5 * wq
    u_grid = v[:, None] + (s_max[:, None] ** 2) * (xi[None, :] ** 2)
    gvals = 2.0 * s_max * (np.asarray(phi.evaluator(u_grid)) @ wq)
    gvals[-1] = 0.0
    spline = CubicSpline(beta, gvals, bc_type=_CLAMP)

    xg, wg = gauss_legendre(384)
    xg = 0.5 * L * (xg + 1.0)
    wg_g = 0.5 * L * wg * spline(xg)

    def g_fun(r):
        arr = np.abs(np.asarray(r, dtype=float))
        out = np.where(arr < L, spline(np.minimum(arr, L)), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def h_batch(r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        flat = r.ravel()
        out = np.empty(flat.size)
        # blocked to bound the temporaries
        for blk in range(0, flat.size, 256):
            out[blk : blk + 256] = 2.0 * (np.cos(np.outer(flat[blk : blk + 256], xg)) @ wg_g)
        return out.reshape(r.shape)

    def h_fun(r: float) -> float:
        return float(h_batch(np.asarray([abs(float(r))]))[0])

    slack = 1e-12 * float(np.max(np.abs(gvals)) or 1.0)
    return TransformProfile(
        g=g_fun,
        h=h_fun,
        g_support=L,
        spline=spline,
        g_nonincreasing=bool(np.all(np.diff(gvals) <= slack) and gvals[0] >= 0.0),
        h_batch=h_batch,
    )


def h_transform(profile: TransformProfile, r) -> float:
    """Spectral multiplier h(r) as the cosine integral of g over its support,
    by adaptive quadrature to 1e-10 absolute; bit-identically even in r."""
    r = abs(float(r))
    if not math.isfinite(r):
        raise DomainError(f"r must be a finite real, got {r!r}")
    L = profile.g_support
    g = profile.g

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return g(u) * np.cos(r * u)

    value, _ = adaptive_integral(integrand, -L, L, 1e-10)
    return value


def _log_moment(spline: CubicSpline) -> tuple[float, float]:
    """-2 * integral of g'(u)/u du over the spline's span, in closed form,
    and a magnitude that bounds the roundoff of the terms behind it.

    On a piece [a, b] the derivative is alpha + beta u + gamma u^2, whose
    integral against 1/u is alpha log(b/a) + beta (b - a) + gamma (b^2 - a^2)/2.
    """
    a, b = spline.x[:-1], spline.x[1:]
    c3, c2, c1 = spline.c[0], spline.c[1], spline.c[2]
    dx = b - a
    # the first piece starts at a = 0, where the clamp g'(0) = 0 makes alpha 0
    log_ratio = np.concatenate([[0.0], np.log1p(dx[1:] / a[1:])])
    alpha = (3.0 * c3 * a - 2.0 * c2) * a + c1
    terms = alpha * log_ratio + (2.0 * c2 - 6.0 * c3 * a + 1.5 * c3 * (a + b)) * dx
    m3, m2, m1 = np.abs(c3), np.abs(c2), np.abs(c1)
    size = (((3.0 * m3 * a + 2.0 * m2) * a + m1) * log_ratio
            + (2.0 * m2 + m3 * (7.5 * a + 1.5 * b)) * dx)
    return -2.0 * math.fsum(terms.tolist()), 2.0 * float(np.sum(size))


def _fermi_moment(h_batch: Callable, n: int) -> tuple[float, float]:
    """integral over [0, _R_SPLIT] of 2 r h(r)/(e^(2 pi r) + 1) by n-point
    Gauss-Legendre, and the sum of the magnitudes of its terms."""
    x, w = gauss_legendre(n)
    r = 0.5 * _R_SPLIT * (x + 1.0)
    terms = _R_SPLIT * w * r * h_batch(r) / (np.exp(2.0 * math.pi * r) + 1.0)
    return math.fsum(terms.tolist()), float(np.sum(np.abs(terms)))


def plancherel_integral(profile: TransformProfile) -> CertifiedValue:
    """Spectral integral (1/2 pi) * int_0^inf h(r) tanh(pi r) r dr.

    For a profile built from a test function phi this recovers phi(0). With
    r tanh(pi r) = r - 2r/(e^(2 pi r) + 1) the integral is (A - B)/2 pi:
    A = int_0^inf r h(r) dr = -2 int_0^L g'(u)/u du in closed form over the
    spline pieces, and B = int_0^inf 2r h(r)/(e^(2 pi r) + 1) dr by a
    128-point rule on [0, 14] through ``profile.h_batch``.

    The radius has four parts. Two are estimates: the change in A when the
    spline is rebuilt on every other knot (A is far more sensitive to the
    spline error than B is), and the change in B from a 64-point rule. The
    tail of B past r = 14 is a bound, from |h| <= 2 int |g|. The roundoff
    part is an estimate of a few ulp per summed term.
    """
    spline = profile.spline
    a_fine, a_size = _log_moment(spline)
    knots = spline.x[::2]
    a_coarse, _ = _log_moment(CubicSpline(knots, spline(knots), bc_type=_CLAMP))
    b_fine, b_size = _fermi_moment(profile.h_batch, 128)
    b_coarse, _ = _fermi_moment(profile.h_batch, 64)
    # sup |h| <= 2 int |g| <= 2 sum over the pieces of dx sup |cubic|
    dx = np.diff(spline.x)
    h_sup = 2.0 * float(np.sum(dx * np.polyval(np.abs(spline.c), dx)))
    # int_R^inf 2r e^(-2 pi r) dr = e^(-2 pi R) (R/pi + 1/(2 pi^2))
    tail = h_sup * math.exp(-2.0 * math.pi * _R_SPLIT) * (_R_SPLIT / math.pi + 0.5 / math.pi**2)
    roundoff = 8.0 * _EPS * (a_size + b_size + h_sup)
    scale = 1.0 / (2.0 * math.pi)
    value = scale * (a_fine - b_fine)
    radius = scale * (abs(a_fine - a_coarse) + abs(b_fine - b_coarse) + tail + roundoff)
    return CertifiedValue(value, radius)


def _ladder_geometric(ladder: PinchLadder, profile: TransformProfile) -> CertifiedValue:
    t = ladder.pinch_length
    mult = ladder.multiplicity
    L = profile.g_support
    n_eff = min(ladder.count, _ladder_count(t, L))
    if n_eff == 0:
        return CertifiedValue(0.0, 0.0)

    def exact_block(k_lo: int, k_hi: int) -> float:
        parts = []
        chunk = 2_000_000
        for start in range(k_lo, k_hi + 1, chunk):
            k = np.arange(start, min(start + chunk - 1, k_hi) + 1, dtype=float)
            parts.append(float(np.sum(_rung_weights(t, k) * profile.g(k * t))))
        return math.fsum(parts)

    if n_eff <= 4_000_000:
        core = exact_block(1, n_eff)
        return CertifiedValue(0.5 * mult * core, 5e-15 * abs(0.5 * mult * core))
    if not profile.g_nonincreasing:
        raise NumericsError(
            f"ladder needs {n_eff} kernel terms and g is not certified monotone; "
            "cannot bracket the tail"
        )
    head_n = 10**6
    head = exact_block(1, head_n)

    # tail summand w(k) = t g(k t)/sinh(k t/2) is decreasing; integral bracket
    # in u = x t: sum over k in (head_n, n_eff] lies between the integrals of
    # g(u)/sinh(u/2) du over [a t, (n+1) t] and [a t, n t] plus w(a)
    def kernel(u):
        u = np.asarray(u, dtype=float)
        return profile.g(u) / np.sinh(0.5 * u)

    a = head_n + 1
    u_lo = a * t
    # the bracket half-width w(a) ~ 2 sup g / a dominates the radius, so the
    # quadrature budget can stay loose
    i_long, e_long = adaptive_integral(kernel, u_lo, min((n_eff + 1) * t, L), 1e-9)
    i_short, e_short = adaptive_integral(kernel, u_lo, min(n_eff * t, L), 1e-9)
    w_a = t * profile.g(u_lo) / _sinh_half(u_lo)
    tail_lo = i_long
    tail_hi = i_short + w_a
    tail_mid = 0.5 * (tail_lo + tail_hi)
    tail_rad = 0.5 * (tail_hi - tail_lo) + e_long + e_short
    value = 0.5 * mult * (head + tail_mid)
    return CertifiedValue(value, 0.5 * mult * (tail_rad + 5e-15 * (abs(head) + abs(tail_mid))))


def geometric_side(spectrum, g) -> CertifiedValue:
    """Length-spectrum side: sum of multiplicity * primitive_length /
    (2 sinh(length/2)) * g(length).

    ``g`` may be a TransformProfile or a bare kernel callable; ladders too
    long to materialize require a profile (its support and monotonicity data
    drive a certified head-plus-bracket evaluation).
    """
    if isinstance(g, TransformProfile):
        kernel = g.g
        profile = g
    else:
        if not callable(g):
            raise DomainError(f"g must be a TransformProfile or callable, got {g!r}")
        kernel = g
        profile = None
    if isinstance(spectrum, PinchLadder):
        if profile is None:
            raise DomainError(
                "summing a pinch ladder needs a TransformProfile for its support data"
            )
        return _ladder_geometric(spectrum, profile)
    terms = [
        cls.multiplicity * cls.primitive_length / (2.0 * _sinh_half(cls.length))
        * kernel(cls.length)
        for cls in spectrum
    ]
    value = math.fsum(terms)
    return CertifiedValue(value, 3e-16 * math.fsum(abs(x) for x in terms))


@dataclass(frozen=True)
class VanishingRow:
    """One schedule entry of the normalized geometric side; NaN when the
    support radius defeats the validity floor."""

    j: int
    level: int
    pinch: float
    normalized: float
    valid: bool


def vanishing_series(schedule, phi: TestFunction, j_max) -> list[VanishingRow]:
    """Normalized geometric side along a schedule, at radius = the g-support.

    Rows where the complete-spectrum guarantee fails are flagged, not fatal.
    Sub-exponential pinch rules drive the series to zero; exponential ones
    hold it away from zero.
    """
    j_max = _as_int("j_max", j_max)
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    profile = transform_profile(phi)
    radius = profile.g_support
    rows = []
    for j in range(1, min(j_max, len(schedule.levels)) + 1):
        level = schedule.levels[j - 1]
        t = schedule.pinch_lengths[j - 1]
        if validity_check(level, t, radius):
            ladder = short_spectrum(level, t, radius)
            side = geometric_side(ladder, profile)
            volume = compacted_surface(level, t).volume
            rows.append(VanishingRow(j, level, t, float(side) / volume, True))
        else:
            rows.append(VanishingRow(j, level, t, math.nan, False))
    return rows
