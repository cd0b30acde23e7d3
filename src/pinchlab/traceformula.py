"""Test-function transforms and both sides of the trace-formula identity.

A smooth compactly supported profile phi on [0, infinity) determines the
geometric-side kernel g (an integral of phi over a horocyclic variable) and
the spectral-side multiplier h (the Fourier cosine dual of g). The identity
anchoring everything here is that the spectral integral of h against the
plane's spectral density recovers phi(0); the geometric side pairs g with a
length spectrum. Both evaluations carry certified error accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.interpolate import CubicSpline

from .certified import CertifiedValue
from .congruence import _as_int
from .convergence import (
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

_TAIL_TARGET = 1e-10  # certified truncation bound for the spectral integral
_R_CAP = 65536.0  # give up octave doubling past this frequency


def _tanh_pi(r: float) -> float:
    # tanh(pi r) is 1 to machine precision well before r = 20
    if r > 20.0:
        return 1.0
    return math.tanh(math.pi * r)


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


def _derivative_sup(sample: Callable[[np.ndarray], np.ndarray], L: float) -> dict[int, float]:
    """Finite-difference estimates of sup |G^(k)| for the even extension of g,
    padded by a factor 4 and maximized over stencil widths for robustness."""
    stencils = {
        4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
        6: np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]),
        8: np.array([1.0, -8.0, 28.0, -56.0, 70.0, -56.0, 28.0, -8.0, 1.0]),
    }
    deltas = sorted({0.02, 0.04, 0.08, L / 24.0, L / 12.0, L / 6.0})
    constants = {}
    for order, coef in stencils.items():
        half = len(coef) // 2
        best = 0.0
        for delta in deltas:
            u0 = np.linspace(0.0, L + (half + 1) * delta, 400)
            acc = np.zeros_like(u0)
            for j, cj in enumerate(coef):
                acc += cj * sample(u0 + (j - half) * delta)
            best = max(best, float(np.max(np.abs(acc))) / delta**order)
        constants[order] = 4.0 * 2.0 * L * best
    return constants


@dataclass(frozen=True, eq=False)
class TransformProfile:
    """The packaged (g, h) pair for one test function.

    ``g`` vanishes at and beyond ``g_support``; ``h`` is even and accurate to
    about 1e-12 absolute, with ``h_batch`` the same map over float arrays.
    ``tail_constants`` maps a derivative order k to a constant C with
    |h(r)| <= C / r^k, the data behind certified truncation of the spectral
    integral; ``h_l1`` is the uniform bound 2 * integral |g|.
    """

    g: Callable
    h: Callable[[float], float]
    g_support: float
    tail_constants: Mapping[int, float] = field(default_factory=dict, repr=False)
    h_l1: float = field(default=math.inf, repr=False)
    g_nonincreasing: bool = field(default=False, repr=False)
    h_batch: Callable | None = field(default=None, repr=False)


def transform_profile(phi: TestFunction, nodes: int = 2049) -> TransformProfile:
    """Evaluate g once on a dense grid and package fast spline-backed g and h.

    h(r) for r >= 1 comes from exact cosine moments of the cubic pieces, so
    no oscillatory quadrature is ever needed; below r = 1 a fixed high-order
    rule on the support suffices. Derivative sups of the even extension of g
    are estimated for the spectral-tail certificates.
    """
    S = phi.support_bound
    L = _acosh1p(0.5 * S)
    beta = np.linspace(0.0, L, nodes)
    v = 2.0 * np.cosh(beta) - 2.0
    s_max = np.sqrt(np.maximum(S - v, 0.0))
    xi, wq = gauss_legendre(128)
    xi = 0.5 * (xi + 1.0)
    wq = 0.5 * wq
    u_grid = v[:, None] + (s_max[:, None] ** 2) * (xi[None, :] ** 2)
    gvals = 2.0 * s_max * (np.asarray(phi.evaluator(u_grid)) @ wq)
    gvals[-1] = 0.0

    spline = CubicSpline(beta, gvals)
    coeff = spline.c
    a_kn = beta[:-1]
    b_kn = beta[1:]
    dx = b_kn - a_kn
    c3, c2, c1, c0 = coeff[0], coeff[1], coeff[2], coeff[3]
    p_a, dp_a, d2p_a = c0, c1, 2.0 * c2
    d3p = 6.0 * c3  # constant per piece
    p_b = ((c3 * dx + c2) * dx + c1) * dx + c0
    dp_b = (3.0 * c3 * dx + 2.0 * c2) * dx + c1
    d2p_b = 6.0 * c3 * dx + 2.0 * c2

    xg, wg = gauss_legendre(384)
    xg = 0.5 * L * (xg + 1.0)
    wg = 0.5 * L * wg
    g_small = spline(xg)
    wg_g = wg * g_small

    def g_fun(r):
        arr = np.abs(np.asarray(r, dtype=float))
        out = np.where(arr < L, spline(np.minimum(arr, L)), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def h_batch(r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        out = np.empty(r.shape)
        small = r < 1.0
        if small.any():
            out[small] = 2.0 * (np.cos(np.outer(r[small], xg)) @ wg_g)
        idx = np.flatnonzero(~small)
        # moments of the cubic pieces, blocked to bound the temporaries
        for blk in range(0, idx.size, 256):
            sel = idx[blk : blk + 256]
            rc = r[sel][:, None]
            sin_a, cos_a = np.sin(rc * a_kn), np.cos(rc * a_kn)
            sin_b, cos_b = np.sin(rc * b_kn), np.cos(rc * b_kn)
            r2 = rc * rc
            r3 = r2 * rc
            r4 = r3 * rc
            upper = p_b * sin_b / rc + dp_b * cos_b / r2 - d2p_b * sin_b / r3 - d3p * cos_b / r4
            lower = p_a * sin_a / rc + dp_a * cos_a / r2 - d2p_a * sin_a / r3 - d3p * cos_a / r4
            out[sel] = 2.0 * np.sum(upper - lower, axis=1)
        return out

    def h_fun(r: float) -> float:
        return float(h_batch(np.asarray([abs(float(r))]))[0])

    def even_sample(u: np.ndarray) -> np.ndarray:
        u = np.abs(u)
        return np.where(u < L, spline(np.minimum(u, L)), 0.0)

    slack = 1e-12 * float(np.max(np.abs(gvals)) or 1.0)
    return TransformProfile(
        g=g_fun,
        h=h_fun,
        g_support=L,
        tail_constants=_derivative_sup(even_sample, L),
        h_l1=2.0 * float(np.dot(wg, np.abs(g_small))),
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


def plancherel_integral(profile: TransformProfile) -> CertifiedValue:
    """Spectral integral (1/2 pi) * int_0^inf h(r) tanh(pi r) r dr, summed in
    doubling octaves until the certified truncation bound drops below 1e-10.

    For a profile built from a test function phi this recovers phi(0).
    """
    if not profile.tail_constants:
        raise NumericsError(
            "profile carries no derivative-sup data; the spectral tail cannot be certified"
        )
    h = profile.h
    h_batch = profile.h_batch or (lambda arr: np.asarray([h(x) for x in arr]))

    def integrand(r):
        arr = np.asarray(r, dtype=float)
        flat = np.atleast_1d(arr)
        factor = np.where(flat > 20.0, 1.0, np.tanh(math.pi * np.minimum(flat, 20.0)))
        vals = h_batch(flat) * flat * factor
        if arr.ndim == 0:
            return float(vals[0])
        return vals

    def tail_bound(r_edge: float) -> float:
        best = math.inf
        for k, ck in profile.tail_constants.items():
            best = min(best, ck / (2.0 * math.pi * (k - 2) * r_edge ** (k - 2)))
        return best

    total = 0.0
    quad_err = 0.0
    lo, hi = 0.0, 2.0
    while True:
        value, err = adaptive_integral(integrand, lo, hi, 5e-12)
        total += value
        quad_err += err
        bound = tail_bound(hi)
        if bound <= _TAIL_TARGET:
            break
        if hi >= _R_CAP:
            raise NumericsError(
                f"spectral tail bound is only {bound:.3e} at r = {hi}; "
                "cannot certify the truncation at 1e-10"
            )
        lo, hi = hi, 2.0 * hi
    scale = 1.0 / (2.0 * math.pi)
    value = scale * total
    return CertifiedValue(value, scale * quad_err + bound + 1e-15 * abs(value))


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
