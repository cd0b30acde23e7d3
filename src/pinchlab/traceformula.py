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
from functools import lru_cache
from typing import Callable

import numpy as np

from .certified import CertifiedValue
from .convergence import (
    _EPS,
    PinchLadder,
    _ladder_count,
    _ladder_sum,
    _log_tanh,
    _rung_length,
    _rung_weights,
    _weight_derivatives,
    compacted_surface,
    short_spectrum,
    validity_check,
)
from .errors import DomainError, _as_int, _require_positive
from .hyperbolic import _sinh_half

_DEGREE = 255  # of the kernel's Chebyshev series; g is even, so only T_0, T_2, ..., T_254
_TERMS = (_DEGREE + 1) // 2  # even coefficients, and interpolation nodes in [0, L]
_CHOP = 8  # trailing coefficients behind the chopping estimate
_GEO_HEAD = 1024  # rungs of a geometric side summed term by term before Euler-Maclaurin
_GEO_GAUSS = 128  # Gauss-Legendre nodes of the tail integral; exact to degree 255
_R_SPLIT = 14.0  # 2r/(e^(2 pi r) + 1) is below 1e-36 past here
_H_REACH = 1300.0  # largest r * g_support for h; the 384-point rule aliases from about 1370

# The positive half of the 2 * _TERMS Chebyshev points of the first kind, and
# the matrix taking g there to the even coefficients (a cosine transform; the
# angles are reduced exactly, in integers, before the cosine)
_NODES = np.cos((2 * np.arange(_TERMS) + 1) * (math.pi / (4 * _TERMS)))
_TO_COEFFICIENTS = np.cos(
    (np.outer(2 * np.arange(_TERMS), 2 * np.arange(_TERMS) + 1) % (8 * _TERMS))
    * (math.pi / (4 * _TERMS))
) / (_TERMS / 2)
_TO_COEFFICIENTS[0] *= 0.5
_ORDERS = np.arange(_DEGREE)  # T_0 .. T_254: the full series of g and its derivatives
_SIGNS = (-1.0) ** np.arange(_TERMS)  # T_2j(0)
# int_0^1 T_2j'(x)/x dx = 2j I_j, with I_j = int_0^(pi/2) sin(2j a)/cos(a) da
# = 2 sum_(i <= j) (-1)^(j - i)/(2i - 1)
_LOG_MOMENTS = 4.0 * np.arange(_TERMS) * _SIGNS * np.append(
    0.0, np.cumsum(_SIGNS[1:] / (2.0 * np.arange(1, _TERMS) - 1.0)))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Smooth profile phi on [0, infinity) vanishing at and beyond support_bound."""

    __test__ = False  # "test function" is analytic vocabulary; keep pytest away

    evaluator: Callable[[float], float]
    support_bound: float

    def __post_init__(self) -> None:
        s = _require_positive("support_bound", self.support_bound)
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
    S = _require_positive("S", S)
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


def _acosh1p(x: float) -> float:
    # arccosh(1 + x) without cancellation for small x
    return math.log1p(x + math.sqrt(x * (x + 2.0)))


def _even_series(coefficients: np.ndarray, x):
    """sum_j coefficients[j] T_2j(x), by Clenshaw's recurrence in
    T_j(2x^2 - 1); x may be an array."""
    y2 = 4.0 * np.square(x) - 2.0
    b1, b2, b0 = np.zeros_like(y2), np.zeros_like(y2), np.empty_like(y2)
    for c in coefficients[:0:-1].tolist():
        # b0 = y2 b1 - b2 + c, in place: the loop is bound by array passes
        np.multiply(y2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    return 0.5 * y2 * b1 - b2 + coefficients[0]


def _derivative(a: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the derivative of sum a_k T_k on [-1, 1],
    padded to the length of a: b_j = sum of 2m a_m over m > j with m - j
    odd, halved at j = 0."""
    w = 2.0 * np.arange(a.size) * a
    odd = np.append(np.cumsum(w[1::2][::-1])[::-1], 0.0)  # sums over odd m >= 2i + 1
    even = np.append(np.cumsum(w[0::2][::-1])[::-1], 0.0)  # sums over even m >= 2i
    b = np.empty(a.size)
    b[0::2] = odd[: b[0::2].size]
    b[1::2] = even[1 : 1 + b[1::2].size]
    b[0] *= 0.5
    return b


@dataclass(frozen=True, eq=False)
class TransformProfile:
    """The packaged (g, h) pair for one test function.

    g is the even Chebyshev series sum_j coefficients[j] T_2j(u/L) on
    [-L, L], L = ``g_support``, and zero at and beyond L. ``kernel_error``
    is an estimate, not a bound, of its distance to the exact kernel: twice
    the sum of the last 8 coefficients (the trailing plateau, after
    Aurentz and Trefethen, "Chopping a Chebyshev series", ACM TOMS 2017)
    plus a few ulp of the coefficient sum for roundoff. The columns of
    ``ladder_series`` are g, g', ..., g^(6) (derivatives in u) as full
    Chebyshev series in T_k(u/L), k = 0..254, for the geometric side. ``h``
    is the cosine transform of g by a fixed rule, accurate to about 1e-12
    absolute while |r| * g_support stays at or below 1300; past that the rule
    aliases, so both raise DomainError. ``h_batch`` is the same map over
    float arrays.
    """

    g: Callable
    h: Callable[[float], float]
    g_support: float
    coefficients: np.ndarray
    kernel_error: float
    ladder_series: np.ndarray
    h_batch: Callable[[np.ndarray], np.ndarray]


def transform_profile(phi: TestFunction) -> TransformProfile:
    """Evaluate g once on 128 Chebyshev points of [0, L] and package the
    series-backed g and h.

    Each value g(u) = 2 int_0^(s_max) phi(2 cosh u - 2 + s^2) ds takes a
    128-point Gauss-Legendre rule in s. The values fix the 128 even
    coefficients of the degree-255 interpolant on the Chebyshev points of
    [-L, L]. h(r) is the cosine integral of that series by a 384-point
    Gauss-Legendre rule on the support, one route for every r.
    """
    S = phi.support_bound
    L = _acosh1p(0.5 * S)
    beta = L * _NODES
    v = 2.0 * np.cosh(beta) - 2.0
    s_max = np.sqrt(np.maximum(S - v, 0.0))
    xi, wq = _gauss_legendre(128)
    xi = 0.5 * (xi + 1.0)
    wq = 0.5 * wq
    u_grid = v[:, None] + (s_max[:, None] ** 2) * (xi[None, :] ** 2)
    gvals = 2.0 * s_max * (np.asarray(phi.evaluator(u_grid)) @ wq)
    coefficients = _TO_COEFFICIENTS @ gvals
    kernel_error = (2.0 * float(np.sum(np.abs(coefficients[-_CHOP:])))
                    + 8.0 * _EPS * float(np.sum(np.abs(coefficients))))

    columns = [np.zeros(_DEGREE)]
    columns[0][0::2] = coefficients
    for _ in range(6):
        columns.append(_derivative(columns[-1]) / L)
    ladder_series = np.stack(columns, axis=1)

    xg, wg = _gauss_legendre(384)
    xg = 0.5 * L * (xg + 1.0)
    wg_g = 0.5 * L * wg * _even_series(coefficients, xg / L)

    def g_fun(r):
        arr = np.abs(np.asarray(r, dtype=float))
        out = np.where(arr < L, _even_series(coefficients, np.minimum(arr, L) / L), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def h_batch(r) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        flat = r.ravel()
        if flat.size and not float(flat.max()) * L <= _H_REACH:
            raise DomainError(f"h needs |r| * g_support <= {_H_REACH:g}, got |r| = "
                              f"{float(flat.max())!r} with g_support = {L!r}")
        out = np.empty(flat.size)
        # blocked to bound the temporaries
        for blk in range(0, flat.size, 256):
            out[blk : blk + 256] = 2.0 * (np.cos(np.outer(flat[blk : blk + 256], xg)) @ wg_g)
        return out.reshape(r.shape)

    def h_fun(r: float) -> float:
        return float(h_batch(np.asarray([abs(float(r))]))[0])

    return TransformProfile(
        g=g_fun,
        h=h_fun,
        g_support=L,
        coefficients=coefficients,
        kernel_error=kernel_error,
        ladder_series=ladder_series,
        h_batch=h_batch,
    )


def _fermi_moment(h_batch: Callable, n: int) -> tuple[float, float]:
    """integral over [0, _R_SPLIT] of 2 r h(r)/(e^(2 pi r) + 1) by n-point
    Gauss-Legendre, and the sum of the magnitudes of its terms."""
    x, w = _gauss_legendre(n)
    r = 0.5 * _R_SPLIT * (x + 1.0)
    terms = _R_SPLIT * w * r * h_batch(r) / (np.exp(2.0 * math.pi * r) + 1.0)
    return math.fsum(terms.tolist()), float(np.sum(np.abs(terms)))


def plancherel_integral(profile: TransformProfile) -> CertifiedValue:
    """Spectral integral (1/2 pi) * int_0^inf h(r) tanh(pi r) r dr.

    For a profile built from a test function phi this recovers phi(0). With
    r tanh(pi r) = r - 2r/(e^(2 pi r) + 1) the integral is (A - B)/2 pi:
    A = int_0^inf r h(r) dr = -2 int_0^L g'(u)/u du, exact on the kernel
    series (g'(u)/u is an even polynomial), and
    B = int_0^inf 2r h(r)/(e^(2 pi r) + 1) dr by a 128-point rule on
    [0, 14] through ``profile.h_batch``.

    The radius has five parts. Three are estimates: the kernel error as A
    sees it, twice what the last 8 series terms add to A (A weighs T_2j
    about 6j/L, so it is the part most sensitive to the chopping); the
    change in B from a 64-point rule; and the roundoff, a few ulp per summed
    term. Two are bounds given the kernel error: B moves by at most
    L kernel_error/12 when g does by kernel_error, since |delta h| <=
    2 L kernel_error and int 2r/(e^(2 pi r) + 1) dr = 1/24; and the tail of
    B past r = 14, from |h| <= 2 int |g| <= 2 L sum |c_j|.
    """
    L = profile.g_support
    terms = profile.coefficients * _LOG_MOMENTS
    a_value = -2.0 / L * math.fsum(terms.tolist())
    a_chop = 4.0 / L * float(np.sum(np.abs(terms[-_CHOP:])))
    a_size = 2.0 / L * float(np.sum(np.abs(terms)))
    b_fine, b_size = _fermi_moment(profile.h_batch, 128)
    b_coarse, _ = _fermi_moment(profile.h_batch, 64)
    h_sup = 2.0 * L * float(np.sum(np.abs(profile.coefficients)))
    # int_R^inf 2r e^(-2 pi r) dr = e^(-2 pi R) (R/pi + 1/(2 pi^2))
    tail = h_sup * math.exp(-2.0 * math.pi * _R_SPLIT) * (_R_SPLIT / math.pi + 0.5 / math.pi**2)
    b_kernel = L * profile.kernel_error / 12.0
    roundoff = 8.0 * _EPS * (a_size + b_size + h_sup)
    scale = 1.0 / (2.0 * math.pi)
    value = scale * (a_value - b_fine)
    radius = scale * (a_chop + abs(b_fine - b_coarse) + b_kernel + tail + roundoff)
    return CertifiedValue(value, radius)


def _ladder_geometric(ladder: PinchLadder, profile: TransformProfile) -> CertifiedValue:
    """(mult/2) sum over the rungs inside the support of t g(k t)/sinh(k t/2).

    The first _GEO_HEAD rungs are summed term by term; the rest, k = a..b,
    follow Euler-Maclaurin to order 6 (DLMF 2.10.1) for f(x) = g(x t) h(x),
    h(x) = t/sinh(x t/2). Its integral, int g(u)/sinh(u/2) du over
    [a t, b t], is 2 g(0) log(b/a) plus a 128-point Gauss-Legendre rule for
    the rest: 2 (g(u) - g(0))/u, a polynomial of degree 253 on the series
    that the rule integrates exactly, and g(u) (1/sinh(u/2) - 2/u), which
    is analytic. The remainder obeys
    |R_3| <= 2 |B_6|/6! int_a^b |f^(6)| (DLMF 2.10), and the Leibniz rule
    bounds int |f^(6)| by sum_(i < 6) C(6, i) t^i G_i |h^(5-i)(a)| +
    t^6 G_6 int h, since h is completely monotone; G_i bounds |g^(i)| by the
    coefficient sum of its series, as |T_k| <= 1.
    """
    t = ladder.pinch_length
    mult = ladder.multiplicity
    L = profile.g_support
    n_eff = min(ladder.count, _ladder_count(t, L))
    if n_eff == 0:
        return CertifiedValue(0.0, 0.0)
    n_head = min(n_eff, _GEO_HEAD)
    k = np.arange(1.0, n_head + 1.0)
    points = k * t
    if n_eff > _GEO_HEAD:
        a, b = _GEO_HEAD + 1, n_eff
        # the last rung may pass L by the cutoff grace; g vanishes there
        lo, hi = min(a * t, L), min(_rung_length(t, b), L)
        x, w = _gauss_legendre(_GEO_GAUSS)
        u = lo + 0.5 * (hi - lo) * (x + 1.0)
        points = np.concatenate([points, u])
    kernel_values = profile.g(points)
    head_terms = _rung_weights(t, k) * kernel_values[:n_head]
    head = math.fsum(head_terms.tolist())
    # a few ulp per term, plus the rounding of y = k t/2 in the weight
    roundoff = _EPS * (8.0 * float(np.sum(np.abs(head_terms)))
                       + 0.5 * t * float(np.dot(np.abs(head_terms), k)))
    value, remainder = head, 0.0
    if n_eff > _GEO_HEAD:
        g0 = float(_SIGNS @ profile.coefficients)
        log_ratio = math.log(b / a) if hi < L else math.log(L / lo)
        ends = np.cos(np.outer(np.arccos([lo / L, hi / L]), _ORDERS)) @ profile.ladder_series
        w = 0.5 * (hi - lo) * w
        g_rule, csch_rule = kernel_values[n_head:], 1.0 / np.sinh(0.5 * u)
        rest = w * (g_rule * csch_rule - 2.0 * g0 / u)
        parts = [2.0 * g0 * log_ratio]
        # the endpoint terms f/2, -+ f'/12 and +- f3/720 at a (sign 1) and b (sign -1)
        for end, u_end, sign in ((ends[0], lo, 1.0), (ends[1], hi, -1.0)):
            g_, g1, g2, g3 = end[:4]
            h = _weight_derivatives(t, u_end)
            parts += [0.5 * g_ * h[0],
                      -sign * (t * g1 * h[0] + g_ * h[1]) / 12.0,
                      sign * (t**3 * g3 * h[0] + 3.0 * t * t * g2 * h[1] + 3.0 * t * g1 * h[2]
                              + g_ * h[3]) / 720.0]
        value = head + math.fsum(parts) + math.fsum(rest.tolist())
        sups = np.sum(np.abs(profile.ladder_series), axis=0)
        h_a = np.abs(_weight_derivatives(t, lo))
        leibniz = sum(math.comb(6, i) * t**i * sups[i] * h_a[5 - i] for i in range(6))
        leibniz += t**6 * sups[6] * 2.0 * (_log_tanh(0.25 * hi) - _log_tanh(0.25 * lo))
        remainder = leibniz / 15120.0  # 2 |B_6|/6! = 1/15120
        # the two parts of each term of the rule cancel; charge a few ulp of both
        roundoff += 8.0 * _EPS * (math.fsum(abs(p) for p in parts)
                                  + float(w @ (np.abs(g_rule) * csch_rule + 2.0 * abs(g0) / u)))
    weight_sum, weight_err = _ladder_sum(t, n_eff)
    kernel_charge = profile.kernel_error * (weight_sum + weight_err)
    value *= 0.5 * mult
    return CertifiedValue(
        value, 0.5 * mult * (remainder + roundoff + kernel_charge) + _EPS * abs(value))


def geometric_side(spectrum, profile: TransformProfile) -> CertifiedValue:
    """Length-spectrum side: sum of multiplicity * primitive_length /
    (2 sinh(length/2)) * g(length), with g the kernel of ``profile``.

    A pinch ladder takes one route at any length: the first 1024 rungs term
    by term, the rest by Euler-Maclaurin on the kernel series; a list of
    classes is summed term by term. Either radius charges ``kernel_error``
    times the summed weights. The Euler-Maclaurin remainder is a proven
    bound for the series kernel; the kernel error and the roundoff (a few
    ulp per computed term) are estimates.
    """
    if not isinstance(profile, TransformProfile):
        raise DomainError(f"profile must be a TransformProfile, got {profile!r}")
    if isinstance(spectrum, PinchLadder):
        return _ladder_geometric(spectrum, profile)
    weighted = [(cls.multiplicity * cls.primitive_length / (2.0 * _sinh_half(cls.length)),
                 cls.length) for cls in spectrum]
    terms = [w * profile.g(length) for w, length in weighted]
    value = math.fsum(terms)
    radius = (3e-16 * math.fsum(abs(x) for x in terms)
              + profile.kernel_error * math.fsum(w for w, _ in weighted))
    return CertifiedValue(value, radius)


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
