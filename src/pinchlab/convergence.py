"""Pinched-surface families and their convergence functionals.

A level-N surface with its cusps replaced by paired geodesics of length t
carries an arithmetic ladder of short geodesics k*t. This module builds that
family, evaluates the two convergence criteria on it (the normalized
spectral-side sum and the simple-geodesic count ratio), certifies huge ladder
sums, and classifies pinch schedules by the trend of the criteria.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

from .certified import CertifiedValue
from .congruence import _compacted, _surface_data_cached, surface_data
from .errors import (DomainError, ValidityError, _as_int, _as_level, _as_real,
                     _require_positive, _validate_pinch)
from .hyperbolic import _collar, _distortion, _log_tanh, _sinh_half, length_from_trace

# Decimal-intended floats get a 1e-12 relative grace at the cutoff, so a
# ladder with t = 0.2, R = 1 has five rungs even though float(0.2) > 1/5.
_GRACE_P, _GRACE_Q = 10**12 + 1, 10**12
_HEAD = 32  # rungs of a criterion sum summed term by term in front of its Euler-Maclaurin tail
_WHOLE = 128  # criterion ladders of up to this many rungs are summed whole, with no tail
_RUNGS = [float(k) for k in range(1, _WHOLE + 1)]  # their rung numbers
_ORDER = 10  # Euler-Maclaurin order of a criterion tail; a kernel tail takes 6
_EULER_GAMMA = 0.5772156649015329
# per tail order 2m = 6 and 10: the Euler-Maclaurin end terms, each the
# order j = 2s - 1 of a derivative f^(j) and (2s)!/B_2s, which divides it; and
# (2m)!/(2 |B_2m|), which divides the integral of |f^(2m)| in the remainder
# bound (DLMF 2.10.2)
_EM = {6: (((1, 12.0), (3, -720.0)), 15120.0),
       10: (((1, 12.0), (3, -720.0), (5, 30240.0), (7, -1209600.0)), 23950080.0)}
_EPS = sys.float_info.epsilon
_EXACT_INT = 1 << 53  # integers below this convert to float exactly
_NORMAL_Y = 708.0  # e^-y is a normal float up to here, subnormal or 0 past it
_TINY = math.ulp(0.0)  # the smallest positive float


def _ladder_count(t: float, radius: float) -> int:
    """floor(radius * (1 + 1e-12) / t), in exact integer arithmetic."""
    rp, rq = radius.as_integer_ratio()
    tp, tq = t.as_integer_ratio()
    return rp * tq * _GRACE_P // (rq * tp * _GRACE_Q)


def _rung_length(t: float, k: int) -> float:
    """k*t correctly rounded, also for counts too large to convert to float."""
    if k < _EXACT_INT:
        return k * t  # k converts exactly, and the product rounds once
    p, q = t.as_integer_ratio()
    return k * p / q


class PinchLadder:
    """The arithmetic ladder of geodesic lengths k*t, k = 1..count, each of
    the same multiplicity: the length spectrum that both sums take.

    ``count`` may exceed anything a list could hold, so the sums consume the
    ladder arithmetically, from its pinch length, count and multiplicity.
    """

    __slots__ = ("pinch_length", "radius", "multiplicity", "count")

    def __init__(self, pinch_length: float, radius: float, multiplicity: int) -> None:
        t = _validate_pinch(pinch_length)
        r = _require_positive("radius", radius)
        m = _as_int("multiplicity", multiplicity)
        if m < 1:
            raise DomainError(f"multiplicity must be >= 1, got {m}")
        if m > sys.float_info.max:  # the sums scale by float(m)
            raise DomainError(f"multiplicity has {m.bit_length()} bits, past the float range")
        self.pinch_length = t
        self.radius = r
        self.multiplicity = m
        self.count = _ladder_count(t, r)

    def __repr__(self) -> str:
        return (
            f"PinchLadder(pinch_length={self.pinch_length!r}, radius={self.radius!r}, "
            f"multiplicity={self.multiplicity}, count={self.count})"
        )


def other_geodesic_floor(level, pinch_length) -> float:
    """Minimum of the two lower bounds for any closed geodesic that is not a
    power of a pinched one: the crossing bound and the distorted
    simple-geodesic bound. (The distorted figure-eight bound is twice the
    latter, so it is never the minimum.)"""
    n = _as_level(level)
    t = _validate_pinch(pinch_length)
    if t >= 0.5:
        raise DomainError(
            f"pinch length must be < 1/2 for the distortion bound to apply, got {t!r}"
        )
    return _geodesic_floor(length_from_trace(n * n - 2), t)


def _geodesic_floor(systole: float, t: float) -> float:
    """other_geodesic_floor from the level's systole and a valid t < 1/2: the
    crossing bound 2 arcsinh(1/sinh(t/2)) and the distorted half systole,
    through the cores of crossing_length_bound and distortion_bound."""
    return min(2.0 * _collar(t), 0.5 * systole / _distortion(t))


def validity_check(level, pinch_length, radius) -> bool:
    """True iff every closed geodesic of length <= radius is provably a power
    of a pinched geodesic, so the ladder below is the complete short
    spectrum. False for t >= 1/2, where the distortion bound does not apply.
    The level, the pinch length and the radius are checked whatever t is: a
    level that is not an integer >= 3 raises DomainError also for t >= 1/2."""
    r = _require_positive("radius", radius)
    t = _validate_pinch(pinch_length)
    n = _as_level(level)
    return _valid(length_from_trace(n * n - 2), t, r)


def _valid(systole: float, t: float, r: float) -> bool:
    """validity_check from the level's systole and a valid t and r."""
    return t < 0.5 and _geodesic_floor(systole, t) > r


def _require_valid(level, pinch_length, radius, why: str) -> float:
    """The radius, if it lies below other_geodesic_floor; else ValidityError."""
    floor = other_geodesic_floor(level, pinch_length)
    r = _require_positive("radius", radius)
    if not floor > r:
        raise ValidityError(
            f"radius {r} is not below the guaranteed floor {floor:.6g} for level "
            f"{level}, t = {pinch_length}; {why}"
        )
    return r


def short_spectrum(level, pinch_length, radius) -> PinchLadder:
    """Complete length spectrum up to ``radius`` as a lazy ladder.

    Raises ValidityError outside the certified radius; use pinch_ladder for
    the raw ladder without the completeness claim.
    """
    r = _require_valid(level, pinch_length, radius, "the ladder would be incomplete")
    pairs = surface_data(level).cusps // 2
    return PinchLadder(pinch_length, r, pairs)


def pinch_ladder(pinch_length, radius, multiplicity) -> PinchLadder:
    """The raw arithmetic ladder, with no claim that it exhausts the spectrum."""
    return PinchLadder(pinch_length, radius, multiplicity)


def _sech_tables(order: int) -> tuple[tuple[float, ...], ...]:
    """The coefficients of D_0, ..., D_(order-1), highest power first, for
    ``_weight_derivatives``.

    With w = (t/2) coth(x t/2) the derivatives of f(x) = t/sinh(x t/2) are
    f^(j) = f P_j(w), P_0 = 1 and P_(j+1) = -w P_j + (t^2/4 - w^2) P_j'. In
    s = sech^2(x t/2) = 1 - (t/2w)^2 this reads P_j = (-w)^j D_j(s), with
    D_0 = 1 and D_(j+1) = (1 + j s) D_j + 2 s (1 - s) D_j', whose integer
    coefficients are all positive."""
    tables, d = [], [1]
    for j in range(order):
        tables.append(tuple(float(c) for c in reversed(d)))
        nxt = [0] * (len(d) + 1)
        for m, c in enumerate(d):
            nxt[m] += c + 2 * m * c
            nxt[m + 1] += j * c - 2 * m * c
        d = nxt if nxt[-1] else nxt[:-1]
    return tuple(tables)


_SECH_TABLES = _sech_tables(_ORDER)


def _weight_derivatives(t: float, length: float, stop: int, step: int) -> list:
    """The derivatives f^(j), j < stop <= _ORDER, of the rung weight
    f(x) = t/sinh(x t/2) at x = length/t, a list indexed by j: f itself and
    j = 1, 1 + step, 1 + 2 step, ..., each f (-w)^j D_j(s) by Horner's rule
    on ``_SECH_TABLES``, and None at the j that step skips. The terms of D_j
    are positive, so nothing cancels; f is completely monotone, so the signs
    alternate."""
    sh = _sinh_half(length)
    f = t / sh
    if f == 0.0:
        return [0.0] * stop
    w = -0.5 * t / math.tanh(0.5 * length)
    s = 1.0 / (1.0 + sh * sh)  # 0 where sh^2 overflows, and s is below 1e-308
    out = [None] * stop
    out[0] = f
    f *= w
    up = w if step == 1 else w * w
    for j in range(1, stop, step):
        d = 0.0
        for c in _SECH_TABLES[j]:
            d = d * s + c
        out[j] = f * d
        f *= up
    return out


def _tail_span(t: float, count: int, head: int, cap: float = math.inf) -> tuple[float, float]:
    """The first and the last tail length, (head + 1) t and count t, each cut at cap."""
    lo, hi = (head + 1) * t, _rung_length(t, count)
    return (lo if lo < cap else cap), (hi if hi < cap else cap)


def _tail(t: float, count: int, head: int, order: int, step: int,
          cap: float = math.inf) -> tuple:
    """(underflow, tail) of a ladder with ``count`` rungs, a head of ``head``
    and a tail to Euler-Maclaurin ``order``, for ``_assemble``. The tail is
    (lo, hi, the derivatives of the weight at lo, up to the order's last,
    and at hi, up to the last end term's, log tanh(lo/4), log tanh(hi/4)),
    or None when count <= head. g = 1 reads only the odd derivatives
    (step 2); a kernel's Leibniz rule reads them all (step 1)."""
    lo, hi = _tail_span(t, count, head, cap)
    underflow = 0.0
    if hi > 2.0 * _NORMAL_Y:
        # past y = k t/2 = _NORMAL_Y the terms lose their relative accuracy,
        # down to exact zeros. Those rungs have y >= max(_NORMAL_Y, t/2), and
        # their true and computed sums both lie below 2 (2 + t) e^-y, since
        # t/(1 - e^-t/2) <= 2 + t; charge twice that, in logs so that it stays
        # positive where e^-y alone underflows
        y = max(_NORMAL_Y, 0.5 * t)
        underflow = math.exp(math.log(4.0 * (2.0 + t)) - y) + _TINY
    if count <= head:
        return underflow, None
    return underflow, (lo, hi, _weight_derivatives(t, lo, order, step),
                       _weight_derivatives(t, hi, order - 2, step), _log_tanh(0.25 * lo),
                       _log_tanh(0.25 * hi))


def _ladder_sum(t: float, count: int) -> tuple[float, float, float]:
    """The ladder engine at g = 1: the sum of t/sinh(k t/2) over
    k = 1..count, as (value, remainder, roundoff).

    A ladder of up to _WHOLE = 128 rungs is summed whole, term by term; a
    longer one in a head of its first _HEAD = 32 rungs. The head goes by
    math.fsum, which rounds correctly, each weight formed as
    2t e^-y/(1 - e^-2y) with y = k t/2, so that long rungs underflow to 0 and
    nothing overflows. The rest, k = 33..count, follow ``_assemble`` to
    order 10: the closed-form integral 2 log tanh(x t/4), f/2 and the f',
    f''', f^(5) and f^(7) end terms at a = 33 and b = count, and the
    remainder bound |f^(9)(a)|/23950080, about 0.03/a^10 = 2e-17 at small t.
    Pure Python, so the criterion loads no numpy.
    """
    n = count if count <= _WHOLE else _HEAD
    exp, expm1, rungs, c, d = math.exp, math.expm1, _RUNGS[:n], -0.5 * t, -t
    # -y = k c, and -2y = k d rounds as 2 k c would; past t = 9e307, where
    # -2t overflows, every e^-y is 0 and any finite factor gives the 0 weights
    m = max(-2.0 * t, -sys.float_info.max)
    weights = [m * (exp(k * c) / expm1(k * d)) for k in rungs]
    # the terms are finite and positive: fsum cannot fail, and their sum is their size
    value = math.fsum(weights)
    return _assemble(t, value, value, sum(map(mul, weights, rungs)),
                     *_tail(t, count, n, _ORDER, 2))


def _assemble(t: float, value: float, size: float, moment: float, underflow: float,
              tail, kernel=None) -> tuple[float, float, float]:
    """(value, remainder, roundoff) of one ladder of the ladder engine: the
    sum of f(k) = g(k t) w(k), w(k) = t/sinh(k t/2), over k = 1..count, from
    its head sum ``value``, the sum ``size`` of the magnitudes of its head
    terms and their sum ``moment`` weighted by k, and the underflow charge.

    ``tail`` comes from ``_tail``, or is None when there is no tail. The
    tail, k = a..b, follows Euler-Maclaurin to the order of its derivative
    lists (DLMF 2.10.1): the integral of f, f/2 at a and b, and the end
    terms of the odd derivatives f', f''', ... up to f^(order - 3).
    ``kernel`` is None for g = 1, whose integral is the closed form
    2 log tanh(x t/4). Any other kernel, at order 6 only, brings (ends,
    bounds, integral): (g, t g', t^2 g'', t^3 g''') at a and at b; the bounds
    t^i G_i, i = 0..6, with G_i a bound on |g^(i)|; and the tail integral of
    g(u)/sinh(u/2) du with the size of its terms. The derivatives of f come
    from those of g and w by Leibniz's rule.

    The remainder obeys |R| <= 2 |B_2m|/(2m)! int_a^b |f^(2m)| at order 2m
    (DLMF 2.10.2). Since w is completely monotone, int_a^b |w^(j)| <=
    |w^(j-1)(a)| for j >= 1, so for g = 1 the integral is at most
    |w^(2m-1)(a)|. For a kernel, Leibniz's rule bounds int |f^(6)| by
    sum_(i < 6) C(6, i) t^i G_i |w^(5-i)(a)| + t^6 G_6 int_a^b w. The kernel
    brings t^i G_i and t^i g^(i) already scaled, so no power of t is formed
    here, where t may be 1e300.

    The roundoff charges each computed term a few ulp plus the rounding of
    its argument, an ulp of the assembled value, and 8 ulp of the size of
    the terms of a kernel's own integral.
    """
    # each computed term is charged a few ulp, plus the rounding of its
    # argument y = k t/2 times the condition number (below 1 + y) of e^-y
    roundoff = _EPS * (8.0 * size + 0.5 * t * moment)
    roundoff += underflow
    if tail is None:
        return value, 0.0, roundoff
    lo, hi, wa, wb, log_a, log_b = tail
    order = len(wa)
    if kernel is None:
        # g = 1: f = w, so the derivatives of w make the end terms and the
        # last one the remainder; the closed form's two logs are charged at the ends
        integral, integral_size = 2.0 * (log_b - log_a), 0.0
        size_a, size_b = abs(log_a), abs(log_b)
        fa, fb = wa, wb
        leibniz = abs(wa[-1])
    else:
        (w0, w1, w2, w3, w4, w5), (v0, v1, v2, v3) = wa, wb
        ((ga, ga1, ga2, ga3), (gb, gb1, gb2, gb3)), bounds, (integral, integral_size) = kernel
        size_a = size_b = 0.0
        # f, f' and f''' at a and at b by Leibniz's rule, indexed by order like wa
        fa = (ga * w0, ga1 * w0 + ga * w1, None,
              ga3 * w0 + 3.0 * (ga2 * w1 + ga1 * w2) + ga * w3)
        fb = (gb * v0, gb1 * v0 + gb * v1, None,
              gb3 * v0 + 3.0 * (gb2 * v1 + gb1 * v2) + gb * v3)
        c0, c1, c2, c3, c4, c5, c6 = bounds
        leibniz = (c0 * abs(w5) + 6.0 * (c1 * abs(w4) + c5 * abs(w0))
                   + 15.0 * (c2 * abs(w3) + c4 * abs(w1)) + 20.0 * c3 * abs(w2)
                   + c6 * 2.0 * (log_b - log_a))
    # the endpoint terms' condition numbers in the length x t stay below
    # 1 + x t; each sum runs left to right, the rounding the kernel pins hold
    value = value + integral + 0.5 * (fa[0] + fb[0])
    size_a = size_a + 0.5 * abs(fa[0])
    size_b = size_b + 0.5 * abs(fb[0])
    ends, divisor = _EM[order]
    for j, c in ends:
        da, db = fa[j], fb[j]
        value += (db - da) / c
        size_a += abs(da / c)
        size_b += abs(db / c)
    roundoff += _EPS * ((8.0 + lo) * size_a + (8.0 + hi) * size_b
                        + 8.0 * integral_size + abs(value))
    return value, leibniz / divisor, roundoff


def _criterion(mult: int, value: float, remainder: float, roundoff: float) -> tuple[float, float]:
    """The criterion sum over a ladder of multiplicity ``mult`` and its
    radius, from the engine's triple at g = 1."""
    return mult * value, mult * (remainder + roundoff) + _EPS * mult * value


def _require_finite_scale(mult: int, unit_sum: float) -> None:
    """DomainError naming the multiplicity when mult times a ladder's sum at
    g = 1 leaves the float range."""
    if not math.isfinite(mult * unit_sum):
        raise DomainError(f"the sum leaves the float range at a multiplicity of {mult:.6g}; "
                          "scale the multiplicity down")


def plancherel_sum(spectrum, radius) -> CertifiedValue:
    """Spectral-criterion sum over a pinch ladder: multiplicity * t /
    sinh(k t/2) over its rungs k = 1..count, with an error radius.

    The ladder goes through the ladder engine at g = 1, whose assembly the
    geometric side shares, at the same cost whatever its length: up to 128
    rungs term by term; past that the first 32 term by term and the rest by
    Euler-Maclaurin to order 10 with the closed-form integral
    2 log tanh(k t/4), all in pure Python. The radius has two parts. The
    Euler-Maclaurin remainder is a proven bound (DLMF 2.10.2). The roundoff
    part is an estimate: it charges each computed term a few ulp plus the
    rounding of its argument, which assumes libm exp, expm1, sinh, tanh and
    log are that accurate. A spectrum that is not a PinchLadder, a ladder
    reaching past the radius, and a sum past the float range (which only a
    multiplicity near that range brings) raise DomainError.
    """
    if not isinstance(spectrum, PinchLadder):
        raise DomainError(f"spectrum must be a PinchLadder, got {type(spectrum).__name__}")
    r = _require_positive("radius", radius)
    t, count, mult = spectrum.pinch_length, spectrum.count, spectrum.multiplicity
    reach = _rung_length(t, count)
    if count > 0 and reach > r * (1.0 + 1e-12) + t * 1e-9:
        raise DomainError(f"ladder reaches {reach!r}, beyond radius {r!r}")
    value, remainder, roundoff = _ladder_sum(t, count)
    _require_finite_scale(mult, value)
    return CertifiedValue(*_criterion(mult, value, remainder, roundoff))


def bs_ratio(level, pinch_length, radius) -> float:
    """Count of simple closed geodesics up to ``radius`` divided by volume.

    Inside the validity radius the count is exactly the number of pinched
    pairs, and the ratio collapses to 3/(2 pi N); returns 0 when even the
    pinched geodesics are longer than the radius.
    """
    n = _as_level(level)
    r = _require_valid(n, pinch_length, radius, "the simple-geodesic count is not certified")
    return _bs_ratio(n, float(pinch_length), r)


def _bs_ratio(n: int, t: float, r: float) -> float:
    """bs_ratio at a radius r where the ladder is the complete short spectrum."""
    return 0.0 if t > r else 3.0 / (2.0 * math.pi * n)


def harmonic_sum(n) -> float:
    """H_n, summed term by term up to 32 terms, then by the asymptotic
    expansion to order 10, ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4)
    - 1/(252 n^6) + 1/(240 n^8), whose error is below 1/(132 n^10) < 1e-17
    there. n may exceed the float range."""
    n = _as_int("n", n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n <= _HEAD:
        return math.fsum(1 / k for k in range(1, n + 1))
    inv = 1 / n  # integer true division: n is never converted to float
    inv2 = inv * inv
    inv4 = inv2 * inv2
    return (math.log(n) + _EULER_GAMMA + 0.5 * inv - inv2 / 12.0 + inv4 / 120.0
            - inv4 * inv2 / 252.0 + inv4 * inv4 / 240.0)


def sandwich_bounds(level, pinch_length, radius) -> tuple[float, float]:
    """Explicit-constant bracket for the ladder criterion sum:

    lower = (R/sinh(R/2)) * pairs * |log t|, from term-by-term monotonicity of
    x/sinh(x/2) and the harmonic sum exceeding log(R/t); upper = 2 * pairs *
    (log(R/t) + 1), from x <= sinh(x) and the harmonic sum below log n + 1.
    Pure ladder inequalities: no completeness claim about the spectrum is
    needed, so only t < min(1, R) and R >= 1 are required.
    """
    n = _as_level(level)
    t = _validate_pinch(pinch_length)
    r = _as_real("radius", radius)
    if not r >= 1.0:
        raise DomainError(f"radius must be >= 1 for the explicit constants, got {radius!r}")
    if not t < 1.0:
        raise DomainError(f"pinch length must be < min(1, radius) = 1, got {t!r}")
    return _sandwich(surface_data(n).cusps // 2, t, r)


def _sandwich(pairs: int, t: float, r: float) -> tuple[float, float]:
    """sandwich_bounds of a ladder of ``pairs`` pinched pairs, for t < 1 <= r."""
    lower = r / _sinh_half(r) * pairs * (-math.log(t))
    ratio = r / t
    # log r - log t only where r/t overflows, so that the schedule rows keep their bits
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(r) - math.log(t)
    upper = 2.0 * pairs * (log_ratio + 1.0)
    return lower, upper


# past the float range the pinch underflows to 0, which _validate_pinch refuses
_RULES = {
    "reciprocal": lambda n: 1 / n,
    "exponential": lambda n: math.exp(-min(n, 800)),
    "superexponential": lambda n: math.exp(-min(n * n, 800)),
}


@dataclass(frozen=True)
class Schedule:
    """A named sequence of (level, pinch length) pairs with t nonincreasing."""

    name: str
    levels: tuple[int, ...]
    pinch_lengths: tuple[float, ...]
    rule: str = "explicit"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DomainError(f"schedule name must be a nonempty string, got {self.name!r}")
        if not self.levels:
            raise DomainError("schedule must contain at least one level")
        levels = tuple(_as_level(n) for n in self.levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("levels must be strictly increasing")
        if len(self.pinch_lengths) != len(levels):
            raise DomainError(
                f"{len(self.pinch_lengths)} pinch lengths for {len(levels)} levels"
            )
        pinch = tuple(_validate_pinch(t) for t in self.pinch_lengths)
        if any(b > a for a, b in zip(pinch, pinch[1:])):
            raise DomainError("pinch lengths must be nonincreasing")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "pinch_lengths", pinch)

    @classmethod
    def from_rule(cls, name: str, levels, rule: str) -> "Schedule":
        if rule not in _RULES:
            raise DomainError(
                f"unknown pinch rule {rule!r}; expected one of {sorted(_RULES)} or explicit lengths"
            )
        levels = tuple(levels)
        pinch = tuple(_RULES[rule](_as_int("level", n)) for n in levels)
        return cls(name=name, levels=levels, pinch_lengths=pinch, rule=rule)

    @classmethod
    def explicit(cls, name: str, levels, pinch_lengths) -> "Schedule":
        return cls(
            name=name,
            levels=tuple(levels),
            pinch_lengths=tuple(pinch_lengths),
            rule="explicit",
        )


@dataclass(frozen=True)
class ScheduleRow:
    """One evaluated schedule entry; criterion fields are NaN on invalid rows.

    ``lower`` and ``upper`` are the sandwich bounds divided by the surface
    volume, so they bracket ``pl_norm`` directly.
    """

    j: int
    level: int
    pinch: float
    b_pairs: int
    genus: int
    volume: float
    bs_ratio: float
    pl_sum: float
    pl_sum_radius: float
    pl_norm: float
    lower: float
    upper: float
    valid: bool


@dataclass(frozen=True)
class ScheduleReport:
    schedule_name: str
    radius: float
    rows: tuple[ScheduleRow, ...]
    plancherel_verdict: str
    bs_verdict: str


def _trend(values: list[float]) -> str:
    if len(values) < 4:
        return "inconclusive"
    tail = values[len(values) // 2 :]
    if all(b > a for a, b in zip(tail, tail[1:])):
        return "divergent"
    # <=: the bs ratio 3/(2 pi N) over N = 3..12 lands exactly on one half
    if values[-1] <= 0.5 * values[len(values) // 3]:
        return "vanishing"
    return "bounded away from zero"


def _schedule_rows(schedule, radius: float, j_max) -> list[tuple]:
    """(j, level, t, surface, count) for the first j_max rows of a schedule:
    the compacted surface, and the number of rungs up to ``radius`` when the
    ladder there is the complete short spectrum, else None. Both schedule
    passes read their arguments here: ``schedule`` must be a Schedule and
    j_max an integer >= 1, else DomainError. The Schedule has validated every
    level and pinch length, so a row reads its surface data and its validity
    floor once."""
    if not isinstance(schedule, Schedule):
        raise DomainError(f"schedule must be a Schedule, got {schedule!r}")
    j_max = _as_int("j_max", j_max)
    if j_max < 1:
        raise DomainError(f"j_max must be >= 1, got {j_max}")
    rows = []
    for j, n, t in zip(range(1, j_max + 1), schedule.levels, schedule.pinch_lengths):
        sd = _surface_data_cached(n)
        count = _ladder_count(t, radius) if _valid(sd.systole, t, radius) else None
        rows.append((j, n, t, _compacted(sd, t), count))
    return rows


def classify_schedule(schedule: Schedule, radius, j_max) -> ScheduleReport:
    """Evaluate both criteria along a schedule and attach trend verdicts.

    Rows whose pinch length defeats the validity floor are flagged rather
    than fatal; their criterion fields are NaN. Each valid row's criterion
    sum goes through the ladder engine at g = 1 on its own, with the bits of
    a ``plancherel_sum`` call.
    """
    r = _require_positive("radius", radius)
    entries = _schedule_rows(schedule, r, j_max)
    rows = []
    for j, n, t, surface, count in entries:
        pairs, volume = surface.pinched_count, surface.volume
        bs = pl_sum = pl_sum_radius = lower = upper = math.nan
        if count is not None:
            bs = _bs_ratio(n, t, r)
            pl_sum, pl_sum_radius = _criterion(pairs, *_ladder_sum(t, count))
            if r >= 1.0 and t < 1.0:
                lo, up = _sandwich(pairs, t, r)
                lower, upper = lo / volume, up / volume
        # the fields in order: j, level, pinch, b_pairs, genus, volume, bs_ratio,
        # pl_sum, pl_sum_radius, pl_norm, lower, upper, valid
        rows.append(ScheduleRow(j, n, t, pairs, surface.genus, volume, bs, pl_sum,
                                pl_sum_radius, pl_sum / volume, lower, upper, count is not None))
    valid_rows = [row for row in rows if row.valid]
    return ScheduleReport(
        schedule_name=schedule.name,
        radius=r,
        rows=tuple(rows),
        plancherel_verdict=_trend([row.pl_norm for row in valid_rows]),
        bs_verdict=_trend([row.bs_ratio for row in valid_rows]),
    )
