"""Pinched-surface families and their convergence functionals.

A level-N surface with its cusps replaced by paired geodesics of length t
carries an arithmetic ladder of short geodesics k*t. This module builds that
family, evaluates the two convergence criteria on it (the normalized
spectral-side sum and the simple-geodesic count ratio), certifies huge ladder
sums, and classifies pinch schedules by the trend of the criteria.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certified import CertifiedValue
from .congruence import surface_data
from .errors import (DomainError, InternalInvariantViolation, ValidityError, _as_int,
                     _as_level, _as_real, _require_positive)
from .hyperbolic import (_log_tanh, _sinh_half, crossing_length_bound, distortion_bound,
                         length_from_trace)

# Decimal-intended floats get a 1e-12 relative grace at the cutoff, so a
# ladder with t = 0.2, R = 1 has five rungs even though float(0.2) > 1/5.
_CUTOFF_GRACE = Fraction(10**12 + 1, 10**12)
_MIN_PINCH = 1e-300  # near the subnormal range t loses digits; a rule has likely underflowed
_HEAD = 128  # rungs summed term by term in front of the Euler-Maclaurin tail
_HEAD_RUNGS = np.arange(1.0, 1025.0)  # rung numbers for a head of up to 1024 rungs
_BLOCK = 1 << 14  # points per block of the ladder engine, which bounds its temporaries
_EPS = sys.float_info.epsilon
_NORMAL_Y = 708.0  # e^-y is a normal float up to here, subnormal or 0 past it
_TINY = math.ulp(0.0)  # the smallest positive float


def _fsum(terms) -> float:
    """math.fsum, but NaN where the sum overflows the float range or meets
    infinities of both signs, so that the caller's check of its result can
    name the cause."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _validate_pinch(t) -> float:
    t = _require_positive("pinch length", t)
    if t < _MIN_PINCH:
        raise DomainError(
            f"pinch length {t!r} is below the representable floor {_MIN_PINCH}; "
            "a schedule rule has likely underflowed"
        )
    return t


@dataclass(frozen=True)
class CompactedSurface:
    """The closed surface obtained by trading every cusp for a pinched geodesic."""

    level: int
    pinch_length: float
    pinched_count: int
    genus: int
    volume: float


def _ladder_count(t: float, radius: float) -> int:
    """floor(radius * (1 + 1e-12) / t), in exact integer arithmetic."""
    rp, rq = radius.as_integer_ratio()
    tp, tq = t.as_integer_ratio()
    return rp * tq * _CUTOFF_GRACE.numerator // (rq * tp * _CUTOFF_GRACE.denominator)


def _rung_length(t: float, k: int) -> float:
    """k*t correctly rounded, also for counts too large to convert to float."""
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


def compacted_surface(level, pinch_length) -> CompactedSurface:
    """Record of the closed surface with cusps of level N traded for paired
    geodesics of length t: pinched_count = cusps/2, genus gains one handle per
    pair, and the volume matches the cusped area pi*d/6 exactly."""
    t = _validate_pinch(pinch_length)
    return _compacted(surface_data(level), t)


def _compacted(sd, t: float) -> CompactedSurface:
    """compacted_surface from the level's surface data and a valid t."""
    pairs = sd.cusps // 2
    genus = sd.genus + pairs
    # Euler characteristic of the gluing: index = 24*(genus - 1), exactly
    if sd.index_d != 24 * (genus - 1):
        raise InternalInvariantViolation(
            f"volume bookkeeping failed at level {sd.level}: d = {sd.index_d}, genus = {genus}"
        )
    return CompactedSurface(
        level=sd.level,
        pinch_length=t,
        pinched_count=pairs,
        genus=genus,
        volume=math.pi * (sd.index_d / 6.0),
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
    """other_geodesic_floor from the level's systole and a valid t < 1/2."""
    return min(crossing_length_bound(t), 0.5 * systole / distortion_bound(t))


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


def _rung_weights(t, k: np.ndarray) -> np.ndarray:
    """t/sinh(k t/2) over an array of rungs k, written as 2t e^-y/(1 - e^-2y)
    with y = k t/2, so that long rungs underflow to 0 and nothing overflows;
    t is a float, or an array of the t of each rung."""
    y = k * (-0.5 * t)
    return t * (np.exp(y) / np.expm1(y + y)) * -2.0


def _weight_derivatives(t: float, length: float) -> tuple[float, ...]:
    """f, f', ..., f^(5) of the rung weight f(x) = t/sinh(x t/2) at x = length/t.

    With w = (t/2) coth(x t/2) and v = t^2/4 they are f times 1, -w,
    2w^2 - v, w (5v - 6w^2), (24w^2 - 28v) w^2 + 5v^2 and
    w ((180v - 120w^2) w^2 - 61v^2); f is completely monotone, so their
    signs alternate.
    """
    f = t / _sinh_half(length)
    if f == 0.0:
        return (0.0,) * 6
    w = 0.5 * t / math.tanh(0.5 * length)
    v = 0.25 * t * t
    w2 = w * w
    return (f, -f * w, f * (2.0 * w2 - v), f * w * (5.0 * v - 6.0 * w2),
            f * ((24.0 * w2 - 28.0 * v) * w2 + 5.0 * v * v),
            f * w * ((180.0 * v - 120.0 * w2) * w2 - 61.0 * v * v))


def _tail_span(t: float, count: int, head: int, cap: float = math.inf) -> tuple[float, float]:
    """The first and the last tail length, (head + 1) t and count t, each cut at cap."""
    lo, hi = (head + 1) * t, _rung_length(t, count)
    return (lo if lo < cap else cap), (hi if hi < cap else cap)


def _head_rungs(ts: list[float], heads: list[int]) -> tuple[np.ndarray, object, list[int]]:
    """The head rungs of a block of ladders, ladder after ladder: the rung
    numbers k = 1..heads[i] of each, the t of each rung (a float for a block
    of one, which needs no gathering), and where each ladder's rungs start,
    with the end of the last one appended."""
    starts = [0, *itertools.accumulate(heads)]
    if len(heads) == 1:
        return _HEAD_RUNGS[: heads[0]], ts[0], starts
    return np.concatenate([_HEAD_RUNGS[:n] for n in heads]), np.repeat(ts, heads), starts


def _blocks(sizes: list[int]) -> list[slice]:
    """Runs of consecutive ladders for the ladder engine, given the points
    each ladder brings: a run closes at the ladder that takes its points to
    _BLOCK or past, and the last run takes what is left."""
    ends = list(itertools.accumulate(sizes, initial=0))  # points before each ladder
    blocks, start = [], 0
    while start < len(sizes):
        stop = min(bisect.bisect_left(ends, ends[start] + _BLOCK), len(sizes))
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def _ladder_sums(ts: list[float], counts: list[int], head: int = _HEAD, values=None,
                 kernels=None, cap: float = math.inf) -> list[tuple]:
    """The ladder engine, over a block of ladders with pinch lengths ``ts``
    and rung counts ``counts``. For each ladder: the sum of f(k) = g(k t) w(k),
    w(k) = t/sinh(k t/2), for k = 1..count; its Euler-Maclaurin remainder
    bound; and its roundoff estimate.

    The first ``head`` rungs are summed term by term. The rest, k = a..b
    with a = head + 1 and b = count, follow Euler-Maclaurin to order 6
    (DLMF 2.10.1): the integral of f, then f/2, -+f'/12 and +-f'''/720 at a
    and b, each derivative of f formed from those of g and w by Leibniz's
    rule. For g = 1 the integral is the closed form 2 log tanh(x t/4); any
    other kernel brings its own. ``cap`` cuts the tail where g vanishes.

    ``values`` is None for g = 1, or g at the head rungs of every ladder,
    laid out as ``_head_rungs`` lays them. With values, ``kernels`` gives each
    ladder's (ends, bounds, integral), or None when count <= head:
    (g, t g', t^2 g'', t^3 g''') at a and at b; the bounds t^i G_i,
    i = 0..6, with G_i a bound on |g^(i)|; and the tail integral of
    g(u)/sinh(u/2) du with the size of its terms.

    The head weights of the whole block come from one numpy pass. Each
    ladder is then summed on its own slice: by math.fsum, which rounds
    correctly, and by numpy's sums and dot products over the contiguous
    slice, which round as they do on the ladder alone. The tail is scalar
    work per ladder. So each ladder's bits do not depend on the block.

    For g = 1 each entry is (value, remainder, roundoff). For any other
    kernel it is that triple and then the one for g = 1 over the same rungs,
    head and cap, from the same weights and end derivatives: the geometric
    side charges its kernel error on that sum. Beside a kernel the g = 1
    head is summed by numpy's pairwise sum, not by fsum: that sum only
    scales the kernel charge, itself an estimate.

    The remainder obeys |R_3| <= 2 |B_6|/6! int_a^b |f^(6)| (DLMF 2.10).
    Leibniz's rule bounds int |f^(6)| by sum_(i <= 6) C(6, i) t^i G_i
    int_a^b |w^(6-i)|, and since w is completely monotone,
    int_a^b |w^(j)| <= |w^(j-1)(a)| for j >= 1. So int |f^(6)| is at most
    sum_(i < 6) C(6, i) t^i G_i |w^(5-i)(a)| + t^6 G_6 int_a^b w, which is
    |w^(5)(a)| for g = 1. The kernel brings t^i G_i and t^i g^(i) already
    scaled, so no power of t is formed here, where t may be 1e300.

    The roundoff charges each computed term a few ulp plus the rounding of
    its argument, an ulp of the assembled value, and 8 ulp of the size of
    the terms of a kernel's own integral.
    """
    k, at, starts = _head_rungs(ts, [min(count, head) for count in counts])
    weights = _rung_weights(at, k)
    terms = weights if values is None else weights * values
    magnitudes = weights if values is None else np.abs(terms)
    view = memoryview(terms)
    sums = []
    for i, (t, count) in enumerate(zip(ts, counts)):
        a, b = starts[i], starts[i + 1]
        rungs, w = k[a:b], weights[a:b]
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
        tail = None
        if count > head:
            tail = (lo, hi, _weight_derivatives(t, lo), _weight_derivatives(t, hi),
                    _log_tanh(0.25 * lo), _log_tanh(0.25 * hi))
        value = _fsum(view[a:b])
        if values is None:
            # the terms are positive, so their sum is their size
            sums.append(_assemble(t, value, value, float(np.dot(w, rungs)), underflow, tail))
            continue
        m = magnitudes[a:b]
        weight_sum = float(np.add.reduce(w))
        sums.append((
            _assemble(t, value, float(np.add.reduce(m)), float(np.dot(m, rungs)), underflow,
                      tail, kernels[i]),
            _assemble(t, weight_sum, weight_sum, float(np.dot(w, rungs)), underflow, tail)))
    return sums


def _assemble(t: float, value: float, size: float, moment: float, underflow: float,
              tail, kernel=None) -> tuple[float, float, float]:
    """(value, remainder, roundoff) of one ladder of ``_ladder_sums``, from
    its head sum ``value``, the sum ``size`` of the magnitudes of its head
    terms and their sum ``moment`` weighted by k, and the underflow charge.
    ``tail`` is (lo, hi, the derivatives of w at lo and at hi,
    log tanh(lo/4), log tanh(hi/4)), or None when there is no tail;
    ``kernel`` is (ends, bounds, integral), or None for g = 1."""
    # each computed term is charged a few ulp, plus the rounding of its
    # argument y = k t/2 times the condition number (below 1 + y) of e^-y
    roundoff = _EPS * (8.0 * size + 0.5 * t * moment)
    roundoff += underflow
    if tail is None:
        return value, 0.0, roundoff
    lo, hi, (w0, w1, w2, w3, w4, w5), (v0, v1, v2, v3, _, _), log_a, log_b = tail
    if kernel is None:
        # g = 1: the ends (1, 0, 0, 0) make f = w, the bounds (1, 0, ..., 0)
        # leave |w^(5)(a)|, and the closed form's two logs are charged at the ends
        integral, integral_size = 2.0 * (log_b - log_a), 0.0
        size_a, size_b = abs(log_a), abs(log_b)
        fa, da1, da3, fb, db1, db3 = w0, w1, w3, v0, v1, v3
        leibniz = abs(w5)
    else:
        ((ga, ga1, ga2, ga3), (gb, gb1, gb2, gb3)), bounds, (integral, integral_size) = kernel
        size_a = size_b = 0.0
        # f, f' and f''' at a and at b, by Leibniz's rule
        fa, da1 = ga * w0, ga1 * w0 + ga * w1
        fb, db1 = gb * v0, gb1 * v0 + gb * v1
        da3 = ga3 * w0 + 3.0 * (ga2 * w1 + ga1 * w2) + ga * w3
        db3 = gb3 * v0 + 3.0 * (gb2 * v1 + gb1 * v2) + gb * v3
        c0, c1, c2, c3, c4, c5, c6 = bounds
        leibniz = (c0 * abs(w5) + 6.0 * (c1 * abs(w4) + c5 * abs(w0))
                   + 15.0 * (c2 * abs(w3) + c4 * abs(w1)) + 20.0 * c3 * abs(w2)
                   + c6 * 2.0 * (log_b - log_a))
    value = (value + integral + 0.5 * (fa + fb)
             + (db1 - da1) / 12.0 - (db3 - da3) / 720.0)
    # likewise for the endpoint terms, whose condition numbers in the length
    # x t stay below 1 + x t (summed left to right, not by +=, which would
    # round the criterion sum's radius differently)
    size_a = size_a + 0.5 * abs(fa) + abs(da1) / 12.0 + abs(da3) / 720.0
    size_b = size_b + 0.5 * abs(fb) + abs(db1) / 12.0 + abs(db3) / 720.0
    roundoff += _EPS * ((8.0 + lo) * size_a + (8.0 + hi) * size_b
                        + 8.0 * integral_size + abs(value))
    return value, leibniz / 15120.0, roundoff  # 2 |B_6|/6! = 1/15120


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

    The ladder goes through the ladder engine that the geometric side
    shares, at the same cost whatever its length: the first 128 rungs term
    by term, the rest by Euler-Maclaurin to order 6 with the closed-form
    integral 2 log tanh(k t/4). The radius has two parts. The
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
    value, remainder, roundoff = _ladder_sums([t], [count])[0]
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
    """H_n, summed term by term up to 128 terms, then by the asymptotic
    expansion ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4), whose error
    is below 1/(252 n^6) < 1e-15 there. n may exceed the float range."""
    n = _as_int("n", n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n <= _HEAD:
        return math.fsum((1.0 / _HEAD_RUNGS[:n]).tolist())
    inv = 1 / n  # integer true division: n is never converted to float
    inv2 = inv * inv
    return math.log(n) + float(np.euler_gamma) + 0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0


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
        sd = surface_data(n)
        count = _ladder_count(t, radius) if _valid(sd.systole, t, radius) else None
        rows.append((j, n, t, _compacted(sd, t), count))
    return rows


def classify_schedule(schedule: Schedule, radius, j_max) -> ScheduleReport:
    """Evaluate both criteria along a schedule and attach trend verdicts.

    Rows whose pinch length defeats the validity floor are flagged rather
    than fatal; their criterion fields are NaN. The criterion sums of the
    valid rows go through the ladder engine in blocks of about _BLOCK head
    rungs, grouped by ``_blocks`` as ``vanishing_series`` groups its rows,
    and each row keeps the bits of a ``plancherel_sum`` call of its own.
    """
    r = _require_positive("radius", radius)
    entries = _schedule_rows(schedule, r, j_max)
    ts = [t for _, _, t, _, count in entries if count is not None]
    counts = [count for *_, count in entries if count is not None]
    sums = iter([s for block in _blocks([c if c < _HEAD else _HEAD for c in counts])
                 for s in _ladder_sums(ts[block], counts[block])])
    rows = []
    for j, n, t, surface, count in entries:
        pairs, volume = surface.pinched_count, surface.volume
        bs = pl_sum = pl_sum_radius = lower = upper = math.nan
        if count is not None:
            bs = _bs_ratio(n, t, r)
            pl_sum, pl_sum_radius = _criterion(pairs, *next(sums))
            if r >= 1.0 and t < 1.0:
                lo, up = _sandwich(pairs, t, r)
                lower, upper = lo / volume, up / volume
        rows.append(ScheduleRow(
            j=j, level=n, pinch=t, b_pairs=pairs, genus=surface.genus, volume=volume,
            bs_ratio=bs, pl_sum=pl_sum, pl_sum_radius=pl_sum_radius, pl_norm=pl_sum / volume,
            lower=lower, upper=upper, valid=count is not None))
    valid_rows = [row for row in rows if row.valid]
    return ScheduleReport(
        schedule_name=schedule.name,
        radius=r,
        rows=tuple(rows),
        plancherel_verdict=_trend([row.pl_norm for row in valid_rows]),
        bs_verdict=_trend([row.bs_ratio for row in valid_rows]),
    )
