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
from fractions import Fraction

import numpy as np

from .certified import CertifiedValue
from .congruence import surface_data
from .errors import (DomainError, InternalInvariantViolation, ValidityError, _as_int,
                     _as_level, _require_positive)
from .hyperbolic import _sinh_half, crossing_length_bound, distortion_bound, length_from_trace

# Decimal-intended floats get a 1e-12 relative grace at the cutoff, so a
# ladder with t = 0.2, R = 1 has five rungs even though float(0.2) > 1/5.
_CUTOFF_GRACE = Fraction(10**12 + 1, 10**12)
_MIN_PINCH = 1e-300  # near the subnormal range t loses digits; a rule has likely underflowed
_HEAD = 128  # rungs summed term by term in front of the Euler-Maclaurin tail
_HEAD_RUNGS = np.arange(1.0, _HEAD + 1.0)
_EPS = sys.float_info.epsilon
_NORMAL_Y = 708.0  # e^-y is a normal float up to here, subnormal or 0 past it
_TINY = math.ulp(0.0)  # the smallest positive float


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


@dataclass(frozen=True)
class GeodesicClass:
    """One length-spectrum entry: total length, primitive length, multiplicity."""

    length: float
    primitive_length: float
    multiplicity: int

    def __post_init__(self) -> None:
        _require_positive("primitive_length", self.primitive_length)
        if _as_int("multiplicity", self.multiplicity) < 1:
            raise DomainError(f"multiplicity must be >= 1, got {self.multiplicity!r}")
        ratio = self.length / self.primitive_length
        k = round(ratio)
        if k < 1 or abs(ratio - k) > 1e-9 * k:
            raise DomainError(
                f"length {self.length!r} is not a positive integer multiple of "
                f"primitive_length {self.primitive_length!r}"
            )


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
    """Lazy ladder of geodesic classes with lengths k*t, k = 1..count.

    Indexing and iteration produce genuine GeodesicClass records; ``count``
    may exceed anything a materialized list (or ``len``) could hold, so the
    summation routines consume the ladder arithmetically.
    """

    __slots__ = ("pinch_length", "radius", "multiplicity", "count")

    def __init__(self, pinch_length: float, radius: float, multiplicity: int) -> None:
        t = _validate_pinch(pinch_length)
        r = _require_positive("radius", radius)
        m = _as_int("multiplicity", multiplicity)
        if m < 1:
            raise DomainError(f"multiplicity must be >= 1, got {m}")
        self.pinch_length = t
        self.radius = r
        self.multiplicity = m
        self.count = _ladder_count(t, r)

    def __len__(self) -> int:
        if self.count > sys.maxsize:
            raise OverflowError(f"ladder has {self.count} rungs; use .count")
        return self.count

    def __getitem__(self, k: int) -> GeodesicClass:
        if isinstance(k, bool) or int(k) != k:
            raise TypeError(f"ladder indices must be integers, got {k!r}")
        k = int(k)
        if k < 0:
            k += self.count
        if not 0 <= k < self.count:
            raise IndexError(f"ladder index {k} out of range for {self.count} rungs")
        return GeodesicClass(
            length=_rung_length(self.pinch_length, k + 1),
            primitive_length=self.pinch_length,
            multiplicity=self.multiplicity,
        )

    def __iter__(self):
        for k in range(1, self.count + 1):
            yield GeodesicClass(
                length=_rung_length(self.pinch_length, k),
                primitive_length=self.pinch_length,
                multiplicity=self.multiplicity,
            )

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
    sd = surface_data(level)
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
    half_sys = 0.5 * length_from_trace(n * n - 2)
    return min(crossing_length_bound(t), half_sys / distortion_bound(t))


def validity_check(level, pinch_length, radius) -> bool:
    """True iff every closed geodesic of length <= radius is provably a power
    of a pinched geodesic, so the ladder below is the complete short
    spectrum. False for t >= 1/2, where the distortion bound does not apply."""
    r = _require_positive("radius", radius)
    t = _validate_pinch(pinch_length)
    return t < 0.5 and other_geodesic_floor(level, t) > r


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


def _rung_weights(t: float, k: np.ndarray) -> np.ndarray:
    """t/sinh(k t/2) over an array of rungs k, written as 2t e^-y/(1 - e^-2y)
    with y = k t/2, so that long rungs underflow to 0 and nothing overflows."""
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


def _log_tanh(z: float) -> float:
    """log tanh(z) to a few ulp of its value, also where tanh(z) rounds to 1."""
    if z < 1.0:
        return math.log(math.tanh(z))
    e = math.exp(-2.0 * z)
    return math.log1p(-2.0 * e / (1.0 + e))


def _ladder_sum(t: float, count: int) -> tuple[float, float]:
    """Sum of t/sinh(k t/2) for k = 1..count, and its error radius.

    The first _HEAD rungs are summed term by term. The rest, k = a..count
    with a = _HEAD + 1, follow Euler-Maclaurin to order 6 (DLMF 2.10.1) with
    the antiderivative 2 log tanh(x t/4). The summand is completely
    monotone, so the remainder obeys |R_3| <= 2 |B_6|/6! |f^(5)(a)|.
    """
    k = _HEAD_RUNGS[: min(count, _HEAD)]
    terms = _rung_weights(t, k)
    head = math.fsum(terms.tolist())
    # each computed term is charged a few ulp, plus the rounding of its
    # argument y = k t/2 times the condition number (below 1 + y) of e^-y
    roundoff = _EPS * (8.0 * head + 0.5 * t * float(np.dot(terms, k)))
    hi = _rung_length(t, count)  # the last length
    if hi > 2.0 * _NORMAL_Y:
        # past y = k t/2 = _NORMAL_Y the terms lose their relative accuracy,
        # down to exact zeros. Those rungs have y >= max(_NORMAL_Y, t/2), and
        # their true and computed sums both lie below 2 (2 + t) e^-y, since
        # t/(1 - e^-t/2) <= 2 + t; charge twice that, in logs so that it stays
        # positive where e^-y alone underflows
        y = max(_NORMAL_Y, 0.5 * t)
        roundoff += math.exp(math.log(4.0 * (2.0 + t)) - y) + _TINY
    if count <= _HEAD:
        return head, roundoff
    lo = (_HEAD + 1) * t  # the first tail length
    fa, da1, _, da3, _, da5 = _weight_derivatives(t, lo)
    fb, db1, _, db3, _, _ = _weight_derivatives(t, hi)
    log_a, log_b = _log_tanh(0.25 * lo), _log_tanh(0.25 * hi)
    value = (head + 2.0 * (log_b - log_a) + 0.5 * (fa + fb)
             + (db1 - da1) / 12.0 - (db3 - da3) / 720.0)
    # likewise for the endpoint terms, whose condition numbers in the length
    # x t stay below 1 + x t
    size_a = abs(log_a) + 0.5 * fa + abs(da1) / 12.0 + abs(da3) / 720.0
    size_b = abs(log_b) + 0.5 * fb + abs(db1) / 12.0 + abs(db3) / 720.0
    roundoff += _EPS * ((8.0 + lo) * size_a + (8.0 + hi) * size_b + value)
    return value, abs(da5) / 15120.0 + roundoff


def plancherel_sum(spectrum, radius) -> CertifiedValue:
    """Spectral-criterion sum over the given classes: multiplicity *
    primitive_length / sinh(length/2), with an error radius.

    Every ladder takes one route, at the same cost whatever its length: the
    first 128 rungs term by term, the rest by Euler-Maclaurin to order 6
    with a closed-form integral. The radius has two parts. The
    Euler-Maclaurin remainder is a proven bound (DLMF 2.10.2). The roundoff
    part is an estimate: it charges each computed term a few ulp, which
    assumes libm exp, expm1, sinh, tanh and log are that accurate. Explicit
    class lists are summed term by term.
    """
    r = _require_positive("radius", radius)
    grace = r * (1.0 + 1e-12)
    if isinstance(spectrum, PinchLadder):
        t, count, mult = spectrum.pinch_length, spectrum.count, spectrum.multiplicity
        reach = _rung_length(t, count)
        if count > 0 and reach > grace + t * 1e-9:
            raise DomainError(f"ladder reaches {reach!r}, beyond radius {r!r}")
        value, err = _ladder_sum(t, count)
        return CertifiedValue(mult * value, mult * err + _EPS * mult * value)
    terms = []
    for cls in spectrum:
        if cls.length > grace:
            raise DomainError(f"class length {cls.length!r} exceeds radius {r!r}")
        terms.append(cls.multiplicity * cls.primitive_length / _sinh_half(cls.length))
    value = math.fsum(terms)
    return CertifiedValue(value, 3e-16 * math.fsum(abs(x) for x in terms))


def plancherel_normalized(level, pinch_length, radius) -> CertifiedValue:
    """The criterion sum over the complete short spectrum divided by the
    surface volume; the quantity that must vanish along a convergent family."""
    ladder = short_spectrum(level, pinch_length, radius)
    vol = compacted_surface(level, pinch_length).volume
    s = plancherel_sum(ladder, radius)
    return CertifiedValue(float(s) / vol, s.radius / vol + 2e-16 * abs(float(s)) / vol)


def bs_ratio(level, pinch_length, radius) -> float:
    """Count of simple closed geodesics up to ``radius`` divided by volume.

    Inside the validity radius the count is exactly the number of pinched
    pairs, and the ratio collapses to 3/(2 pi N); returns 0 when even the
    pinched geodesics are longer than the radius.
    """
    n = _as_level(level)
    r = _require_valid(n, pinch_length, radius, "the simple-geodesic count is not certified")
    if float(pinch_length) > r:
        return 0.0
    return 3.0 / (2.0 * math.pi * n)


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
    r = float(radius)
    if not (math.isfinite(r) and r >= 1.0):
        raise DomainError(f"radius must be >= 1 for the explicit constants, got {radius!r}")
    if not t < 1.0:
        raise DomainError(f"pinch length must be < min(1, radius) = 1, got {t!r}")
    pairs = surface_data(n).cusps // 2
    lower = r / _sinh_half(r) * pairs * (-math.log(t))
    upper = 2.0 * pairs * (math.log(r / t) + 1.0)
    return lower, upper


_RULES = {
    "reciprocal": lambda n: 1.0 / n,
    "exponential": lambda n: math.exp(-float(n)),
    "superexponential": lambda n: math.exp(-float(n * n)),
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


def classify_schedule(schedule: Schedule, radius, j_max) -> ScheduleReport:
    """Evaluate both criteria along a schedule and attach trend verdicts.

    Rows whose pinch length defeats the validity floor are flagged rather
    than fatal; their criterion fields are NaN.
    """
    r = _require_positive("radius", radius)
    j_cap = _as_int("j_max", j_max)
    if j_cap < 1:
        raise DomainError(f"j_max must be >= 1, got {j_cap}")
    rows = []
    nan = math.nan
    for j in range(1, min(j_cap, len(schedule.levels)) + 1):
        n = schedule.levels[j - 1]
        t = schedule.pinch_lengths[j - 1]
        surface = compacted_surface(n, t)
        pairs = surface.pinched_count
        if validity_check(n, t, r):
            s = plancherel_sum(PinchLadder(t, r, pairs), r)
            if r >= 1.0 and t < 1.0:
                lo, up = sandwich_bounds(n, t, r)
                lower, upper = lo / surface.volume, up / surface.volume
            else:
                lower, upper = nan, nan
            rows.append(
                ScheduleRow(
                    j=j, level=n, pinch=t, b_pairs=pairs, genus=surface.genus,
                    volume=surface.volume, bs_ratio=bs_ratio(n, t, r), pl_sum=float(s),
                    pl_sum_radius=s.radius, pl_norm=float(s) / surface.volume,
                    lower=lower, upper=upper, valid=True,
                )
            )
        else:
            rows.append(
                ScheduleRow(
                    j=j, level=n, pinch=t, b_pairs=pairs, genus=surface.genus,
                    volume=surface.volume, bs_ratio=nan, pl_sum=nan,
                    pl_sum_radius=nan, pl_norm=nan, lower=nan, upper=nan,
                    valid=False,
                )
            )
    valid_rows = [row for row in rows if row.valid]
    return ScheduleReport(
        schedule_name=schedule.name,
        radius=r,
        rows=tuple(rows),
        plancherel_verdict=_trend([row.pl_norm for row in valid_rows]),
        bs_verdict=_trend([row.bs_ratio for row in valid_rows]),
    )
