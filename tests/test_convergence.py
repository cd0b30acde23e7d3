import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from pinchlab import (
    DomainError,
    PinchLadder,
    PinchlabError,
    Schedule,
    ValidityError,
    bs_ratio,
    bump,
    classify_schedule,
    compacted_surface,
    crossing_length_bound,
    geometric_side,
    harmonic_sum,
    other_geodesic_floor,
    pinch_ladder,
    plancherel_integral,
    plancherel_sum,
    sandwich_bounds,
    short_spectrum,
    surface_data,
    transform_profile,
    validity_check,
)
from pinchlab.convergence import _EPS, _HEAD, _ladder_sum, _rung_length, _weight_derivatives

mp.mp.dps = 50


def exact_ladder_sum(t, count, mult):
    """Reference criterion sum in 50-digit arithmetic: term by term up to
    3000 rungs; beyond, 1000 terms and mp.sumem over the rest, with the
    integral from the antiderivative 2 log tanh(k t/4)."""
    tt = mp.mpf(t)

    def f(k):
        return tt / mp.sinh(k * tt / 2)

    if count <= 3000:
        return float(mult * mp.fsum(f(k) for k in range(1, count + 1)))
    head = mp.fsum(f(k) for k in range(1, 1001))
    n = mp.mpf(count)
    integral = 2 * (mp.log(mp.tanh(n * tt / 4)) - mp.log(mp.tanh(1001 * tt / 4)))
    return float(mult * (head + mp.sumem(f, [1001, n], integral=integral)))


# ---------------------------------------------------------------- surfaces

@pytest.mark.parametrize(
    "n,pairs,genus,volume_over_pi",
    [(3, 2, 2, 4.0), (5, 6, 6, 20.0), (7, 12, 15, 56.0), (11, 30, 56, 220.0)],
)
def test_compacted_surface(n, pairs, genus, volume_over_pi):
    surf = compacted_surface(n, 0.1)
    assert surf.pinched_count == pairs
    assert surf.genus == genus
    assert surf.volume == math.pi * volume_over_pi
    # doubling across b/2 pinches: genus' = g + b/2, volume = 4*pi*(genus' - 1)
    sd = surface_data(n)
    assert surf.genus == sd.genus + sd.cusps // 2
    assert abs(surf.volume - 4.0 * math.pi * (surf.genus - 1)) <= 1e-12 * surf.volume
    assert surf.volume == sd.area


# ---------------------------------------------------------------- validity

def test_other_geodesic_floor_is_min_of_bounds():
    for n, t in [(3, 0.4), (5, 0.2), (10, 0.01), (100, 0.3), (17, 1e-6)]:
        half_sys = math.acosh((n * n - 2) / 2.0)
        dist = 1.0 + 1.25 * t * t
        candidates = (
            crossing_length_bound(t),
            half_sys / dist,
            2.0 * half_sys / dist,
        )
        assert other_geodesic_floor(n, t) == min(candidates)


def test_other_geodesic_floor_small_t_limit():
    n = 11
    got = other_geodesic_floor(n, 1e-9)
    assert abs(got - math.acosh((n * n - 2) / 2.0)) <= 1e-9


def test_other_geodesic_floor_domain():
    for t in (0.5, 0.7, 0.0, -0.1):
        with pytest.raises(DomainError):
            other_geodesic_floor(5, t)


def test_validity_check():
    assert validity_check(100, 0.01, 5.0)
    assert not validity_check(3, 0.4, 100.0)
    # no distortion bound at t >= 1/2, so no completeness claim either
    assert not validity_check(100, 0.5, 0.1)
    assert not validity_check(5, 0.6, 1.0)
    for n, t, r in [(5, 0.2, 1.0), (7, 1e-4, 3.0), (3, 0.45, 2.0)]:
        assert validity_check(n, t, r) == (other_geodesic_floor(n, t) > r)


# ---------------------------------------------------------------- ladders

def test_short_spectrum_small():
    ladder = short_spectrum(5, 0.2, 1.0)
    assert (ladder.pinch_length, ladder.radius, ladder.multiplicity, ladder.count) == (
        0.2, 1.0, 6, 5)
    for k in range(1, 6):
        assert _rung_length(ladder.pinch_length, k) == pytest.approx(k * 0.2, rel=1e-15)


def test_short_spectrum_empty_below_first_rung():
    assert short_spectrum(5, 0.3, 0.2).count == 0


def test_short_spectrum_validity_gate():
    with pytest.raises(ValidityError):
        short_spectrum(3, 0.45, 50.0)


@pytest.mark.parametrize(
    "t,r,count",
    [(0.2, 1.0, 5), (0.25, 1.0, 4), (0.1, 0.3, 3), (1.0 / 3.0, 1.0, 3), (0.5, 1.0, 2)],
)
def test_ladder_count_boundaries(t, r, count):
    # decimal-intended cutoffs: floor(R/t) with a hair of slack so 1/0.2 is 5
    assert pinch_ladder(t, r, 1).count == count


def test_ladder_indexing():
    # a ladder is no sequence: the sums read its count, which may exceed
    # anything a list could hold
    ladder = pinch_ladder(0.2, 1.0, 3)
    for use in (lambda: ladder[0], lambda: len(ladder), lambda: iter(ladder)):
        with pytest.raises(TypeError):
            use()
    assert repr(ladder) == "PinchLadder(pinch_length=0.2, radius=1.0, multiplicity=3, count=5)"


def test_ladder_iteration_matches_indexing():
    # 0.1 is not 1/10, so k * 0.1 is not the decimal k/10 (3 * 0.1 rounds up
    # to 0.30000000000000004); the rung lengths, which the reach check of
    # plancherel_sum reads, round k t as the exact product
    ladder = pinch_ladder(0.1, 2.0, 1)
    lengths = [_rung_length(ladder.pinch_length, k) for k in range(1, ladder.count + 1)]
    assert lengths == [float(Fraction(0.1) * k) for k in range(1, ladder.count + 1)]
    assert lengths[2] != 0.3


def test_huge_ladder_count():
    t = math.exp(-25.0)
    ladder = pinch_ladder(t, 1.0, 1)
    ref = int(mp.floor((1 + mp.mpf("1e-12")) / mp.mpf(t)))
    assert ladder.count == ref
    assert _rung_length(t, ladder.count) <= 1.0 * (1.0 + 1e-9)


def test_ladder_rejects_multiplicities_below_one():
    for bad in (0, -3, 1.5, True, math.nan):
        with pytest.raises(DomainError):
            pinch_ladder(0.1, 1.0, bad)


# ---------------------------------------------------------------- criterion sums

def test_plancherel_sum_two_rungs():
    val = plancherel_sum(pinch_ladder(0.5, 1.0, 1), 1.0)
    ref = float(mp.mpf("0.5") / mp.sinh(mp.mpf("0.25")) + mp.mpf("0.5") / mp.sinh(mp.mpf("0.5")))
    assert abs(float(val) - ref) <= 1e-13 * ref
    assert abs(float(val) - 2.938828) <= 1e-5
    assert val.radius <= 1e-12 * float(val)


def test_plancherel_sum_empty():
    val = plancherel_sum(pinch_ladder(0.3, 0.2, 4), 0.2)
    assert float(val) == 0.0 and val.radius == 0.0
    assert repr(val) == "CertifiedValue(0.0, radius=0.0)"


def test_plancherel_sum_exact_reference():
    # 1 to 10^303 rungs: the head alone, and head plus Euler-Maclaurin tail
    for t in (0.45, 0.1, 1e-3, 1e-7, math.exp(-20.0), 1e-13, 1e-300):
        for r in (0.5, 1.0, 2.0, 1e3):
            ladder = pinch_ladder(t, r, 6)
            val = plancherel_sum(ladder, r)
            ref = exact_ladder_sum(t, ladder.count, 6)
            assert abs(float(val) - ref) <= val.radius, (t, r)
            assert val.radius <= 1e-12 * float(val), (t, r)


@pytest.mark.parametrize("t,n", [(1 / 7, 7), (1 / 300, 300), (5e-4, 2000), (1e-3, 2000),
                                 (0.49, 4), (1e-6, 10**6)])
def test_plancherel_sum_encloses_40_digit_reference(t, n):
    # whole ladders, and heads of 32 with order-10 tails; the reference sums
    # every term at 40 digits, or past 2000 rungs takes mpmath's own
    # Euler-Maclaurin (numerical derivatives) after a direct head of 100
    ladder = pinch_ladder(t, n * t, 1)
    assert ladder.count == n
    val = plancherel_sum(ladder, n * t)
    with mp.workdps(40):
        tt = mp.mpf(t)
        term = lambda k: tt / mp.sinh(k * tt / 2)  # noqa: E731
        if n <= 2000:
            ref = mp.fsum(term(k) for k in range(1, n + 1))
        else:
            ref = mp.fsum(term(k) for k in range(1, 101)) + mp.sumem(term, [101, n])
        assert abs(mp.mpf(float(val)) - ref) <= val.radius


def test_plancherel_sum_count_beyond_float_range():
    # 10^310 rungs: count * t must not pass through float(count)
    ladder = pinch_ladder(1e-300, 1e10, 1)
    val = plancherel_sum(ladder, 1e10)
    assert math.isfinite(float(val))
    assert abs(float(val) - exact_ladder_sum(1e-300, ladder.count, 1)) <= val.radius
    # every rung underflows: the computed sum is 0, so only a positive radius
    # can enclose the true sum; past the first rung the terms shrink by e^-5e299
    val = plancherel_sum(pinch_ladder(1e300, 1.7e308, 3), 1.7e308)
    t = mp.mpf(1e300)
    first = 3 * t / mp.sinh(t / 2)
    assert first > 0 and abs(mp.mpf(float(val)) - first) <= val.radius


def test_plancherel_sum_long_ladder_emits_no_warning():
    # rungs far past sinh's float range contribute exact zeros, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = plancherel_sum(pinch_ladder(0.5, 2000, 1), 2000)
    assert abs(float(val) - exact_ladder_sum(0.5, 4000, 1)) <= val.radius


def test_plancherel_sum_term_bound():
    # t/sinh(kt/2) <= 2/k, so the sum is at most 2*mult*H_count
    for t, r, mult in [(0.07, 1.0, 4), (1e-3, 2.0, 10)]:
        ladder = pinch_ladder(t, r, mult)
        val = plancherel_sum(ladder, r)
        cap = 2.0 * mult * harmonic_sum(ladder.count)
        assert float(val) <= cap * (1.0 + 1e-12)


def test_sums_refuse_spectra_that_are_not_ladders():
    # both sums take a PinchLadder and nothing else, not even a sequence of
    # ladders; a ladder reaching past the radius is refused too
    profile = transform_profile(bump(1.0))
    ladder = pinch_ladder(0.5, 1.0, 1)
    for spectrum in ([ladder], [], (ladder,), (x for x in [ladder]), None, 0.5):
        with pytest.raises(DomainError, match="must be a PinchLadder"):
            plancherel_sum(spectrum, 1.0)
        with pytest.raises(DomainError, match="must be a PinchLadder"):
            geometric_side(spectrum, profile)
    with pytest.raises(DomainError, match="beyond radius"):
        plancherel_sum(ladder, 0.9)


@pytest.mark.parametrize("length,primitive,mult", [
    (11.588139673497958, 2.8970349183744895, 30),
    (5.829396952219904, 1.457349238054976, 3),
    (3.0016094054548246, 1.5008047027274123, 12),
])
def test_plancherel_sum_class_list_encloses_reference(length, primitive, mult):
    # these classes, whose terms a charge of 3e-16 each once missed, as the
    # ladders of primitive length and multiplicity that reach them
    ladder = pinch_ladder(primitive, length, mult)
    assert ladder.count == round(length / primitive)
    val = plancherel_sum(ladder, length)
    with mp.workdps(40):
        t = mp.mpf(primitive)
        ref = mult * mp.fsum(t / mp.sinh(k * t / 2) for k in range(1, ladder.count + 1))
        assert abs(mp.mpf(float(val)) - ref) <= val.radius


@pytest.mark.parametrize("t,length", [(1e-3, 0.033), (1e-3, 1.0), (0.45, 14.85), (0.2, 80.0),
                                      (5.0, 165.0), (1e-300, 3.3e-299)])
def test_weight_derivatives_match_mpmath(t, length):
    # one recurrence for every order, at small and large x t (s = sech^2 near
    # 1 and near 0), against 40-digit differentiation of t/sinh(x t/2)
    got = _weight_derivatives(t, length, 10, 1)
    odd = _weight_derivatives(t, length, 10, 2)
    with mp.workdps(40):
        tt, x = mp.mpf(t), mp.mpf(length) / mp.mpf(t)
        ref = mp.diffs(lambda y: tt / mp.sinh(y * tt / 2), x, 9)
        for j, r in enumerate(ref):
            assert abs(got[j] - r) <= 1e-14 * abs(r), (j, got[j], r)
            if j == 0 or j % 2:
                assert abs(odd[j] - r) <= 1e-14 * abs(r), (j, odd[j], r)
            else:
                assert odd[j] is None


@pytest.mark.parametrize("t,r", [(0.1, 1e3), (1e-3, 1.0), (1e-7, 2.0), (1e-300, 1e3)])
def test_ladder_engine_at_unit_kernel_is_the_criterion_sum(t, r):
    # with g = 1 the order-10 remainder is |w^(9)(a)|/23950080 at a = _HEAD + 1,
    # and the two radius parts make up plancherel_sum's radius bit for bit
    ladder = pinch_ladder(t, r, 6)
    assert ladder.count > 128
    value, remainder, roundoff = _ladder_sum(t, ladder.count)
    assert remainder == abs(_weight_derivatives(t, (_HEAD + 1) * t, 10, 2)[9]) / 23950080
    val = plancherel_sum(ladder, r)
    assert float(val) == 6 * value
    assert val.radius == 6 * (remainder + roundoff) + _EPS * 6 * value


def test_bracket_matches_exact_summation():
    # 10^7 rungs: the head-plus-tail route against direct term-by-term
    # summation in float64, within the sum of both radii
    t, r = 1e-7, 1.0
    ladder = pinch_ladder(t, r, 2)
    assert ladder.count == 10**7
    bracket = plancherel_sum(ladder, r)
    chunks = []
    for start in range(1, ladder.count + 1, 10**6):
        k = np.arange(start, min(start + 10**6, ladder.count + 1), dtype=np.float64)
        chunks.append(math.fsum(t / np.sinh(k * t / 2)))
    exact = 2 * math.fsum(chunks)
    # each term carries a few ulps from sinh and the division; fsum adds none
    exact_radius = 8 * np.finfo(float).eps * exact
    assert abs(exact - float(bracket)) <= 1e-9 * exact
    assert abs(exact - float(bracket)) <= exact_radius + bracket.radius


def test_bracket_radius_tiny_in_deep_pinch():
    val = plancherel_sum(pinch_ladder(math.exp(-20.0), 1.0, 6), 1.0)
    assert val.radius <= 1e-9 * float(val)


# ---------------------------------------------------------------- ratios and sums

def test_bs_ratio_closed_form():
    for n in (5, 7, 11, 101):
        got = bs_ratio(n, 1e-3, 1.0)
        assert got == pytest.approx(3.0 / (2.0 * math.pi * n), rel=1e-15)
    # no geodesic below the radius means a zero numerator
    assert bs_ratio(5, 0.45, 0.3) == 0.0


def test_bs_ratio_validity_gate():
    with pytest.raises(ValidityError):
        bs_ratio(3, 0.4, 100.0)


def test_harmonic_small_values():
    assert harmonic_sum(1) == 1.0
    assert harmonic_sum(2) == 1.5
    assert harmonic_sum(100) == pytest.approx(5.187377517639621, rel=1e-14)


@pytest.mark.parametrize("n", [10**6, 10**7, 10**9, 10**12])
def test_harmonic_reference(n):
    ref = float(mp.harmonic(n))
    assert harmonic_sum(n) == pytest.approx(ref, rel=1e-13)


def test_harmonic_beyond_float_range():
    n = 10**400
    assert harmonic_sum(n) == pytest.approx(float(mp.harmonic(mp.mpf(n))), rel=1e-15)


def test_harmonic_domain():
    for bad in (0, -5, 2.5):
        with pytest.raises(DomainError):
            harmonic_sum(bad)


# ---------------------------------------------------------------- sandwich

def test_sandwich_formula():
    n, t, r = 5, 0.1, 1.0
    lower, upper = sandwich_bounds(n, t, r)
    pairs = 6
    assert lower == pytest.approx((r / math.sinh(0.5 * r)) * pairs * (-math.log(t)), rel=1e-14)
    assert upper == pytest.approx(2.0 * pairs * (math.log(r / t) + 1.0), rel=1e-14)
    assert lower / pairs == pytest.approx(4.418, abs=1e-3)


def test_sandwich_brackets_exact_sum():
    for n in (5, 7):
        pairs = surface_data(n).cusps // 2
        for t in (1e-2, 1e-4):
            for r in (1.0, 2.0):
                lower, upper = sandwich_bounds(n, t, r)
                s = exact_ladder_sum(t, pinch_ladder(t, r, pairs).count, pairs)
                assert lower <= s <= upper


@pytest.mark.parametrize("t,r", [(1e-300, 1e300), (1e-300, 1e100), (1e-200, 1e300),
                                 (1e-20, 1e300), (0.1, 1.0), (1e-300, 1.0), (1e-3, 1200.0),
                                 (1e-3, 1400.0)])
def test_sandwich_against_mpmath(t, r):
    # r/t overflows at the first four points, where log(r/t) read inf
    n = 7
    pairs = surface_data(n).cusps // 2
    lower, upper = sandwich_bounds(n, t, r)
    tt, rr = mp.mpf(t), mp.mpf(r)
    assert upper == pytest.approx(float(2 * pairs * (mp.log(rr / tt) + 1)), rel=1e-15, abs=0)
    assert lower == pytest.approx(float(rr / mp.sinh(rr / 2) * pairs * -mp.log(tt)), rel=1e-14,
                                  abs=0)


def test_sandwich_domain():
    with pytest.raises(DomainError):
        sandwich_bounds(5, 0.1, 0.5)
    with pytest.raises(DomainError):
        sandwich_bounds(5, 1.0, 2.0)
    with pytest.raises(DomainError):
        sandwich_bounds(2, 0.1, 1.0)


# ---------------------------------------------------------------- schedules

def test_schedule_rules():
    sched = Schedule.from_rule("walk", range(3, 8), "reciprocal")
    assert sched.levels == (3, 4, 5, 6, 7)
    assert sched.pinch_lengths == tuple(1.0 / n for n in range(3, 8))
    assert Schedule.from_rule("e", [3, 4], "exponential").pinch_lengths == (
        math.exp(-3.0), math.exp(-4.0))
    with pytest.raises(DomainError):
        Schedule.from_rule("x", [3, 4], "cubic")


def test_schedule_validation():
    with pytest.raises(DomainError):
        Schedule.explicit("x", [], [])
    with pytest.raises(DomainError):
        Schedule.explicit("x", [3, 3], [0.1, 0.05])
    with pytest.raises(DomainError):
        Schedule.explicit("x", [3, 4], [0.05, 0.1])
    with pytest.raises(DomainError):
        Schedule.explicit("x", [3, 4], [0.1])
    with pytest.raises(DomainError):
        Schedule.explicit("", [3], [0.1])
    with pytest.raises(DomainError):
        Schedule.explicit("x", [2, 3], [0.1, 0.05])


def test_schedule_underflow_rejected():
    # exp(-N^2) is below the representable floor from N = 27 on
    with pytest.raises(DomainError):
        Schedule.from_rule("deep", range(3, 30), "superexponential")


def test_classify_schedule_reciprocal_prefix():
    sched = Schedule.from_rule("recip", range(3, 101), "reciprocal")
    report = classify_schedule(sched, 1.0, 200)
    assert len(report.rows) == 98
    assert all(row.valid for row in report.rows)
    for row in report.rows:
        assert row.bs_ratio == pytest.approx(3.0 / (2.0 * math.pi * row.level), rel=1e-14)
        assert row.lower <= row.pl_norm <= row.upper
        assert row.volume == compacted_surface(row.level, row.pinch).volume
    assert report.bs_verdict == "vanishing"
    assert report.plancherel_verdict in (
        "vanishing", "bounded away from zero", "divergent", "inconclusive")


def test_classify_schedule_flags_invalid_rows():
    sched = Schedule.explicit("bad", [3, 5], [0.45, 0.01])
    report = classify_schedule(sched, 2.0, 10)
    first, second = report.rows
    assert not first.valid and math.isnan(first.pl_norm)
    assert second.valid and math.isfinite(second.pl_norm)


def test_classify_schedule_respects_j_max():
    sched = Schedule.from_rule("recip", range(3, 101), "reciprocal")
    report = classify_schedule(sched, 1.0, 5)
    assert [row.j for row in report.rows] == [1, 2, 3, 4, 5]
    assert [row.level for row in report.rows] == [3, 4, 5, 6, 7]


def test_classify_schedule_all_invalid_inconclusive():
    # t = 0.6 admits no completeness claim, so no row carries a bs ratio
    sched = Schedule.explicit("flat", range(3, 7), [0.6] * 4)
    report = classify_schedule(sched, 1.0, 10)
    assert not any(row.valid for row in report.rows)
    assert report.bs_verdict == "inconclusive"
    assert report.plancherel_verdict == "inconclusive"


def test_classify_schedule_few_rows_inconclusive():
    sched = Schedule.explicit("short", [5], [0.2])
    report = classify_schedule(sched, 1.0, 10)
    assert report.plancherel_verdict == "inconclusive"
    assert report.bs_verdict == "inconclusive"


@pytest.mark.parametrize("radius,j_max", [(1.0, 10000), (1.0, 200), (2.0, 300)])
def test_classify_schedule_rows_are_plancherel_sums(radius, j_max):
    # the rows go through the engine in blocks of ladders; each valid row
    # keeps the bits of plancherel_sum on its own ladder (j_max = 200 cuts
    # the second block in its middle)
    sched = Schedule.from_rule("recip", range(3, 403), "reciprocal")
    report = classify_schedule(sched, radius, j_max)
    assert len(report.rows) == min(j_max, 400)
    valid = [row for row in report.rows if row.valid]
    assert len(valid) >= len(report.rows) - 3
    for row in valid:
        s = plancherel_sum(pinch_ladder(row.pinch, radius, row.b_pairs), radius)
        assert (row.pl_sum.hex(), row.pl_sum_radius.hex()) == (
            float(s).hex(), s.radius.hex()), row.level


# ---------------------------------------------------------------- extremes

GRID_SUPPORTS = [5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-120, 1e-20,
                 1.0, 8.0, 1e4, 1e38, 2e40, 1e41, 1e155, 1e300, 1.7e308]


def _outcome(call, encloses):
    """"value" where call() returns and encloses(value) holds, "typed" where
    it raises a PinchlabError, and otherwise what went wrong, numpy's
    warnings included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except PinchlabError:
            return "typed"
        except Exception as exc:  # anything else that escapes is the fault looked for
            return f"{type(exc).__name__}: {exc}"
    return "value" if encloses(value) else "misses its reference"


def _termwise_side(profile, ladder):
    """The geometric side of ``ladder`` with the kernel of ``profile``,
    summed term by term by math.fsum over its rungs."""
    t = ladder.pinch_length
    u = np.array([_rung_length(t, k) for k in range(1, ladder.count + 1)])
    # t/(2 sinh(u/2)) first: t g(u) is subnormal below S = 1e-306 or so
    terms = t / (2.0 * np.sinh(0.5 * u)) * profile.g(u)
    return ladder.multiplicity * math.fsum(terms.tolist())


def test_extremes_enclose_or_raise_typed_errors():
    # t down to 1e-300, radii up to 1e300, multiplicities past 2^63 and the
    # float range, supports from the smallest float to the float range,
    # schedule levels past the float range, and text and truth values where h
    # reads reals: each call encloses its reference or raises a PinchlabError
    outcomes = {}
    for t in (1e-300, 1e-3, 0.5):
        for r in (1.0, 1e300):
            unit = exact_ladder_sum(t, pinch_ladder(t, r, 1).count, 1)
            for mult in (1, 2**63 + 1, 10**300):
                ref = mult * mp.mpf(unit)
                outcomes["sum", t, r, mult] = _outcome(
                    lambda: plancherel_sum(pinch_ladder(t, r, mult), r),
                    lambda v: abs(v - ref) <= v.radius)
    phi0 = math.exp(-1.0)
    for S in GRID_SUPPORTS:
        L = float(2 * mp.asinh(mp.sqrt(S) / 2))  # arccosh(1 + S/2), which 1 + S/2 would round
        outcomes["profile", S] = _outcome(
            lambda: transform_profile(bump(S)),
            lambda p: abs(p.g_support - L) <= 4 * _EPS * L and math.isfinite(p.g(0.0)))
        if outcomes["profile", S] != "value":
            continue
        profile = transform_profile(bump(S))
        outcomes["spectral", S] = _outcome(lambda: plancherel_integral(profile),
                                           lambda v: abs(v - phi0) <= v.radius)
        for n in (10, 2000):
            ladder = pinch_ladder(profile.g_support / (n + 0.5), profile.g_support, 1)
            outcomes["geometric", S, n] = _outcome(
                lambda: geometric_side(ladder, profile),
                lambda v: ladder.count == n and abs(v - _termwise_side(profile, ladder))
                <= v.radius)
    for rule in ("reciprocal", "exponential", "superexponential"):
        for n in (10**20, 10**160, 10**400):
            t_ref = {"reciprocal": mp.mpf(1) / n, "exponential": mp.exp(-n),
                     "superexponential": mp.exp(-mp.mpf(n) ** 2)}[rule]
            outcomes["schedule", rule, n] = _outcome(
                lambda: Schedule.from_rule(rule, [n], rule),
                lambda s: abs(s.pinch_lengths[0] - t_ref) <= _EPS * t_ref)
    h_batch = transform_profile(bump(1.0)).h_batch
    for bad in (["1"], [True], "1", True, np.array([True]), [[0.5], [0.5, 1.0]]):
        # no real to read, so any value is a miss
        outcomes["h_batch", repr(bad)] = _outcome(lambda: h_batch(bad), lambda v: False)
    assert {key: got for key, got in outcomes.items() if got not in ("value", "typed")} == {}
    # the true values are finite there, so a refusal would be no answer
    assert all(outcomes["geometric", S, n] == "value" for S in GRID_SUPPORTS
               if sys.float_info.min <= S <= 1e-120 for n in (10, 2000))
    # below the normal range the kernel's nodes are subnormal
    assert all(outcomes["profile", S] == "typed" for S in (5e-324, 1e-323, 1e-310))
    assert all(outcomes["profile", S] == "value" for S in GRID_SUPPORTS if S >= 1e155)
