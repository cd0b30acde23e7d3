import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from pinchlab import (
    DomainError,
    GeodesicClass,
    PinchLadder,
    Schedule,
    ValidityError,
    bs_ratio,
    classify_schedule,
    compacted_surface,
    crossing_length_bound,
    harmonic_sum,
    other_geodesic_floor,
    pinch_ladder,
    plancherel_normalized,
    plancherel_sum,
    sandwich_bounds,
    short_spectrum,
    surface_data,
    validity_check,
)

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
    assert ladder.count == 5
    classes = list(ladder)
    assert len(classes) == 5
    for k, cls in enumerate(classes, start=1):
        assert cls.multiplicity == 6
        assert cls.primitive_length == 0.2
        assert cls.length == pytest.approx(k * 0.2, rel=1e-15)


def test_short_spectrum_empty_below_first_rung():
    assert short_spectrum(5, 0.3, 0.2).count == 0
    assert list(short_spectrum(5, 0.3, 0.2)) == []


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
    ladder = pinch_ladder(0.2, 1.0, 3)
    assert len(ladder) == 5
    assert ladder[0].length == pytest.approx(0.2)
    assert ladder[-1].length == pytest.approx(1.0)
    assert ladder[4] == ladder[-1]
    with pytest.raises(IndexError):
        ladder[5]
    with pytest.raises(IndexError):
        ladder[-6]


def test_huge_ladder_count():
    t = math.exp(-25.0)
    ladder = pinch_ladder(t, 1.0, 1)
    ref = int(mp.floor((1 + mp.mpf("1e-12")) / mp.mpf(t)))
    assert ladder.count == ref
    cls = ladder[ladder.count - 1]
    assert cls.length <= 1.0 * (1.0 + 1e-9)


def test_geodesic_class_rejects_non_multiple():
    with pytest.raises(DomainError):
        GeodesicClass(length=0.5, primitive_length=0.2, multiplicity=1)


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


def test_plancherel_sum_exact_reference():
    # 1 to 10^303 rungs: the head alone, and head plus Euler-Maclaurin tail
    for t in (0.45, 0.1, 1e-3, 1e-7, math.exp(-20.0), 1e-13, 1e-300):
        for r in (0.5, 1.0, 2.0, 1e3):
            ladder = pinch_ladder(t, r, 6)
            val = plancherel_sum(ladder, r)
            ref = exact_ladder_sum(t, ladder.count, 6)
            assert abs(float(val) - ref) <= val.radius, (t, r)
            assert val.radius <= 1e-12 * float(val), (t, r)


def test_plancherel_sum_count_beyond_float_range():
    # 10^310 rungs: count * t must not pass through float(count)
    ladder = pinch_ladder(1e-300, 1e10, 1)
    val = plancherel_sum(ladder, 1e10)
    assert math.isfinite(float(val))
    assert abs(float(val) - exact_ladder_sum(1e-300, ladder.count, 1)) <= val.radius


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


def test_plancherel_sum_accepts_plain_classes():
    classes = [
        GeodesicClass(length=0.5, primitive_length=0.5, multiplicity=1),
        GeodesicClass(length=1.0, primitive_length=0.5, multiplicity=1),
    ]
    val = plancherel_sum(classes, 1.0)
    ref = plancherel_sum(pinch_ladder(0.5, 1.0, 1), 1.0)
    assert float(val) == pytest.approx(float(ref), rel=1e-14)


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


def test_plancherel_normalized():
    got = plancherel_normalized(5, 0.2, 1.0)
    ladder = short_spectrum(5, 0.2, 1.0)
    ref = exact_ladder_sum(0.2, 5, 6) / compacted_surface(5, 0.2).volume
    assert float(got) == pytest.approx(ref, rel=1e-12)
    assert float(plancherel_normalized(5, 0.3, 0.2)) == 0.0


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
