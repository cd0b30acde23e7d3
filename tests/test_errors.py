import math
import sys

import numpy as np
import pytest

from pinchlab import (
    CertifiedValue,
    DomainError,
    IntegerMatrix2,
    Schedule,
    bump,
    classify_schedule,
    distortion_bound,
    geometric_side,
    harmonic_sum,
    injrad_from_collar,
    is_in_gamma,
    pinch_ladder,
    plancherel_sum,
    sandwich_bounds,
    surface_data,
    thin_part_upper_bound,
    transform_profile,
    validity_check,
    vanishing_series,
)


@pytest.mark.parametrize("call", [
    lambda: surface_data(math.nan),
    lambda: surface_data(math.inf),
    lambda: harmonic_sum(math.inf),
    lambda: thin_part_upper_bound(math.nan, 1.0),
])
def test_non_finite_integers_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


HUGE = 10**400  # an integer past the float range; float() raises OverflowError


@pytest.mark.parametrize("call", [
    lambda: sandwich_bounds(7, 0.01, HUGE),
    lambda: sandwich_bounds(7, 0.01, "x"),
    lambda: injrad_from_collar(1.0, HUGE),
    lambda: distortion_bound(HUGE),
    lambda: bump(1.0, amplitude=HUGE),
    lambda: CertifiedValue(1.0, HUGE),
    lambda: CertifiedValue(1.0, -1e-300),
    lambda: CertifiedValue(HUGE, 0.0),
    lambda: transform_profile(bump(1.0)).h(HUGE),
    lambda: transform_profile(bump(1.0)).g("abc"),
    lambda: bump("2"),
    lambda: sandwich_bounds(7, 0.01, "2"),
    lambda: sandwich_bounds(7, 0.01, b"2"),
    lambda: bump(True),
    lambda: transform_profile(bump(1.0)).h("1"),
    lambda: bump(bytearray(b"2")),
    lambda: bump(memoryview(b"2")),
    lambda: bump(np.True_),
    lambda: CertifiedValue(bytearray(b"1"), 0.0),
    lambda: transform_profile(bump(1.0)).g("2"),
    lambda: transform_profile(bump(1.0)).g(["0.5"]),
    lambda: transform_profile(bump(1.0)).g(np.array(["0.5"])),
    lambda: transform_profile(bump(1.0)).g(bytearray(b"2")),
    lambda: transform_profile(bump(1.0)).g(True),
    lambda: transform_profile(bump(1.0)).g([0.5, True]),
    lambda: transform_profile(bump(1.0)).g(np.array([True])),
    lambda: transform_profile(bump(1.0)).g([[memoryview(b"\x01")]]),
    lambda: transform_profile(bump(1.0)).g([bytearray(b"2")]),
    lambda: transform_profile(bump(1.0)).g([[0.5, 0.6], [0.7]]),
], ids=["sandwich_radius", "sandwich_radius_str", "injrad_offset", "distortion_eps",
        "bump_amplitude", "certified_radius", "certified_negative_radius", "certified_value",
        "profile_h_huge", "profile_g_str", "bump_support_numeric_str",
        "sandwich_radius_numeric_str", "sandwich_radius_bytes", "bump_support_bool", "profile_h_numeric_str",
        "bump_support_bytearray", "bump_support_memoryview", "bump_support_numpy_bool",
        "certified_value_bytearray", "profile_g_numeric_str", "profile_g_str_list",
        "profile_g_str_array", "profile_g_bytearray", "profile_g_bool",
        "profile_g_bool_in_list", "profile_g_bool_array", "profile_g_nested_memoryview",
        "profile_g_bytearray_in_list", "profile_g_ragged_list"])
def test_unreadable_reals_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: pinch_ladder(0.1, 1.0, HUGE),
], ids=["ladder"])
def test_multiplicities_past_the_float_range_raise_domain_error(call):
    # the sums scale by float(multiplicity), which would raise OverflowError
    with pytest.raises(DomainError):
        call()


def test_largest_multiplicity_and_counts_past_int64_stay_legal():
    top = int(sys.float_info.max)
    ladder = pinch_ladder(1e-300, 1.0, top)
    assert ladder.count > 2**63 and ladder.multiplicity == top


TOP = int(sys.float_info.max)  # the largest legal multiplicity


@pytest.mark.parametrize("call", [
    lambda: plancherel_sum(pinch_ladder(1.0, 2.0, TOP), 2.0),
    lambda: plancherel_sum(pinch_ladder(2.0, 2.0, TOP), 2.0),
    lambda: geometric_side(pinch_ladder(0.1, 0.9, TOP), transform_profile(bump(1.0))),
], ids=["plancherel_sum", "plancherel_sum_one_class", "geometric_side"])
def test_class_sums_past_the_float_range_name_the_multiplicities(call):
    # ladder sums whose every rung is finite but whose multiplicity takes the
    # total past the float range: two rungs, one rung, and nine rungs of a kernel
    with pytest.raises(DomainError, match="float range at a multiplicity of 1.79769e"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: Schedule("x", (3, 4), 0.5), "pinch_lengths"),
    (lambda: Schedule("x", 3, (0.5,)), "levels"),
    (lambda: Schedule.from_rule("x", None, "reciprocal"), "levels"),
    (lambda: Schedule.explicit("x", [3], None), "pinch_lengths"),
    (lambda: Schedule.from_rule("x", [3, None], "reciprocal"), "level"),
    (lambda: surface_data([7]), "level"),
    (lambda: is_in_gamma((1, 0, 0, 1), 3), "m"),
    (lambda: Schedule.explicit("x", [3, 4], "0.5,0.5"), "pinch_lengths"),
    (lambda: Schedule.explicit("x", "34", [0.5, 0.5]), "levels"),
    (lambda: is_in_gamma(IntegerMatrix2("1", 0, 0, 1), 3), "matrix entry a"),
    (lambda: IntegerMatrix2(None, 0, 0, 1).det, "matrix entry a"),
], ids=["schedule_pinch_real", "schedule_levels_int", "from_rule_levels_none",
        "explicit_pinch_none", "from_rule_level_none", "surface_data_list", "is_in_gamma_tuple",
        "explicit_pinch_text", "explicit_levels_text", "is_in_gamma_entry_text",
        "matrix_entry_none"])
def test_arguments_of_the_wrong_kind_raise_domain_error_naming_them(call, name):
    # a real where a sequence belongs, None or a list where an integer
    # belongs, a tuple where a matrix belongs, text where a sequence of
    # numbers belongs, and text or None where a matrix entry belongs
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call()


RECIPROCAL = Schedule.from_rule("r", range(3, 8), "reciprocal")


@pytest.mark.parametrize("call", [
    lambda: validity_check("x", 0.7, 1.0),
    lambda: validity_check(2, 0.6, 1.0),
    lambda: validity_check(2, 0.1, 1.0),
    lambda: classify_schedule([3, 4], 1.0, 2),
    lambda: classify_schedule(RECIPROCAL, 1.0, 0),
    lambda: classify_schedule(RECIPROCAL, 1.0, 1.5),
    lambda: vanishing_series("x", bump(1.0), 2),
    lambda: vanishing_series(RECIPROCAL, bump(1.0), 0),
    lambda: vanishing_series(RECIPROCAL, 1.0, 2),
    lambda: transform_profile(lambda u: 0.0),
], ids=["validity_level_text_wide_pinch", "validity_level_2_wide_pinch",
        "validity_level_2", "classify_list", "classify_j_max_0", "classify_j_max_real",
        "vanishing_text", "vanishing_j_max_0", "vanishing_real_phi", "profile_function"])
def test_schedule_pass_arguments_raise_domain_error(call):
    # the level is read whatever t is, and both schedule passes read their
    # schedule and j_max, and transform_profile its test function, up front
    with pytest.raises(DomainError):
        call()
