import math

import numpy as np
import pytest

from pinchlab import (
    CertifiedValue,
    DomainError,
    bump,
    distortion_bound,
    harmonic_sum,
    injrad_from_collar,
    sandwich_bounds,
    surface_data,
    thin_part_upper_bound,
    transform_profile,
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
], ids=["sandwich_radius", "sandwich_radius_str", "injrad_offset", "distortion_eps",
        "bump_amplitude", "certified_radius", "certified_value", "profile_h_huge",
        "profile_g_str", "bump_support_numeric_str", "sandwich_radius_numeric_str",
        "sandwich_radius_bytes", "bump_support_bool", "profile_h_numeric_str",
        "bump_support_bytearray", "bump_support_memoryview", "bump_support_numpy_bool",
        "certified_value_bytearray", "profile_g_numeric_str", "profile_g_str_list",
        "profile_g_str_array", "profile_g_bytearray", "profile_g_bool",
        "profile_g_bool_in_list", "profile_g_bool_array"])
def test_unreadable_reals_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
