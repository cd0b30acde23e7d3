"""Pinched congruence surfaces: exact invariants, certified criterion sums,
and the trace-formula identity at desk scale.

The exact layer (``congruence``, ``hyperbolic``, ``errors``, ``certified``)
needs only the standard library and is imported with the package. The
numeric exports of ``convergence`` and ``traceformula`` load, with numpy,
when one of them is first touched (PEP 562), so ``surface_data`` and the
``survey`` and ``systole`` subcommands never pay the numpy import.
"""

__version__ = "0.1.0"

import importlib

from .certified import CertifiedValue
from .congruence import (
    CongruenceSurfaceData,
    IntegerMatrix2,
    index_d,
    is_in_gamma,
    min_hyperbolic_trace,
    search_size_estimate,
    surface_data,
    witness_matrix,
)
from .errors import (
    DomainError,
    InternalInvariantViolation,
    NotHyperbolic,
    PinchlabError,
    ValidityError,
)
from .hyperbolic import (
    STANDARD_COLLAR_RADIUS,
    collar_width,
    collar_width_at_radius,
    crossing_length_bound,
    cylinder_volume,
    distortion_bound,
    injrad_from_collar,
    length_from_trace,
    thin_part_upper_bound,
)

# export name -> submodule, for the exports that need numpy
_LAZY = {
    **dict.fromkeys((
        "CompactedSurface",
        "PinchLadder",
        "Schedule",
        "ScheduleReport",
        "ScheduleRow",
        "bs_ratio",
        "classify_schedule",
        "compacted_surface",
        "harmonic_sum",
        "other_geodesic_floor",
        "pinch_ladder",
        "plancherel_sum",
        "sandwich_bounds",
        "short_spectrum",
        "validity_check",
    ), "convergence"),
    **dict.fromkeys((
        "TestFunction",
        "TransformProfile",
        "VanishingRow",
        "bump",
        "geometric_side",
        "plancherel_integral",
        "transform_profile",
        "vanishing_series",
    ), "traceformula"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CertifiedValue",
    "CongruenceSurfaceData",
    "IntegerMatrix2",
    "index_d",
    "is_in_gamma",
    "min_hyperbolic_trace",
    "search_size_estimate",
    "surface_data",
    "witness_matrix",
    "DomainError",
    "InternalInvariantViolation",
    "NotHyperbolic",
    "PinchlabError",
    "ValidityError",
    "STANDARD_COLLAR_RADIUS",
    "collar_width",
    "collar_width_at_radius",
    "crossing_length_bound",
    "cylinder_volume",
    "distortion_bound",
    "injrad_from_collar",
    "length_from_trace",
    "thin_part_upper_bound",
    *_LAZY,
]
