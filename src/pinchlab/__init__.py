"""Pinched congruence surfaces: exact invariants, certified criterion sums,
and the trace-formula identity at desk scale.

``import pinchlab`` loads no submodule. Each export loads its module when it
is first touched (PEP 562). The exact layer (``congruence``, ``hyperbolic``,
``errors``, ``certified``) needs only the standard library and never loads
numpy, so ``surface_data`` and the ``survey`` and ``systole`` subcommands
never pay the numpy import; ``convergence`` and ``traceformula`` load it.
"""

__version__ = "0.1.0"

import importlib

# export name -> submodule; __all__ lists the exports in this order
_EXPORTS = {
    "CertifiedValue": "certified",
    **dict.fromkeys(("CongruenceSurfaceData", "IntegerMatrix2", "index_d", "is_in_gamma",
                     "min_hyperbolic_trace", "search_size_estimate", "surface_data",
                     "witness_matrix"), "congruence"),
    **dict.fromkeys(("DomainError", "InternalInvariantViolation", "NotHyperbolic",
                     "PinchlabError", "ValidityError"), "errors"),
    **dict.fromkeys(("STANDARD_COLLAR_RADIUS", "collar_width", "collar_width_at_radius",
                     "crossing_length_bound", "cylinder_volume", "distortion_bound",
                     "injrad_from_collar", "length_from_trace", "thin_part_upper_bound"),
                    "hyperbolic"),
    **dict.fromkeys(("CompactedSurface", "PinchLadder", "Schedule", "ScheduleReport",
                     "ScheduleRow", "bs_ratio", "classify_schedule", "compacted_surface",
                     "harmonic_sum", "other_geodesic_floor", "pinch_ladder", "plancherel_sum",
                     "sandwich_bounds", "short_spectrum", "validity_check"), "convergence"),
    **dict.fromkeys(("TestFunction", "TransformProfile", "VanishingRow", "bump",
                     "geometric_side", "plancherel_integral", "transform_profile",
                     "vanishing_series"), "traceformula"),
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)
