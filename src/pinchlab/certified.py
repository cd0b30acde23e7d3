"""Values carrying a guaranteed absolute error radius."""

from __future__ import annotations

import math

from .errors import DomainError


class CertifiedValue(float):
    """A float together with a certified absolute error radius.

    Behaves as a plain float in arithmetic (the radius does not propagate
    through operators; derived quantities must rebuild their own radius).
    """

    __slots__ = ("radius",)

    radius: float

    def __new__(cls, value: float, radius: float) -> "CertifiedValue":
        radius = float(radius)
        if not (math.isfinite(radius) and radius >= 0.0):
            raise DomainError(f"error radius must be finite and >= 0, got {radius!r}")
        obj = super().__new__(cls, value)
        obj.radius = radius
        return obj

    def __repr__(self) -> str:
        return f"CertifiedValue({float(self)!r}, radius={self.radius!r})"
