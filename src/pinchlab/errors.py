"""Typed errors, and the one owner of each input rule.

Every public call checks its arguments through the validators here:
``_require_positive`` for positive finite reals (lengths, radii, supports),
``_as_int`` for integers (bools refused) and ``_as_level`` for torsion-free
levels N >= 3. Rules that hold for one call only stay with that call.
"""

import math


class PinchlabError(Exception):
    """Base class for all library errors."""


class NotHyperbolic(PinchlabError):
    """A trace or matrix that does not correspond to a hyperbolic element."""


class DomainError(PinchlabError):
    """An argument outside an operation's stated domain."""


class ValidityError(PinchlabError):
    """A short-spectrum request outside the radius where the ladder is complete."""


class InternalInvariantViolation(PinchlabError):
    """An exact-arithmetic identity failed; indicates a bug, never user input."""


def _require_positive(name: str, x) -> float:
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _as_int(name: str, x) -> int:
    if isinstance(x, bool) or int(x) != x:
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _as_level(level) -> int:
    n = _as_int("level", level)
    if n < 3:
        raise DomainError(f"level must be >= 3, got {n}")
    return n
