"""Typed errors, and the one owner of each input rule.

Every public call checks its arguments through the validators here:
``_as_real`` for finite reals (text, bools, integers past the float range and
what float() cannot read refused), ``_require_positive`` for positive ones
(lengths, radii, supports), ``_as_int`` for integers (bools, NaN and infinities
refused) and ``_as_level`` for torsion-free levels N >= 3. Rules that hold for
one call only stay with that call.
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


def _as_real(name: str, x) -> float:
    if type(x) is float:  # the common case skips the checks below
        r = x
    else:
        try:
            # float() reads "2", and True as 1.0
            if type(x) is not int and isinstance(x, (str, bytes, bool)):
                raise TypeError
            r = float(x)
        except OverflowError:  # an integer past the float range
            r = math.inf
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be a finite real, got {x!r}") from None
    if not math.isfinite(r):
        raise DomainError(f"{name} must be a finite real, got {r!r}")
    return r


def _require_positive(name: str, x) -> float:
    x = _as_real(name, x)
    if not x > 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _as_int(name: str, x) -> int:
    try:
        n = int(x)  # NaN raises ValueError, an infinity OverflowError
    except (ValueError, OverflowError):
        n = None
    if isinstance(x, bool) or n is None or n != x:
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return n


def _as_level(level) -> int:
    n = _as_int("level", level)
    if n < 3:
        raise DomainError(f"level must be >= 3, got {n}")
    return n
