"""Typed errors, and the one owner of each input rule.

Every public call checks its arguments through the validators here:
``_as_real`` for finite reals (text, truth values, integers past the float
range and what float() cannot read refused), on ``_read_real``, which reads a
real but lets infinities and NaN through; ``_require_positive`` for positive
ones (lengths, radii, supports), ``_validate_pinch`` for pinch lengths
(positive and at least _MIN_PINCH), ``_as_int`` for integers (bools, NaN and
infinities refused) and ``_as_level`` for torsion-free levels N >= 3. Rules
that hold for one call only stay with that call.
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


_MIN_PINCH = 1e-300  # near the subnormal range t loses digits; a rule has likely underflowed
_TEXT = (str, bytes, bytearray, memoryview, bool)  # float() reads "2" and b"2" as 2.0, True as 1.0


def _read_real(name: str, x) -> float:
    """x as a float, infinities and NaN included. Text and truth values
    (numpy's too) are refused, and an integer past the float range reads as
    an infinity."""
    try:
        if type(x) is not int and (
                isinstance(x, _TEXT) or getattr(getattr(x, "dtype", None), "kind", "") == "b"):
            raise TypeError
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real, got {x!r}") from None


def _as_real(name: str, x) -> float:
    r = x if type(x) is float else _read_real(name, x)  # the common case skips the checks
    if not math.isfinite(r):
        raise DomainError(f"{name} must be a finite real, got {r!r}")
    return r


def _require_positive(name: str, x) -> float:
    x = _as_real(name, x)
    if not x > 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _validate_pinch(t) -> float:
    t = _require_positive("pinch length", t)
    if t < _MIN_PINCH:
        raise DomainError(
            f"pinch length {t!r} is below the representable floor {_MIN_PINCH}; "
            "a schedule rule has likely underflowed"
        )
    return t


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
