"""Gamma function and its reciprocal.

Evaluation is ``math.gamma``, accurate to about 1e-15 relative, behind
checks that turn poles, non-finite input and overflow into library errors.
"""

import math

from .errors import DomainError, PoleError

# Largest argument before Gamma(x) overflows a double.
_OVERFLOW_X = 171.624

# |x - nearest integer| below this counts as sitting on a pole.
POLE_TOLERANCE = 1e-12


def is_pole(x: float) -> bool:
    """True if x is within POLE_TOLERANCE of a non-positive integer."""
    nearest = round(x)
    return nearest <= 0 and abs(x - nearest) <= POLE_TOLERANCE


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the non-positive integers.

    Raises PoleError on (near-)poles, DomainError for non-finite input or
    arguments large enough to overflow (> ~171.6).  Far below zero the value
    underflows towards (signed) zero.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    if is_pole(x):
        raise PoleError(f"pole at non-positive integer (x = {x:g})")
    if x > _OVERFLOW_X:
        raise DomainError(f"gamma({x:g}) overflows double precision")
    return math.gamma(x)


def recip_gamma(x: float) -> float:
    """1/Gamma(x), which is entire: exactly 0.0 at non-positive integers.

    Raises DomainError where 1/Gamma(x) overflows (Gamma underflows, far
    below zero).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"recip_gamma argument must be finite, got {x!r}")
    if is_pole(x):
        return 0.0
    if x > _OVERFLOW_X:
        # Gamma overflows but its reciprocal just underflows.
        return 0.0
    value = gamma(x)
    recip = 1.0 / value if value != 0.0 else math.inf
    if not math.isfinite(recip):
        raise DomainError(f"1/gamma({x:g}) overflows double precision")
    return recip
