"""Gamma function and its reciprocal.

Evaluation is ``math.gamma``, accurate to about 1e-15 relative, behind
checks that turn poles, non-finite input and overflow into library errors.
"""

import math

from .errors import DomainError, PoleError

# |x - nearest integer| below this counts as sitting on a pole.
POLE_TOLERANCE = 1e-12


def is_pole(x: float) -> bool:
    """True if x is within POLE_TOLERANCE of a non-positive integer."""
    nearest = round(x)
    return nearest <= 0 and abs(x - nearest) <= POLE_TOLERANCE


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the non-positive integers.

    Raises PoleError on (near-)poles, DomainError for non-finite input or
    arguments where ``math.gamma`` overflows (above about 171.62).  Far below
    zero the value underflows towards (signed) zero.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    if is_pole(x):
        raise PoleError(f"pole at non-positive integer (x = {x:g})")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x:g}) overflows double precision") from None


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
    try:
        value = gamma(x)
    except DomainError:
        # Gamma overflows, but its reciprocal is subnormal or 0.0, and lgamma is finite
        return math.exp(-math.lgamma(x))
    recip = 1.0 / value if value != 0.0 else math.inf
    if not math.isfinite(recip):
        raise DomainError(f"1/gamma({x:g}) overflows double precision")
    return recip
