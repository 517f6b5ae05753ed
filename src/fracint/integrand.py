"""Integrand descriptions shared by the quadrature engines and strip geometry."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NonMonotoneError

INCREASING = "increasing"
DECREASING = "decreasing"
UNKNOWN = "unknown"

BISECTION_ITERATIONS = 100


@dataclass(frozen=True)
class Integrand:
    """A real function on [0, t] with optional monotonicity and inverse metadata.

    ``fn`` should accept numpy arrays (all built-in integrands do); scalar-only
    callables are tolerated through :func:`evaluate`.  ``power`` carries
    ``(coefficient, exponent)`` when the function is c*tau**p, which unlocks the
    closed-form route.
    """

    fn: Callable
    monotone: str = UNKNOWN
    inverse: Optional[Callable] = None
    label: str = "f"
    power: Optional[tuple] = None

    def __post_init__(self):
        if self.monotone not in (INCREASING, DECREASING, UNKNOWN):
            raise DomainError(f"unknown monotonicity tag {self.monotone!r}")

    def __call__(self, x):
        return self.fn(x)


def evaluate(fn, x):
    """Evaluate ``fn`` on scalar or array ``x``, tolerating scalar-only callables."""
    arr = np.asarray(x, dtype=float)
    try:
        out = np.asarray(fn(arr), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != arr.shape:
        # a scalar-only callable raises on an array or returns the wrong shape
        out = np.array([fn(float(v)) for v in arr.ravel()], dtype=float).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def power_integrand(coefficient: float, exponent: float) -> Integrand:
    """The family c*tau**p (p >= 0), with analytic inverse when invertible."""
    c = float(coefficient)
    p = float(exponent)
    if not (np.isfinite(c) and np.isfinite(p)):
        raise DomainError("power integrand needs finite coefficient and exponent")
    if p < 0:
        raise DomainError(f"power integrand exponent must be >= 0, got {p:g}")

    def fn(tau):
        return c * np.asarray(tau, dtype=float) ** p

    if p == 0 or c == 0:
        monotone = UNKNOWN
        inverse = None
    else:
        monotone = INCREASING if c > 0 else DECREASING

        def inverse(y):
            return (np.asarray(y, dtype=float) / c) ** (1.0 / p)

    label = f"pow:{c:g}:{p:g}"
    return Integrand(fn=fn, monotone=monotone, inverse=inverse, label=label, power=(c, p))


def inverse_value(f: Integrand, y, upper: float):
    """f^{-1}(y) on [0, upper]: analytic inverse if present, else bisection.

    Bisection needs a declared monotone direction; it stops once the
    bracket is below 1e-13 * upper.
    """
    if f.inverse is not None:
        return evaluate(f.inverse, y)
    if f.monotone == UNKNOWN:
        raise NonMonotoneError(
            f"integrand {f.label!r} has no inverse and no declared monotone direction"
        )

    ys = np.asarray(y, dtype=float)
    f_lo = evaluate(f, 0.0)
    f_hi = evaluate(f, upper)
    lo_val, hi_val = (f_lo, f_hi) if f.monotone == INCREASING else (f_hi, f_lo)
    slack = 1e-9 * max(1.0, abs(hi_val - lo_val))
    if np.any(ys < lo_val - slack) or np.any(ys > hi_val + slack):
        raise DomainError(
            f"value outside the range [{lo_val:g}, {hi_val:g}] of {f.label!r} on [0, {upper:g}]"
        )
    return bisect_monotone(
        f, np.clip(ys, lo_val, hi_val), 0.0, upper, tol=1e-13 * float(upper),
        increasing=f.monotone == INCREASING,
    )


def bisect_monotone(fn, targets, lo: float, hi: float, tol: float = 0.0, increasing: bool = True):
    """Vectorized bisection: solve fn(x) = target for monotone fn on [lo, hi].

    Halves every bracket together until the widest is at most ``tol`` or
    BISECTION_ITERATIONS halvings are done, and returns the midpoints.
    """
    ys = np.atleast_1d(np.asarray(targets, dtype=float))
    los = np.full_like(ys, float(lo))
    his = np.full_like(ys, float(hi))
    sign = 1.0 if increasing else -1.0
    for _ in range(BISECTION_ITERATIONS):
        mid = 0.5 * (los + his)
        below = sign * (evaluate(fn, mid) - ys) < 0.0
        los = np.where(below, mid, los)
        his = np.where(below, his, mid)
        if np.max(his - los) <= tol:
            break
    root = 0.5 * (los + his)
    if np.ndim(targets) == 0:
        return float(root[0])
    return root

