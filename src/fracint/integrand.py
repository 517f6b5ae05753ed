"""Integrand descriptions shared by the quadrature engines and strip geometry."""

import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

INCREASING = "increasing"
DECREASING = "decreasing"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Integrand:
    """A real function on [0, t] with optional monotonicity metadata.

    ``fn`` maps a float64 array to one value per element (:func:`evaluate` raises
    DomainError on any other shape); a scalar-only g needs one wrap,
    ``np.vectorize(g, otypes=[float])``.  A route may call it on any subset of
    abscissae: the 21 or 42 Kronrod nodes of an adaptive step, or one block of a
    strip sum's partition.  ``power`` carries
    ``(coefficient, exponent)`` when the function is c*tau**p, which unlocks the
    closed-form route.
    """

    fn: Callable
    monotone: str = UNKNOWN
    label: str = "f"
    power: Optional[tuple] = None

    def __post_init__(self):
        if self.monotone not in (INCREASING, DECREASING, UNKNOWN):
            raise DomainError(f"unknown monotonicity tag {self.monotone!r}")

    def __call__(self, x):
        return self.fn(x)


def evaluate(fn, x):
    """fn on x as a float array, shaped like x: the one check of the integrand contract."""
    arr = np.asarray(x, dtype=float)
    out = np.asarray(fn(arr), dtype=float)
    if out.shape != arr.shape:
        raise DomainError(f"an integrand must map a float array to one value per element, "
                          f"got shape {out.shape} for shape {arr.shape}")
    return out


def power_integrand(coefficient: float, exponent: float) -> Integrand:
    """The family c*tau**p (p >= 0), tagged monotone unless it is constant."""
    c = float(coefficient)
    p = float(exponent)
    if not (np.isfinite(c) and np.isfinite(p)):
        raise DomainError("power integrand needs finite coefficient and exponent")
    if p < 0:
        raise DomainError(f"power integrand exponent must be >= 0, got {p:g}")

    unit = c == 1.0  # 1.0 * x is x for every double, -0.0, inf and nan included
    scales_up = abs(c) > 1.0
    scales_down = abs(c) < 1.0
    log_c = np.log(abs(c)) if c else -np.inf  # so c = 0 redoes an element as exp(-inf) = 0

    def fn(tau):
        tau = np.asarray(tau, dtype=float)
        if unit:
            return tau**p
        if scales_down:
            with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf, are redone below
                power = tau**p
                values = c * power
        else:
            power = tau**p
            values = c * power
        # the elements whose tau**p lost digits before c scales it go through logarithms:
        # below the normal range when c scales up, where the logarithms cannot overflow,
        # and past the largest double when c scales down, where exp warns if c*tau**p does
        if scales_up:
            lost = (power < sys.float_info.min) & (tau > 0.0)
        elif scales_down:
            lost = np.isinf(power)
        else:
            return values
        if lost.any():
            logs = p * np.log(np.where(lost, tau, 1.0)) + log_c
            values = np.where(lost, np.copysign(np.exp(logs), c), values)
        return values

    if p == 0 or c == 0:
        monotone = UNKNOWN
    else:
        monotone = INCREASING if c > 0 else DECREASING
    return Integrand(fn=fn, monotone=monotone, label=f"pow:{c:g}:{p:g}", power=(c, p))
