"""fracint's strip partition and strip sum as they were when each pass made a fresh array.

A verbatim copy of the arithmetic of ``TransformPair.tau``, ``TransformPair.inverse``,
``make_partition``, ``strip_areas`` and ``_strip_sum`` from ``fracint.transforms``
and ``fracint.engines``, kept as the reference that ``test_quadrature.py`` compares
the in-place partition and sum with, bit for bit.  The methods take the pair as
their first argument; only the imports below and those signatures are new.
"""

import numpy as np

from fracint.engines import QuadratureResult
from fracint.errors import DomainError
from fracint.integrand import evaluate


def tau(self, u):
    """h on the u axis: t - u**(1/alpha), floored at 0, for u in [0, t**alpha]."""
    # u is not wrapped in np.asarray, whose 0-d pow rounds a scalar u differently
    return np.maximum(self.t - u ** (1.0 / self.alpha), 0.0)


def inverse(self, x):
    """h(x) on [0, t**alpha / Gamma(alpha + 1)]; inverse of forward."""
    arr = np.asarray(x, dtype=float)
    slack = 1e-12 * self.width
    if np.any(arr < -slack) or np.any(arr > self.width + slack):
        raise DomainError(f"x outside [0, {self.width:g}]")
    out = tau(self, np.maximum(self.t**self.alpha - self.gamma_alpha_plus_one * arr, 0.0))
    if np.asarray(x).ndim == 0:
        return float(out)
    return out


def make_partition(pair, n: int) -> np.ndarray:
    """The n+1 tau abscissae x2_i = h(i * width/n) of n equal-width strips."""
    if n < 1:
        raise DomainError(f"partition size must be >= 1, got {n}")
    x1 = np.linspace(0.0, pair.width, int(n) + 1)
    # the points i * (width / n) increase strictly unless the step underflows
    # or the last interior point rounds up to the end
    if not (x1[1] > 0.0 and x1[-1] > x1[-2]):
        raise DomainError("transformed-axis points must be strictly increasing")
    return inverse(pair, x1)


def strip_areas(heights: np.ndarray, width: float, n: int) -> np.ndarray:
    """Areas f(x2_i) * width/n: the one strip-area formula, of the geometry and both sums."""
    return heights * (width / n)


def _strip_sum(f, pair, n, method) -> QuadratureResult:
    """Left-endpoint strip sum: the total of strip_areas(f(x2_i), width, n).

    The error estimate compares it with the sum over every second strip at
    twice the width (the last strip once when n is odd).
    """
    n = int(n)
    heights = evaluate(f, make_partition(pair, n)[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # QuadratureResult refuses a non-finite sum
        # a fresh array: evaluate may hand back f's own array or a view of tau
        areas = strip_areas(heights, pair.width, n)
        value = float(np.sum(areas))
        coarse = 2.0 * float(np.sum(areas[::2])) - (float(areas[-1]) if n % 2 else 0.0)
    return QuadratureResult(value, abs(value - coarse) if n > 1 else abs(value), method, n)
