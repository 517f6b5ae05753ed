"""Four named routes to the order-alpha integral on two cores, plus integer-order forms.

Routes
------
direct       adaptive quadrature of the kernel form; the substitution
             u = (t - tau)**alpha removes the endpoint singularity exactly
transformed  adaptive quadrature of the bounded form f(h(x)) on [0, g(t)]
stieltjes    left-endpoint sum against the integrator g
cavalieri    left-endpoint strip sum, equal widths on the transformed axis

``direct`` and ``transformed`` are one bounded integral: u = t**alpha -
Gamma(alpha+1) x mirrors and rescales the transformed axis, so both run the
adaptive core.  ``stieltjes`` and ``cavalieri`` are one sum, because
g(h(x)) = x makes every integrator increment a strip width, so both run the
strip-sum core.  ``compare`` therefore checks the adaptive core against the
strip sum; ``direct_rl(..., substitute=False)`` keeps the raw kernel form as
an independent cross-check.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .gamma import recip_gamma
from .integrand import Integrand, evaluate
from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_BUDGET,
    DEFAULT_REL_TOL,
    adaptive_quadrature,
)
from .transforms import TransformPair, validate_horizon, validate_order

METHODS = ("direct", "stieltjes", "cavalieri", "transformed", "oracle")

SPACING_TRANSFORMED = "transformed"
SPACING_TAU = "tau"


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus the bookkeeping needed to compare routes."""

    value: float
    error_estimate: float
    method: str
    evaluations: int
    n: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if not math.isfinite(self.error_estimate) or self.error_estimate < 0:
            raise DomainError("error estimate must be finite and >= 0")
        if self.evaluations <= 0:
            raise DomainError("evaluation count must be positive")


@dataclass(frozen=True)
class Partition:
    """Companion partitions: uniform points on one axis, images on the other.

    ``transformed`` lives on [0, t**alpha / Gamma(alpha+1)], ``tau`` on [0, t];
    tau[i] = h(transformed[i]) within roundoff either way.
    """

    transformed: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        if len(self.transformed) != len(self.tau):
            raise DomainError("companion partitions must have equal length")
        if np.any(np.diff(self.transformed) <= 0):
            raise DomainError("transformed-axis points must be strictly increasing")
        # adjacent images can round to equal doubles where the inverse
        # transform flattens, so the companion axis is only required monotone
        if np.any(np.diff(self.tau) < 0):
            raise DomainError("companion points must be non-decreasing")


def make_partition(pair: TransformPair, n: int, spacing: str = SPACING_TRANSFORMED) -> Partition:
    if n < 1:
        raise DomainError(f"partition size must be >= 1, got {n}")
    if spacing == SPACING_TRANSFORMED:
        x1 = np.linspace(0.0, pair.width, int(n) + 1)
        x2 = pair.inverse(x1)
    elif spacing == SPACING_TAU:
        x2 = np.linspace(0.0, pair.t, int(n) + 1)
        x1 = pair.forward(x2)
    else:
        raise DomainError(f"unknown partition spacing {spacing!r}")
    return Partition(transformed=x1, tau=x2)


def _adaptive_core(f, alpha, t, scale, budget, abs_tol, rel_tol, method) -> QuadratureResult:
    """int_0^{g(t)} f(h(x)) dx as scale * int_0^{t**alpha} f(t - u**(1/alpha)) du.

    ``scale`` is 1/Gamma(alpha+1), passed in so that a caller holding
    Gamma(alpha+1) already does not evaluate it again.
    """

    def bounded(u):
        # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
        tau = np.minimum(np.maximum(t - np.asarray(u, dtype=float) ** (1.0 / alpha), 0.0), t)
        return evaluate(f, tau)

    raw, err, evals = adaptive_quadrature(bounded, 0.0, t**alpha, abs_tol, rel_tol, budget)
    return QuadratureResult(scale * raw, scale * err, method, evals)


def _strip_sum(f, pair, n, spacing, method) -> QuadratureResult:
    """Left-endpoint strip sum: sum f(h(x1_i)) * (x1_{i+1} - x1_i).

    The error estimate compares it with the sum over every second point
    (plus the right end when n is odd).
    """
    part = make_partition(pair, n, spacing)
    x1 = part.transformed
    heights = np.atleast_1d(np.asarray(evaluate(f, part.tau[:-1])))
    value = float(np.dot(heights, np.diff(x1)))
    if len(heights) > 1:
        err = abs(value - float(np.dot(heights[::2], np.diff(np.append(x1[:-1:2], x1[-1])))))
    else:
        err = abs(value)
    if not (np.isfinite(value) and np.isfinite(err)):
        raise NumericalError(f"non-finite strip sum over {n} strips")
    return QuadratureResult(value, err, method, int(n), n=int(n))


def direct_rl(
    f: Integrand,
    alpha: float,
    t: float,
    budget: int = DEFAULT_BUDGET,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    substitute: bool = True,
) -> QuadratureResult:
    """Kernel-form route: (1/Gamma(alpha)) int_0^t (t-tau)**(alpha-1) f(tau) dtau.

    With ``substitute`` (default) the change of variable u = (t - tau)**alpha
    turns the weighted measure into du / (alpha * Gamma(alpha)) and leaves a
    bounded integrand: the adaptive core.  ``substitute=False`` integrates the
    raw form, which the interior-node rule tolerates; it is kept as a slower
    cross-check.
    """
    alpha = validate_order(alpha)
    t = validate_horizon(t)
    if budget < 64:
        raise DomainError(f"direct route needs a budget of at least 64, got {budget}")
    if substitute:
        return _adaptive_core(
            f, alpha, t, recip_gamma(alpha + 1.0), budget, abs_tol, rel_tol, "direct"
        )

    def kernel(tau):
        arr = np.asarray(tau, dtype=float)
        diff = t - arr
        vals = np.asarray(evaluate(f, arr))
        # node rounding can land exactly on t; the point has measure zero
        with np.errstate(divide="ignore", over="ignore"):
            weight = np.where(diff > 0.0, diff, 1.0) ** (alpha - 1.0)
        return np.where(diff > 0.0, weight * vals, 0.0)

    scale = recip_gamma(alpha)
    raw, err, evals = adaptive_quadrature(kernel, 0.0, t, abs_tol, rel_tol, budget)
    return QuadratureResult(scale * raw, scale * err, "direct", evals)


def stieltjes_sum(
    f: Integrand,
    pair: TransformPair,
    n: int,
    spacing: str = SPACING_TRANSFORMED,
) -> QuadratureResult:
    """Left-endpoint sum of f against the integrator: sum f(x2_i) * (g(x2_{i+1}) - g(x2_i)).

    g(x2_i) is the transformed-axis point x1_i, so this is the strip sum.
    """
    return _strip_sum(f, pair, n, spacing, "stieltjes")


def cavalieri_sum(
    f: Integrand,
    pair: TransformPair,
    n: int,
    spacing: str = SPACING_TRANSFORMED,
) -> QuadratureResult:
    """Equal-width strip sum on the transformed axis: sum f(h(x1_i)) * dx1."""
    return _strip_sum(f, pair, n, spacing, "cavalieri")


def transformed_riemann(
    f: Integrand,
    pair: TransformPair,
    budget: int = DEFAULT_BUDGET,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """Bounded-form route: int_0^{g(t)} f(h(x)) dx, by the adaptive core.

    No kernel singularity survives the transform, so this is the preferred
    high-accuracy route.
    """
    return _adaptive_core(
        f, pair.alpha, pair.t, 1.0 / pair.gamma_alpha_plus_one, budget, abs_tol, rel_tol,
        "transformed",
    )


def cauchy_repeated(
    f: Integrand,
    n: int,
    t: float,
    budget: int = DEFAULT_BUDGET,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """n-th antiderivative based at 0 through the single polynomial-kernel integral.

    (1/(n-1)!) int_0^t (t - tau)**(n-1) f(tau) dtau
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"repetition count must be a positive integer, got {n!r}")
    t = validate_horizon(t)
    scale = 1.0 / math.factorial(n - 1)

    def kernel(tau):
        arr = np.asarray(tau, dtype=float)
        return (t - arr) ** (n - 1) * np.asarray(evaluate(f, arr))

    raw, err, evals = adaptive_quadrature(kernel, 0.0, t, abs_tol, rel_tol, budget)
    return QuadratureResult(scale * raw, scale * err, "direct", evals)


def nested_integral_oracle(f: Integrand, n: int, t: float, resolution: int = 20_001) -> float:
    """Brute-force n-fold nested integration on a uniform grid (n in {1, 2, 3}).

    Repeated cumulative trapezoid integration; deliberately independent of the
    adaptive engine so it can validate cauchy_repeated.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"nested oracle supports n in {{1, 2, 3}}, got {n!r}")
    t = validate_horizon(t)
    if resolution < 3:
        raise DomainError(f"resolution must be >= 3, got {resolution}")
    grid = np.linspace(0.0, t, int(resolution))
    dx = grid[1] - grid[0]
    values = np.atleast_1d(np.asarray(evaluate(f, grid), dtype=float))
    for _ in range(n):
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * dx))
        )
        values = cumulative
    return float(values[-1])
