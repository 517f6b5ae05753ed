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
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .integrand import Integrand, evaluate
from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_BUDGET,
    DEFAULT_REL_TOL,
    adaptive_quadrature,
)
from .transforms import TransformPair, make_transform, validate_horizon

METHODS = ("direct", "stieltjes", "cavalieri", "transformed", "oracle")


@dataclass(frozen=True)
class QuadratureResult:
    """Value plus the bookkeeping needed to compare routes.

    Raises NumericalError unless the value and its error estimate are finite,
    so no route returns an overflowed total.
    """

    value: float
    error_estimate: float
    method: str
    evaluations: int
    n: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise NumericalError(
                f"non-finite {self.method} result {self.value!r} "
                f"(error estimate {self.error_estimate!r})"
            )
        if self.error_estimate < 0:
            raise DomainError("error estimate must be >= 0")
        if self.evaluations <= 0:
            raise DomainError("evaluation count must be positive")


class Partition(NamedTuple):
    """Equal-width points on the transformed axis and their images under h.

    ``transformed`` lives on [0, t**alpha / Gamma(alpha+1)] and ``tau`` on
    [0, t], with tau[i] = h(transformed[i]).
    """

    transformed: np.ndarray
    tau: np.ndarray


def make_partition(pair: TransformPair, n: int) -> Partition:
    """The strip layout of the strip sums and the strip geometry: n equal widths."""
    if n < 1:
        raise DomainError(f"partition size must be >= 1, got {n}")
    x1 = np.linspace(0.0, pair.width, int(n) + 1)
    # the points i * (width / n) increase strictly unless the step underflows
    # or the last interior point rounds up to the end
    if not (x1[1] > 0.0 and x1[-1] > x1[-2]):
        raise DomainError("transformed-axis points must be strictly increasing")
    return Partition(transformed=x1, tau=pair.inverse(x1))


def _adaptive_core(f, pair, budget, abs_tol, rel_tol, method) -> QuadratureResult:
    """int_0^{g(t)} f(h(x)) dx as int_0^{t**alpha} f(pair.tau(u)) du / Gamma(alpha+1)."""
    raw, err, evals = adaptive_quadrature(
        lambda u: evaluate(f, pair.tau(u)), 0.0, pair.t**pair.alpha, abs_tol, rel_tol, budget
    )
    scale = 1.0 / pair.gamma_alpha_plus_one
    return QuadratureResult(scale * raw, scale * err, method, evals)


def _strip_sum(f, pair, n, method) -> QuadratureResult:
    """Left-endpoint strip sum: sum f(h(x1_i)) * (x1_{i+1} - x1_i).

    The error estimate compares it with the sum over every second point
    (plus the right end when n is odd).
    """
    part = make_partition(pair, n)
    x1 = part.transformed
    heights = np.atleast_1d(np.asarray(evaluate(f, part.tau[:-1])))
    with np.errstate(over="ignore", invalid="ignore"):  # QuadratureResult refuses a non-finite sum
        value = float(np.dot(heights, np.diff(x1)))
        if len(heights) > 1:
            err = abs(value - float(np.dot(heights[::2], np.diff(np.append(x1[:-1:2], x1[-1])))))
        else:
            err = abs(value)
    return QuadratureResult(value, err, method, int(n), n=int(n))


def _kernel_form(f, k, t, budget, abs_tol, rel_tol) -> QuadratureResult:
    """(1/Gamma(k)) int_0^t (t - tau)**(k-1) f(tau) dtau, the raw kernel form.

    The weight is ((t - tau)/t)**(k-1), at most 1 for k >= 1, and the factor
    t**(k-1)/Gamma(k) goes into the scale through logarithms, so neither
    overflows before the two meet.
    """

    def kernel(tau):
        arr = np.asarray(tau, dtype=float)
        diff = t - arr
        vals = np.asarray(evaluate(f, arr))
        # node rounding can land exactly on t; the point has measure zero
        with np.errstate(divide="ignore", over="ignore"):
            weight = np.where(diff > 0.0, diff / t, 1.0) ** (k - 1.0)
        return np.where(diff > 0.0, weight * vals, 0.0)

    with np.errstate(over="ignore"):  # an overflowing scale is inf, which QuadratureResult refuses
        scale = float(np.exp((k - 1.0) * math.log(t) - math.lgamma(k)))
    raw, err, evals = adaptive_quadrature(kernel, 0.0, t, abs_tol, rel_tol, budget)
    return QuadratureResult(scale * raw, scale * err, "direct", evals)


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
    pair = make_transform(alpha, t)
    if substitute:
        return _adaptive_core(f, pair, budget, abs_tol, rel_tol, "direct")
    return _kernel_form(f, pair.alpha, pair.t, budget, abs_tol, rel_tol)


def stieltjes_sum(f: Integrand, pair: TransformPair, n: int) -> QuadratureResult:
    """Left-endpoint sum of f against the integrator: sum f(x2_i) * (g(x2_{i+1}) - g(x2_i)).

    g(x2_i) is the transformed-axis point x1_i, so this is the strip sum.
    """
    return _strip_sum(f, pair, n, "stieltjes")


def cavalieri_sum(f: Integrand, pair: TransformPair, n: int) -> QuadratureResult:
    """Equal-width strip sum on the transformed axis: sum f(h(x1_i)) * dx1."""
    return _strip_sum(f, pair, n, "cavalieri")


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
    return _adaptive_core(f, pair, budget, abs_tol, rel_tol, "transformed")


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

    (n-1)! is never formed, so any n >= 1 works; a result below the smallest
    double comes back as 0.0, the nearest double (e.g. n = 1000 with t = 1).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"repetition count must be a positive integer, got {n!r}")
    return _kernel_form(f, n, validate_horizon(t), budget, abs_tol, rel_tol)


def nested_integral_oracle(f: Integrand, n: int, t: float) -> float:
    """Brute-force n-fold nested integration on 20 001 uniform points (n in {1, 2, 3}).

    Repeated cumulative trapezoid integration; deliberately independent of the
    adaptive engine so it can validate cauchy_repeated.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"nested oracle supports n in {{1, 2, 3}}, got {n!r}")
    t = validate_horizon(t)
    grid = np.linspace(0.0, t, 20_001)
    dx = grid[1] - grid[0]
    values = np.atleast_1d(np.asarray(evaluate(f, grid), dtype=float))
    for _ in range(n):
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * dx))
        )
        values = cumulative
    return float(values[-1])
