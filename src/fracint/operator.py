"""The order-alpha integral operator as a first-class object.

Wraps route dispatch, the closed-form power-function values, and operator
composition (the order-addition law I^a I^b = I^(a+b)).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .gamma import gamma
from .integrand import UNKNOWN, Integrand, evaluate
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL
from .engines import (
    METHODS,
    QuadratureResult,
    cavalieri_sum,
    direct_rl,
    stieltjes_sum,
    transformed_riemann,
)
from .transforms import make_transform, validate_horizon, validate_order

DEFAULT_SUM_N = 100_000
DEFAULT_COMPOSE_GRID = 256


def power_oracle(exponent: float, alpha: float, t: float, coefficient: float = 1.0) -> float:
    """Closed form for the power family: c * Gamma(p+1)/Gamma(p+1+alpha) * t**(p+alpha).

    Raises NumericalError when t**(p+alpha) or the product overflows.
    """
    p = float(exponent)
    if not np.isfinite(p) or p < 0:
        raise DomainError(f"power exponent must be finite and >= 0, got {p!r}")
    alpha = validate_order(alpha, allow_zero=True)
    t = validate_horizon(t)
    try:
        power = t ** (p + alpha)
    except OverflowError:
        raise NumericalError(f"t**(p+alpha) = {t:g}**{p + alpha:g} overflows") from None
    value = coefficient * gamma(p + 1.0) / gamma(p + 1.0 + alpha) * power
    if not math.isfinite(value):
        raise NumericalError(f"non-finite closed form {value!r} for p = {p:g} at t = {t:g}")
    return value


@dataclass(frozen=True)
class FractionalOperator:
    """Immutable operator of a fixed order with a configured numerical route.

    alpha = 0 is the tagged identity case: apply() returns f(t) without
    touching any quadrature machinery.
    """

    alpha: float
    route: str = "transformed"
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    budget: int = DEFAULT_BUDGET
    n: int = DEFAULT_SUM_N  # partition size for the sum routes

    def __post_init__(self):
        validate_order(self.alpha, allow_zero=True)
        if self.route not in METHODS:
            raise DomainError(f"unknown route {self.route!r}; choose one of {METHODS}")

    def apply(self, f: Integrand, t: float) -> QuadratureResult:
        t = validate_horizon(t)
        if self.alpha == 0.0:
            return QuadratureResult(float(evaluate(f, t)), 0.0, self.route, 1)
        if self.route == "oracle":
            if f.power is None:
                raise DomainError(
                    f"oracle route needs a power-family integrand, got {f.label!r}"
                )
            c, p = f.power
            return QuadratureResult(power_oracle(p, self.alpha, t, c), 0.0, "oracle", 1)
        if self.route == "direct":
            return direct_rl(f, self.alpha, t, self.budget, self.abs_tol, self.rel_tol)
        pair = make_transform(self.alpha, t)
        if self.route == "stieltjes":
            return stieltjes_sum(f, pair, self.n)
        if self.route == "cavalieri":
            return cavalieri_sum(f, pair, self.n)
        return transformed_riemann(f, pair, self.budget, self.abs_tol, self.rel_tol)


def chebyshev_nodes(count: int, upper: float) -> np.ndarray:
    """Chebyshev-Lobatto points on [0, upper], increasing, endpoints included."""
    if count < 2:
        raise DomainError(f"need at least 2 nodes, got {count}")
    j = np.arange(count)
    return upper * 0.5 * (1.0 - np.cos(np.pi * j / (count - 1)))


def not_a_knot_spline(x, y):
    """Cubic spline through (x, y), x increasing, with not-a-knot ends.

    The third derivative is continuous at x[1] and x[-2].  The knot slopes
    solve the tridiagonal system of de Boor, A Practical Guide to Splines
    (1978), ch. IV, by one Thomas sweep; evaluation is piecewise Horner,
    with the end pieces extended beyond [x[0], x[-1]].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 4 or len(y) != len(x):
        raise DomainError(f"a not-a-knot spline needs >= 4 matching nodes, got {len(x)}")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
    lower = np.concatenate(([0.0], dx[1:], [x[-1] - x[-3]]))
    diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
    upper = np.concatenate(([x[2] - x[0]], dx[:-1], [0.0]))
    rhs = np.empty_like(x)
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0] = ((dx[0] + 2.0 * upper[0]) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / upper[0]
    rhs[-1] = (
        dx[-1] ** 2 * slope[-2] + (2.0 * lower[-1] + dx[-1]) * dx[-2] * slope[-1]
    ) / lower[-1]
    # the sweep is sequential, and runs faster on Python floats than on numpy scalars
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, len(rhs)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(len(rhs) - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    s = np.array(rhs)  # the slope of the spline at each knot
    curvature = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c3, c2, c1, c0 = curvature / dx, (slope - s[:-1]) / dx - curvature, s[:-1], y[:-1]

    def spline(points):
        points = np.asarray(points, dtype=float)
        i = np.clip(np.searchsorted(x, points, side="right") - 1, 0, len(dx) - 1)
        h = points - x[i]
        return ((c3[i] * h + c2[i]) * h + c1[i]) * h + c0[i]

    return spline


def compose(
    op_outer: FractionalOperator,
    op_inner: FractionalOperator,
    f: Integrand,
    t: float,
    grid: int = DEFAULT_COMPOSE_GRID,
) -> float:
    """Evaluate op_outer applied to (op_inner applied to f) at t.

    The inner image is sampled on a Chebyshev grid, interpolated with a
    piecewise cubic, and fed to the outer operator.  By the order-addition
    law the result matches the single operator of order alpha + beta.
    """
    t = validate_horizon(t)
    total = op_outer.alpha + op_inner.alpha
    if total > 1.0 + 1e-12:
        raise DomainError(
            f"composed order {total:g} exceeds the supported domain (0, 1]"
        )
    # Identity on either side needs no interpolant.
    if op_inner.alpha == 0.0:
        return op_outer.apply(f, t).value
    if op_outer.alpha == 0.0:
        return op_inner.apply(f, t).value
    if grid < 64:
        raise DomainError(f"composition grid must be >= 64, got {grid}")

    nodes = chebyshev_nodes(grid, t)
    inner = np.empty_like(nodes)
    inner[0] = 0.0  # the inner integral vanishes at the base point
    for k in range(1, len(nodes)):
        inner[k] = op_inner.apply(f, nodes[k]).value
    if not np.all(np.isfinite(inner)):
        warnings.warn(
            "non-finite inner values degrade the composition interpolant",
            RuntimeWarning,
            stacklevel=2,
        )
        inner = np.nan_to_num(inner)

    spline = not_a_knot_spline(nodes, inner)
    interpolant = Integrand(
        fn=lambda x: spline(np.clip(x, 0.0, t)),
        monotone=UNKNOWN,
        label=f"interp[{f.label}]",
    )
    return op_outer.apply(interpolant, t).value
