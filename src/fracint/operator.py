"""The order-alpha integral operator as a first-class object.

Wraps route dispatch, the closed-form power-function values, and operator
composition (the order-addition law I^a I^b = I^(a+b)).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .defaults import (
    DEFAULT_ABS_TOL,
    DEFAULT_BUDGET,
    DEFAULT_COMPOSE_GRID,
    DEFAULT_REL_TOL,
    DEFAULT_SUM_N,
    METHODS,
)
from .errors import DomainError, NumericalError
from .gamma import gamma
from .integrand import UNKNOWN, Integrand, evaluate
from .quadrature import check_adaptive_settings
from .engines import (
    QuadratureResult,
    cavalieri_sum,
    direct_rl,
    stieltjes_sum,
    transformed_riemann,
)
from .transforms import make_transform, validate_count, validate_horizon, validate_order

_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose exp is finite


def _log_gamma_ratio(x: float, a: float) -> float:
    """ln(Gamma(x) / Gamma(x + a)) for x >= 1 and 0 <= a <= 1.

    lgamma(x) - lgamma(x + a) cancels at large x (at x = 1e17 both round to
    one double), so there Stirling's series (z - 1/2) ln z - z + ln(2 pi)/2
    + 1/(12 z) - 1/(360 z^3) is differenced term by term; the first omitted
    term differs by less than 5e-15 for x >= 100.
    """
    if x < 100.0:
        return math.log(math.gamma(x) / math.gamma(x + a))

    def tail(z):
        return (1.0 / 12.0 - 1.0 / (360.0 * z * z)) / z

    return a - (x - 0.5) * math.log1p(a / x) - a * math.log(x + a) + tail(x) - tail(x + a)


def power_oracle(exponent: float, alpha: float, t: float, coefficient: float = 1.0) -> float:
    """Closed form for the power family: c * Gamma(p+1)/Gamma(p+1+alpha) * t**(p+alpha).

    Where a factor overflows, or t**(p+alpha) falls below the normal doubles
    and c is not 0, the same product is taken through logarithms,
    sign(c) * exp(ln|c| + ln(Gamma(p+1)/Gamma(p+1+alpha)) + (p+alpha) ln t).
    Raises NumericalError when the value itself overflows.
    """
    p = float(exponent)
    if not math.isfinite(p) or p < 0:
        raise DomainError(f"power exponent must be finite and >= 0, got {p!r}")
    alpha = validate_order(alpha)
    t = validate_horizon(t)
    try:  # gamma past about 171.62 raises DomainError, t**(p+alpha) past the largest double OverflowError
        power = t ** (p + alpha)
        value = coefficient * gamma(p + 1.0) / gamma(p + 1.0 + alpha) * power
    except (DomainError, OverflowError):
        power = value = math.inf
    # a factor overflowed (inf, or nan from inf * 0.0), or a subnormal or 0.0 power lost digits
    if not math.isfinite(value) or (coefficient and power < sys.float_info.min):
        log_c = math.log(abs(coefficient)) if coefficient else -math.inf
        log_value = log_c + _log_gamma_ratio(p + 1.0, alpha) + (p + alpha) * math.log(t)
        # past _LOG_MAX exp raises OverflowError; inf is refused below
        value = math.inf if log_value > _LOG_MAX else math.copysign(math.exp(log_value), coefficient)
    if not math.isfinite(value):
        raise NumericalError(
            f"non-finite closed form {value!r} for c = {coefficient:g}, p = {p:g} at t = {t:g}: "
            "it overflows a double"
        )
    return value


@dataclass(frozen=True)
class FractionalOperator:
    """Immutable operator of a fixed order with a configured numerical route.

    alpha = 0 is the tagged identity case: apply() returns f(t) without
    touching any quadrature machinery.  Any other order checks here what every
    apply of its route would: the adaptive tolerances and budget, or the sums' n.
    """

    alpha: float
    route: str = "transformed"
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    budget: int = DEFAULT_BUDGET
    n: int = DEFAULT_SUM_N  # partition size for the sum routes

    def __post_init__(self):
        validate_order(self.alpha)
        if self.route not in METHODS:
            raise DomainError(f"unknown route {self.route!r}; choose one of {METHODS}")
        if self.alpha != 0.0 and self.route in ("transformed", "direct"):
            check_adaptive_settings(self.abs_tol, self.rel_tol, self.budget)
        elif self.alpha != 0.0 and self.route in ("stieltjes", "cavalieri"):
            validate_count(self.n, 1, "partition size")

    def apply(self, f: Integrand, t: float) -> QuadratureResult:
        # the numeric routes validate t once, where they build the transform pair;
        # the default route is tested first, and every engine is called through its
        # module-level name, which a tracer may rebind
        route = self.route
        if self.alpha == 0.0:
            return QuadratureResult(float(evaluate(f, validate_horizon(t))), 0.0, route, 1)
        if route == "transformed":
            return transformed_riemann(
                f, make_transform(self.alpha, t), self.budget, self.abs_tol, self.rel_tol
            )
        if route == "direct":
            return direct_rl(f, self.alpha, t, self.budget, self.abs_tol, self.rel_tol)
        if route == "oracle":
            t = validate_horizon(t)
            if f.power is None:
                raise DomainError(f"oracle route needs a power-family integrand, got {f.label!r}")
            c, p = f.power
            return QuadratureResult(power_oracle(p, self.alpha, t, c), 0.0, "oracle", 1)
        pair = make_transform(self.alpha, t)
        if route == "stieltjes":
            return stieltjes_sum(f, pair, self.n)
        return cavalieri_sum(f, pair, self.n)


def chebyshev_nodes(count: int, upper: float) -> np.ndarray:
    """Chebyshev-Lobatto points on [0, upper], increasing, endpoints included."""
    count = validate_count(count, 2, "node count")
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
    # overflow shows as a non-finite coefficient, refused below
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not np.all(np.isfinite([c3, c2, c1, c0])):
        raise NumericalError(
            f"not-a-knot spline through {len(x)} nodes has non-finite coefficients"
        )

    interior = x[1:-1]

    def spline(points):
        points = np.asarray(points, dtype=float)
        # the piece holding each point is the count of interior knots at or below it,
        # so points past either end fall on the end pieces
        i = np.searchsorted(interior, points, side="right")
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
    grid = validate_count(grid, 64, "composition grid")
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

    nodes = chebyshev_nodes(grid, t)
    # the inner integral vanishes at the base point; each value is finite, or apply raises
    inner = [0.0] + [op_inner.apply(f, x).value for x in nodes[1:].tolist()]

    spline = not_a_knot_spline(nodes, inner)
    # every abscissa an outer route evaluates is tau(u) or a partition point, in [0, t]
    interpolant = Integrand(fn=spline, monotone=UNKNOWN, label=f"interp[{f.label}]")
    return op_outer.apply(interpolant, t).value
