"""Adaptive Gauss-Kronrod quadrature and generic Stieltjes/Cavalieri forms.

The adaptive engine is a 15-point Kronrod rule with embedded 7-point Gauss
estimate, interval bisection, and a hard evaluation budget.  Each bisection
makes one integrand call on the 30 nodes of both halves, and decides exactly
as one call per half would: same panels, same values, same bits.  All nodes
are interior, so integrable endpoint singularities never get sampled at the
endpoint itself.  Everything here is deterministic: same inputs, same bits.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BudgetExhaustedError, DomainError, NumericalError
from .integrand import bisect_monotone, evaluate

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_BUDGET = 10_000

# 15-point Kronrod nodes on [-1, 1]; odd indices are the embedded Gauss-7 nodes.
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _kronrod(fx, lo: float, hi: float):
    """Kronrod-15 sum and error estimate from the 15 samples fx of [lo, hi].

    Raises NumericalError when the sums are not finite, so that no NaN or
    infinity reaches the adaptive total.
    """
    half = 0.5 * (hi - lo)
    resk = half * float(np.dot(_KRONROD_WEIGHTS, fx))
    resg = half * float(np.dot(_GAUSS_WEIGHTS, fx[1::2]))
    err = abs(resk - resg)
    if not math.isfinite(err):  # any NaN or infinite sample makes the Kronrod sum non-finite
        raise NumericalError(f"non-finite integrand sum on the panel [{lo:g}, {hi:g}]")
    # QUADPACK-style rescaling against the variation of f on the panel.
    mean = resk / (hi - lo) if hi != lo else 0.0
    resasc = half * float(np.dot(_KRONROD_WEIGHTS, np.abs(fx - mean)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _nodes(lo: float, hi: float):
    """The 15 Kronrod abscissae of [lo, hi]."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _KRONROD_NODES


def _panel(fn, lo: float, hi: float):
    """One Kronrod-15 panel: returns (integral, error estimate)."""
    return _kronrod(evaluate(fn, _nodes(lo, hi)), lo, hi)


def adaptive_quadrature(
    fn: Callable,
    lo: float,
    hi: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    budget: int = DEFAULT_BUDGET,
):
    """Integrate fn on [lo, hi] by adaptive bisection of Kronrod-15 panels.

    Returns (value, error_estimate, evaluations).  Raises
    BudgetExhaustedError (carrying the best value so far) when the budget
    would be exceeded before the tolerance is met, and NumericalError as
    soon as a panel's sum or error estimate, and so the total, is not finite.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi < lo:
        raise DomainError(f"inverted integration interval [{lo:g}, {hi:g}]")
    if not (abs_tol >= 0.0 and rel_tol >= 0.0):  # also refuses NaN
        raise DomainError(f"tolerances must be >= 0, got abs_tol={abs_tol!r}, rel_tol={rel_tol!r}")
    if hi == lo:
        return 0.0, 0.0, 0
    if budget < 15:
        raise DomainError(f"budget {budget} cannot pay for a single panel")

    value, err = _panel(fn, lo, hi)
    evaluations = 15
    # the panels, as parallel lists in the order they were made
    los, his, values, errors = [lo], [hi], [value], [err]
    min_width = 1e-15 * (hi - lo)

    while True:
        total = math.fsum(values)
        total_err = math.fsum(errors)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, evaluations
        # deterministic worst-first selection: largest error, earliest wins ties
        worst = errors.index(max(errors))
        s_lo, s_hi = los[worst], his[worst]
        if s_hi - s_lo <= min_width:
            # cannot resolve further in double precision; report what we have
            return total, total_err, evaluations
        if evaluations + 30 > budget:
            raise BudgetExhaustedError(
                f"evaluation budget {budget} exhausted (error estimate {total_err:.3e})",
                value=total,
                error_estimate=total_err,
                evaluations=evaluations,
            )
        # both halves in one integrand call; each keeps its own 1-D dot products,
        # since a 2-D product can round the last bit differently
        mid = 0.5 * (s_lo + s_hi)
        fx = evaluate(fn, np.concatenate((_nodes(s_lo, mid), _nodes(mid, s_hi))))
        left_value, left_err = _kronrod(fx[:15], s_lo, mid)
        right_value, right_err = _kronrod(fx[15:], mid, s_hi)
        evaluations += 30
        his[worst], values[worst], errors[worst] = mid, left_value, left_err
        los.append(mid)
        his.append(s_hi)
        values.append(right_value)
        errors.append(right_err)


def stieltjes_riemann_sum(f, g, lower: float, upper: float, n: int) -> float:
    """Left-endpoint Riemann-Stieltjes sum of f against integrator g.

    sum_{i=0}^{n-1} f(x_i) * (g(x_{i+1}) - g(x_i)) on a uniform partition.
    """
    if n < 1:
        raise DomainError(f"partition size must be >= 1, got {n}")
    x = np.linspace(float(lower), float(upper), int(n) + 1)
    gx = evaluate(g, x)
    fx = evaluate(f, x[:-1])
    return float(np.dot(np.atleast_1d(fx), np.diff(np.atleast_1d(gx))))


def stieltjes_integral(
    f,
    g_prime,
    lower: float,
    upper: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Riemann-Stieltjes integral via the differentiable-integrator identity.

    int f dg = int f(x) g'(x) dx, evaluated by the adaptive engine.
    """
    def weighted(x):
        return np.asarray(evaluate(f, x)) * np.asarray(evaluate(g_prime, x))

    value, _, _ = adaptive_quadrature(weighted, lower, upper, abs_tol, rel_tol, budget)
    return value


@dataclass(frozen=True)
class CavalieriRegion:
    """A region bounded below by the x-axis, above by y = f(x), and on the
    sides by x = left(y) and its horizontal translate left(y) + width.

    The equivalent integrator is g(x) = x - left(f(x)) + left(0), which maps
    the curvilinear abscissae [lower_abscissa, upper_abscissa] onto the
    x-axis footprint [left(0), left(0) + width].  The footprint and both
    corners are found once per region; ``inverse`` bisects between them.
    """

    f: Callable
    left: Callable
    width: float

    @cached_property
    def footprint(self):
        a0 = float(evaluate(self.left, 0.0))
        return a0, a0 + self.width

    def integrator(self, x):
        a0, _ = self.footprint
        arr = np.asarray(x, dtype=float)
        out = arr - np.asarray(evaluate(self.left, evaluate(self.f, arr))) + a0
        if np.asarray(x).ndim == 0:
            return float(out)
        return out

    @cached_property
    def _corners(self):
        # one bisection for both ends of the footprint, on a bracket that holds them
        a0, b0 = self.footprint
        span = abs(self.width) + abs(a0) + abs(b0) + 1.0
        lower, upper = bisect_monotone(self.integrator, [a0, b0], min(0.0, a0) - span, b0 + span)
        return float(lower), float(upper)

    @property
    def lower_abscissa(self) -> float:
        """x where the left side meets f (solves g(x) = left(0))."""
        return self._corners[0]

    @property
    def upper_abscissa(self) -> float:
        """x where the right side meets f (solves g(x) = left(0) + width)."""
        return self._corners[1]

    def inverse(self, x):
        """h = g^{-1}, found by bisection between the corner abscissae."""
        return bisect_monotone(self.integrator, x, *self._corners)

    def area(
        self,
        abs_tol: float = DEFAULT_ABS_TOL,
        rel_tol: float = DEFAULT_REL_TOL,
        budget: int = DEFAULT_BUDGET,
    ) -> float:
        """Region area through the bounded Riemann form int f(h(x)) dx."""
        a0, b0 = self.footprint

        def composed(x):
            return evaluate(self.f, self.inverse(x))

        value, _, _ = adaptive_quadrature(composed, a0, b0, abs_tol, rel_tol, budget)
        return value

    def lower_sum(self, n: int) -> float:
        """Left-endpoint strip sum: sum f(h(x_i)) * dx over n equal-width strips."""
        a0, b0 = self.footprint
        return stieltjes_riemann_sum(
            lambda x: evaluate(self.f, self.inverse(x)), lambda x: x, a0, b0, n
        )
