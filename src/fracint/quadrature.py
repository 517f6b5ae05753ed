"""Adaptive Gauss-Kronrod quadrature and generic Stieltjes/Cavalieri forms.

The adaptive engine is a 15-point Kronrod rule with embedded 7-point Gauss
estimate, interval bisection, and a hard evaluation budget.  All nodes are
interior, so integrable endpoint singularities never get sampled at the
endpoint itself.  Everything here is deterministic: same inputs, same bits.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

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


def _panel(fn, lo: float, hi: float):
    """One Kronrod-15 panel: returns (integral, error estimate).

    Raises NumericalError when the sums are not finite, so that no NaN or
    infinity reaches the adaptive total.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center + half * _KRONROD_NODES
    fx = evaluate(fn, x)
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
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi < lo:
        raise DomainError(f"inverted integration interval [{lo:g}, {hi:g}]")
    if hi == lo:
        return 0.0, 0.0, 0
    if budget < 15:
        raise DomainError(f"budget {budget} cannot pay for a single panel")

    value, err = _panel(fn, lo, hi)
    evaluations = 15
    segments = [(lo, hi, value, err)]
    min_width = 1e-15 * (hi - lo)

    while True:
        total = math.fsum(s[2] for s in segments)
        total_err = math.fsum(s[3] for s in segments)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, evaluations
        # deterministic worst-first selection: largest error, earliest wins ties
        worst = max(range(len(segments)), key=lambda i: (segments[i][3], -i))
        s_lo, s_hi, _, s_err = segments[worst]
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
        mid = 0.5 * (s_lo + s_hi)
        left = _panel(fn, s_lo, mid)
        right = _panel(fn, mid, s_hi)
        evaluations += 30
        segments[worst] = (s_lo, mid, left[0], left[1])
        segments.append((mid, s_hi, right[0], right[1]))


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
    x-axis footprint [left(0), left(0) + width].
    """

    f: Callable
    left: Callable
    width: float
    bracket: Optional[tuple] = None  # search interval for the side/top corners

    @property
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

    def _corner_bracket(self):
        if self.bracket is not None:
            return float(self.bracket[0]), float(self.bracket[1])
        a0, b0 = self.footprint
        span = abs(self.width) + abs(a0) + abs(b0) + 1.0
        return min(0.0, a0) - span, b0 + span

    @property
    def lower_abscissa(self) -> float:
        """x where the left side meets f (solves g(x) = left(0))."""
        a0, _ = self.footprint
        lo, hi = self._corner_bracket()
        return bisect_monotone(self.integrator, a0, lo, hi)

    @property
    def upper_abscissa(self) -> float:
        """x where the right side meets f (solves g(x) = left(0) + width)."""
        _, b0 = self.footprint
        lo, hi = self._corner_bracket()
        return bisect_monotone(self.integrator, b0, lo, hi)

    def inverse(self, x):
        """h = g^{-1}, found by bisection between the corner abscissae."""
        return bisect_monotone(self.integrator, x, self.lower_abscissa, self.upper_abscissa)

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
        if n < 1:
            raise DomainError(f"strip count must be >= 1, got {n}")
        a0, b0 = self.footprint
        x1 = np.linspace(a0, b0, int(n) + 1)
        x2 = self.inverse(x1[:-1])
        heights = np.atleast_1d(np.asarray(evaluate(self.f, x2)))
        return float(np.dot(heights, np.diff(x1)))
