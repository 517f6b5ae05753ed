"""Frozen high-precision reference values, closed forms and a brute-force oracle.

The constants below were computed once with mpmath at 40 decimal digits and
frozen; they are deliberately independent of the library's own gamma and
quadrature code.  The closed-form helpers instantiate the analytic value of
the order-alpha integral for the two power families used throughout, and
``nested_integral_oracle`` integrates repeatedly on a uniform grid.
"""

import numpy as np

from fracint.errors import DomainError
from fracint.integrand import Integrand, evaluate
from fracint.transforms import validate_horizon

SQRT_PI = 1.772453850905516
FOUR_OVER_3SQRTPI = 0.7522527780636751  # order-1/2 integral of tau at t = 1

GAMMA_REF = {
    0.2: 4.590843711998803,
    0.4: 2.218159543757688,
    0.5: 1.772453850905516,
    0.6: 1.489192248812817,
    0.8: 1.1642297137253033,
    1.2: 0.9181687423997607,
    1.4: 0.8872638175030753,
    1.5: 0.886226925452758,
    1.7: 0.9086387328532904,
    1.8: 0.9313837709802427,
    1.9: 0.9617658319073874,
    2.1: 1.0464858468535605,
    2.2: 1.1018024908797128,
    2.3: 1.1667119051981603,
    2.5: 1.329340388179137,
    2.7: 1.5446858458505939,
    3.5: 3.3233509704478426,
}

# Closed-form coefficients: value = coef * t**(p + alpha) for f = tau (p = 1)
# and f = sqrt(tau) (p = 1/2).
COEF_LINEAR = {
    0.2: 0.9076036842152803,   # 25 / (6 * Gamma(1/5))
    0.4: 0.8050432128471626,   # 25 / (14 * Gamma(2/5))
    0.6: 0.6994843462938264,   # 25 / (24 * Gamma(3/5))
    0.8: 0.5964840411282413,   # 25 / (36 * Gamma(4/5))
}
COEF_SQRT = {
    0.2: 0.9753347435122479,   # sqrt(pi) / (2 * Gamma(17/10))
    0.4: 0.9214581097096998,   # sqrt(pi) / (2 * Gamma(19/10))
    0.6: 0.8468599246873252,   # sqrt(pi) / (2 * Gamma(21/10))
    0.8: 0.7595936250451106,   # sqrt(pi) / (2 * Gamma(23/10))
}

# Spot values for the transform pair and boundary curves.
G_AT5_ALPHA02_T10 = 0.22344861192254867    # (10^(1/5) - 5^(1/5)) / Gamma(6/5)
G_AT4_ALPHA05_T4 = 2.256758334191025       # 4^(1/2) / Gamma(3/2)
G_AT10_ALPHA04_T10 = 2.8310479723815334    # 10^(2/5) / Gamma(7/5)
A_AT_Y2_ALPHA05_T4 = 1.3390107874147055    # 2 - (2 - sqrt(2)) / Gamma(3/2)
SPAN_ALPHA08_T10 = 6.774407759071611       # 10^(4/5) / Gamma(9/5)

# Power-rule spot values Gamma(p+1)/Gamma(p+1+alpha) at t = 1.
POWER_P2_ALPHA05 = 0.6018022224509401      # Gamma(3) / Gamma(3.5)
POWER_P1_ALPHA07 = 0.6473808267786268      # Gamma(2) / Gamma(2.7)
POWER_P05_ALPHA07 = 0.8043428225917038     # Gamma(1.5) / Gamma(2.2)

ALPHA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
ALPHA_GRID_WITH_ZERO = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
HORIZON_GRID = (2.0, 4.0, 6.0, 8.0, 10.0)


def linear_closed_form(alpha: float, t: float) -> float:
    """Analytic order-alpha integral of f(tau) = tau."""
    if alpha == 0.0:
        return t
    if alpha == 0.5:
        return FOUR_OVER_3SQRTPI * t**1.5
    if alpha == 1.0:
        return 0.5 * t * t
    return COEF_LINEAR[alpha] * t ** (1.0 + alpha)


def sqrt_closed_form(alpha: float, t: float) -> float:
    """Analytic order-alpha integral of f(tau) = sqrt(tau)."""
    if alpha == 0.0:
        return t**0.5
    if alpha == 1.0:
        return (2.0 / 3.0) * t**1.5
    return COEF_SQRT[alpha] * t ** (0.5 + alpha)


def closed_form(family: str, alpha: float, t: float) -> float:
    return linear_closed_form(alpha, t) if family == "linear" else sqrt_closed_form(alpha, t)


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
