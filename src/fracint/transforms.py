"""Transform pair turning the singular-kernel integral into bounded forms.

For order alpha in (0, 1] and horizon t > 0 the integrator

    g(tau) = (t**alpha - (t - tau)**alpha) / Gamma(alpha + 1)

maps [0, t] monotonically onto [0, t**alpha / Gamma(alpha + 1)], and its
inverse is

    h(x) = t - (t**alpha - Gamma(alpha + 1) * x) ** (1 / alpha).

On the axis u = t**alpha - Gamma(alpha + 1) * x, h is tau(u) = t - u**(1/alpha).
``TransformPair.tau`` is its one implementation: ``inverse`` places the strips
with it, and the adaptive core integrates f(tau(u)) over [0, t**alpha].

The strip boundaries derived from an increasing integrand f are translates
of one side, the parametric curve

    tau -> (tau - g(tau), f(tau)),    tau in [0, t],

moved right by i strip widths w = t**alpha / Gamma(alpha + 1) / n.  The
i-th reaches the curve y = f(x) at tau = h(i * w), where g(tau) = i * w, so
no inverse of f is needed to draw it.
"""

import math

import numpy as np

from .errors import DomainError
from .gamma import gamma

# tau's floor as a 0-d float64, so numpy converts no Python float on each call
_ZERO = np.zeros(())


def validate_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha!r}")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"order must lie in [0, 1], got {alpha:g}")
    return alpha


def validate_horizon(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"horizon must be finite and > 0, got {t!r}")
    return t


def validate_count(value, least: int, what: str) -> int:
    """The count ``value`` as an int: refused below ``least`` or if it is not whole."""
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    if value == math.inf or value % 1:  # numpy warns on inf's remainder; NaN's is NaN
        raise DomainError(f"{what} must be a whole number, got {value}")
    return int(value)


def _inside(values, upper: float, name: str) -> np.ndarray:
    """``values`` as a float array, refused unless each element is in [0, upper] +- 1e-12 * upper."""
    arr = np.asarray(values, dtype=float)
    slack = 1e-12 * upper
    # written as "every element inside", so that NaN, inside no interval, fails it
    if not ((arr >= -slack).all() and (arr <= upper + slack).all()):
        raise DomainError(f"{name} outside [0, {upper:g}]")
    return arr


class TransformPair:
    """Immutable forward/inverse transform bound to a fixed (alpha, t)."""

    __slots__ = ("alpha", "t", "gamma_alpha_plus_one", "width", "_t0")

    def __init__(self, alpha: float, t: float):
        self.alpha = validate_order(alpha)
        if self.alpha == 0.0:
            raise DomainError("order 0 is the identity operator; use the identity path")
        self.t = validate_horizon(t)
        # t as a 0-d float64 for tau; self.t stays the Python float its readers format
        self._t0 = np.array(self.t)
        self.gamma_alpha_plus_one = gamma(self.alpha + 1.0)
        # Total image width t**alpha / Gamma(alpha + 1); also the constant
        # horizontal offset between the strip boundary curves.
        self.width = self.t**self.alpha / self.gamma_alpha_plus_one

    def forward(self, tau):
        """g(tau) on [0, t]; strictly increasing.  A numpy value shaped like tau."""
        arr = np.clip(_inside(tau, self.t, "tau"), 0.0, self.t)
        t, a = self.t, self.alpha
        return (t**a - (t - arr) ** a) / self.gamma_alpha_plus_one

    def tau(self, u, out=None):
        """h on the u axis: t - u**(1/alpha), floored at 0, for u in [0, t**alpha].

        For u >= 0, u**(1/alpha) >= 0 and the difference never exceeds t, so it
        lies in [0, t] with no upper clip.  ``u`` is only read unless it is
        ``out``: given a float array ``out`` of u's shape, h is computed there,
        with the bits of the fresh result, and ``out`` is returned.
        """
        if out is None:
            # u is not wrapped in np.asarray, whose 0-d pow rounds a scalar u differently
            # the exponent stays a Python float: a 0-d one changes the bits of pow
            return np.maximum(self._t0 - u ** (1.0 / self.alpha), _ZERO)
        if out is not u:
            out[...] = u
        # **= takes the same scalar-exponent fast paths (square for 2, copy for 1) as **
        out **= 1.0 / self.alpha
        np.subtract(self._t0, out, out=out)
        return np.maximum(out, _ZERO, out=out)

    def inverse(self, x, out=None):
        """h(x) on [0, t**alpha / Gamma(alpha + 1)]; inverse of forward.

        Returns a numpy value shaped like x.  ``x`` is only read unless it is
        ``out``: given a float array ``out`` of x's shape, h(x) is computed
        there once x passes its range check, and ``out`` is returned.
        """
        arr = _inside(x, self.width, "x")
        if out is not None:
            u = np.multiply(self.gamma_alpha_plus_one, arr, out=out)
            np.subtract(self.t**self.alpha, u, out=u)
            return self.tau(np.maximum(u, 0.0, out=u), out=u)
        return self.tau(np.maximum(self.t**self.alpha - self.gamma_alpha_plus_one * arr, 0.0))

    def __repr__(self):
        return f"TransformPair(alpha={self.alpha:g}, t={self.t:g})"


def make_transform(alpha: float, t: float) -> TransformPair:
    """Build the transform pair; rejects alpha = 0 (degenerate identity case)."""
    return TransformPair(alpha, t)
