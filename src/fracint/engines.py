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
strip-sum core, which totals the strip areas the geometry draws.  ``compare``
checks the adaptive core against the strip sum.  ``cauchy_repeated`` integrates
the integer-order kernel form directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL, METHODS
from .errors import DomainError, NumericalError
from .integrand import Integrand, evaluate
from .quadrature import adaptive_quadrature
from .transforms import TransformPair, make_transform, validate_count, validate_horizon

# strips whose heights a sum evaluates at once: 64 KiB of doubles, which stay in L2
# and below glibc's default 128 KiB mmap threshold, so they reuse freed heap pages
_BLOCK = 8192


@dataclass(frozen=True, init=False)
class QuadratureResult:
    """Value plus the bookkeeping needed to compare routes.

    Raises NumericalError unless the value and its error estimate are finite,
    so no route returns an overflowed total.

    Only ``__init__`` is written by hand, since every adaptive ``apply`` builds
    one: it checks its arguments and then writes the instance ``__dict__`` once,
    where the generated one sets each field through ``object.__setattr__`` and
    then checks them.  The frozen fields, ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace``, which calls ``__init__``, are the dataclass's own.
    """

    value: float
    error_estimate: float
    method: str
    evaluations: int

    def __init__(self, value: float, error_estimate: float, method: str, evaluations: int):
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}")
        if not (math.isfinite(value) and math.isfinite(error_estimate)):
            raise NumericalError(
                f"non-finite {method} result {value!r} (error estimate {error_estimate!r})"
            )
        if error_estimate < 0:
            raise DomainError("error estimate must be >= 0")
        if evaluations <= 0:
            raise DomainError("evaluation count must be positive")
        self.__dict__.update(
            value=value, error_estimate=error_estimate, method=method, evaluations=evaluations
        )


def make_partition(pair: TransformPair, n: int) -> np.ndarray:
    """The n+1 tau abscissae x2_i = h(i * width/n) of n equal-width strips.

    The result is one fresh array that the caller owns and may overwrite: h is
    computed in the buffer that holds the points i * width/n.
    """
    x1 = np.linspace(0.0, pair.width, validate_count(n, 1, "partition size") + 1)
    # the points i * (width / n) increase strictly unless the step underflows
    # or the last interior point rounds up to the end
    if not (x1[1] > 0.0 and x1[-1] > x1[-2]):
        raise DomainError("transformed-axis points must be strictly increasing")
    return pair.inverse(x1, out=x1)


def strip_areas(heights: np.ndarray, width: float, n: int, out=None) -> np.ndarray:
    """Areas f(x2_i) * width/n: the one strip-area formula, of the geometry and both sums.

    Written into ``out`` when given; ``heights`` is only read.
    """
    return np.multiply(heights, width / n, out=out)


def _adaptive_core(f, pair, budget, abs_tol, rel_tol, method) -> QuadratureResult:
    """int_0^{g(t)} f(h(x)) dx as int_0^{t**alpha} f(pair.tau(u)) du / Gamma(alpha+1).

    ``f.fn`` and ``pair.tau`` are bound once per call, so each evaluation is
    two calls, with no ``Integrand.__call__`` and no attribute lookup between
    them.  adaptive_quadrature's evaluate checks f's output, so f is called directly.
    """
    raw, err, evals = adaptive_quadrature(
        lambda u, fn=f.fn, tau=pair.tau: fn(tau(u)),
        0.0, pair.t**pair.alpha, abs_tol, rel_tol, budget,
    )
    scale = 1.0 / pair.gamma_alpha_plus_one
    return QuadratureResult(scale * raw, scale * err, method, evals)


def _strip_sum(f, pair, n, method) -> QuadratureResult:
    """Left-endpoint strip sum: the total of strip_areas(f(x2_i), width, n).

    The error estimate compares it with the sum over every second strip at
    twice the width (the last strip once when n is odd).  A zero total of zero
    areas is refused if the heights' total times the strip width is not 0.0:
    every area underflowed, though the sum has a nearest non-zero double.
    """
    # the partition is this sum's own buffer: each block of it is overwritten by its
    # areas, while the block's heights are f's (its input, a view of it or an array
    # it keeps), so they are only read; it refuses n before n is taken as an int
    areas = make_partition(pair, n)[:-1]
    n = int(n)
    with np.errstate(over="ignore", invalid="ignore"):  # QuadratureResult refuses a non-finite sum
        for start in range(0, n, _BLOCK):
            block = areas[start:start + _BLOCK]
            strip_areas(evaluate(f, block), pair.width, n, out=block)
        value = float(np.sum(areas))
        coarse = 2.0 * float(np.sum(areas[::2])) - (float(areas[-1]) if n % 2 else 0.0)
        if value == 0.0 and not areas.any():
            del areas, block  # the check makes its own partition; one is alive at a time
            _refuse_underflowed_areas(f, pair, n, method)
    return QuadratureResult(value, abs(value - coarse) if n > 1 else abs(value), method, n)


def _refuse_underflowed_areas(f, pair, n, method):
    """Raise NumericalError unless the heights' total, taken as one strip area, is 0.0.

    ``_strip_sum`` calls this when every area is 0.0.  That one area is 0.0
    where f is 0 on the partition, or where the sum lies below the smallest
    double, whose nearest double is then 0.0.
    """
    heights = make_partition(pair, n)[:-1]
    total = 0.0
    for start in range(0, n, _BLOCK):
        total += float(np.sum(evaluate(f, heights[start:start + _BLOCK])))
    lost = float(strip_areas(total, pair.width, n))
    if lost != 0.0:
        raise NumericalError(f"every {method} strip area underflows to 0, "
                             f"though their total is about {lost:.3g}")


def direct_rl(
    f: Integrand,
    alpha: float,
    t: float,
    budget: int = DEFAULT_BUDGET,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """Kernel-form route: (1/Gamma(alpha)) int_0^t (t-tau)**(alpha-1) f(tau) dtau.

    The change of variable u = (t - tau)**alpha turns the weighted measure into
    du / (alpha * Gamma(alpha)) and leaves a bounded integrand: the adaptive core.
    """
    return _adaptive_core(f, make_transform(alpha, t), budget, abs_tol, rel_tol, "direct")


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


def cauchy_repeated(f: Integrand, n: int, t: float) -> QuadratureResult:
    """n-th antiderivative based at 0 through the single polynomial-kernel integral.

    (1/(n-1)!) int_0^t (t - tau)**(n-1) f(tau) dtau

    The weight is ((t - tau)/t)**(n-1), at most 1, and the factor
    t**(n-1)/(n-1)! goes into the scale through logarithms, so neither
    overflows before the two meet.  (n-1)! is never formed, so any n >= 1
    works; a result below the smallest double comes back as 0.0, the nearest
    double (e.g. n = 1000 with t = 1).
    """
    n = validate_count(n, 1, "repetition count")
    t = validate_horizon(t)

    def kernel(tau):
        diff = t - tau
        vals = evaluate(f, tau)
        # node rounding can land exactly on t; the point has measure zero
        with np.errstate(divide="ignore", over="ignore"):
            weight = np.where(diff > 0.0, diff / t, 1.0) ** (n - 1.0)
        return np.where(diff > 0.0, weight * vals, 0.0)

    with np.errstate(over="ignore"):  # an overflowing scale is inf, which QuadratureResult refuses
        scale = float(np.exp((n - 1.0) * math.log(t) - math.lgamma(n)))
    raw, err, evals = adaptive_quadrature(kernel, 0.0, t)
    return QuadratureResult(scale * raw, scale * err, "direct", evals)
