"""Strip geometry: the region whose area equals the order-alpha integral.

A geometry holds n+1 boundary polylines, the per-strip areas f(x2_i) * width/n
(``strip_areas``, whose total is the strip sum), and the region outline (the
integrand curve plus the rightmost boundary).  Boundary i is the side, the
parametric curve tau -> (tau - g(tau), f(tau)), moved right by i * width/n and
cut where it meets the integrand curve, at tau = x2_i.  Every curve is sampled
at even tau steps, so drawing one needs f but no inverse of it.  It is
geometry only: the region's exact area is the operator's value,
FractionalOperator(alpha).apply.  Every order, 0 included, goes through one
builder that checks the sample count and the integrand once.
"""

from dataclasses import dataclass

import numpy as np

from .engines import make_partition, strip_areas
from .errors import DomainError, NonMonotoneError, NumericalError
from .integrand import INCREASING, Integrand, evaluate
from .transforms import TransformPair, validate_count, validate_horizon, validate_order


@dataclass(frozen=True)
class StripGeometry:
    alpha: float
    t: float
    n: int
    samples_per_curve: int
    width: float          # total horizontal span t**alpha / Gamma(alpha+1)
    strip_width: float    # width / n
    boundaries: tuple     # n+1 clipped polylines, each an (m_i, 2) array of (x, y)
    heights: np.ndarray   # f(x2_i), where boundary i meets the curve, length n+1
    strip_areas: np.ndarray
    region_outline: np.ndarray  # integrand curve ascending, right edge descending

    @property
    def strip_area_sum(self) -> float:
        return float(np.sum(self.strip_areas))


@dataclass(frozen=True)
class TranslationReport:
    max_translation_deviation: float


def _assemble(f, alpha, t, width, n, side, x2, samples) -> StripGeometry:
    """n strips of width width/n: boundary i is (side(tau) + i * width/n, f(tau)), cut at x2_i."""
    samples = validate_count(samples, 2, "samples per curve")
    if f.monotone != INCREASING:
        raise NonMonotoneError(
            f"strip geometry needs a strictly increasing integrand, got {f.label!r}"
        )
    taus = np.linspace(0.0, t, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = evaluate(f, taus)
    f0, ft = float(ys[0]), float(ys[-1])
    if not np.isfinite(ft):
        raise NumericalError(f"integrand value f({t:g}) = {ft!r} is not finite")
    if abs(f0) > 1e-12 * max(1.0, abs(ft)):
        raise DomainError(f"integrand must vanish at 0, got f(0) = {f0:g}")
    heights = evaluate(f, x2)
    strip_width = width / n
    # each area is at most the integral over its strip, so an overflow here is the value's
    with np.errstate(over="ignore"):
        areas = strip_areas(heights[:n], width, n)
    if not np.isfinite(areas).all():
        i = int(np.argmin(np.isfinite(areas)))
        raise NumericalError(f"area of strip {i} = {heights[i]:g} * {strip_width:g} is not finite")

    # boundary i keeps the grid rows tau < x2_i and closes where the side reaches x2_i: on
    # the curve, at (x2_i, f(x2_i)), since g(x2_i) = i * width/n; at order 0, where g = 0
    # and the side is the curve itself, i * width/n to its right
    xs = side(taus)
    ends = x2 + strip_width * np.arange(n + 1) if alpha == 0.0 else x2
    boundaries = []
    for i, k in enumerate(np.searchsorted(taus, x2)):
        pts = np.empty((k + 1, 2))
        pts[:k, 0] = xs[:k] + i * strip_width
        pts[:k, 1] = ys[:k]
        pts[k] = ends[i], heights[i]
        boundaries.append(pts)

    curve = np.column_stack((taus, ys))
    edge = boundaries[-1][::-1]
    outline = np.vstack((curve, edge[1:]))

    return StripGeometry(
        alpha=alpha,
        t=t,
        n=n,
        samples_per_curve=samples,
        width=width,
        strip_width=strip_width,
        boundaries=tuple(boundaries),
        heights=heights,
        strip_areas=areas,
        region_outline=outline,
    )


def build_strips(
    f: Integrand,
    pair: TransformPair,
    n: int,
    samples_per_curve: int = 200,
) -> StripGeometry:
    """Decompose the region for (f, alpha, t) into n equal-width strips.

    Boundary i is the side tau -> (tau - g(tau), f(tau)) shifted right by
    i * width/n and sampled at ``samples_per_curve`` even tau steps below x2_i,
    the image of the i-th partition point; it ends where it meets the integrand
    curve, at (x2_i, f(x2_i)).
    """
    x2 = make_partition(pair, n)
    return _assemble(
        f, pair.alpha, pair.t, pair.width, int(n),
        lambda taus: taus - pair.forward(taus), x2, samples_per_curve,
    )


def region_family(
    f: Integrand,
    alphas,
    horizons,
    samples: int = 200,
) -> list:
    """One single-strip geometry per (alpha, t): region outline plus right edge.

    Each region's area is FractionalOperator(alpha).apply(f, t).value.
    """
    alphas = [validate_order(a) for a in np.atleast_1d(alphas)]
    horizons = [validate_horizon(t) for t in np.atleast_1d(horizons)]
    if not alphas or not horizons:
        raise DomainError("need at least one order and one horizon")
    family = []
    for alpha in alphas:
        for t in horizons:
            if alpha == 0.0:
                # order 0: the side is the integrand curve itself, x = tau, and the span is 1
                family.append(
                    _assemble(f, 0.0, t, 1.0, 1, lambda taus: taus, np.array([0.0, t]), samples)
                )
            else:
                family.append(build_strips(f, TransformPair(alpha, t), 1, samples))
    return family


def translate_check(geom: StripGeometry) -> TranslationReport:
    """Quantify the translation structure of a geometry.

    Reports the worst deviation of adjacent boundaries from the constant strip
    offset at the tau steps they share.
    """
    deviation = 0.0
    for i in range(geom.n):
        # the grid rows of boundary i, all but its closing point, begin boundary i + 1 too
        p = geom.boundaries[i][:-1]
        q = geom.boundaries[i + 1][: len(p)]
        offsets = np.abs((q[:, 0] - p[:, 0]) - geom.strip_width)
        deviation = max(deviation, float(np.max(offsets, initial=0.0)))
    return TranslationReport(deviation)
