"""Strip geometry: the region whose area equals the order-alpha integral.

A geometry holds n+1 boundary polylines (horizontal translates of the left
boundary curve, clipped against the integrand curve), the per-strip areas
f(x2_i) * dx1 of the equal-width strip decomposition, and the region outline
(the integrand curve plus the rightmost boundary).  It is geometry only: the
region's exact area is the operator's value, FractionalOperator(alpha).apply.
Every order, 0 included, goes through one builder that checks the sample
count and the integrand once.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .engines import make_partition
from .errors import DomainError, IncompatibleSamplingError, NonMonotoneError, NumericalError
from .integrand import INCREASING, Integrand, evaluate, inverse_value
from .transforms import TransformPair, validate_horizon, validate_order


@dataclass(frozen=True)
class StripGeometry:
    alpha: float
    t: float
    n: int
    samples_per_curve: int
    width: float          # total horizontal span t**alpha / Gamma(alpha+1)
    strip_width: float    # width / n
    boundaries: tuple     # n+1 clipped polylines, each an (m_i, 2) array of (x, y)
    heights: np.ndarray   # clip height f(x2_i) of each boundary, length n+1
    strip_areas: np.ndarray
    region_outline: np.ndarray  # integrand curve ascending, right edge descending

    @property
    def strip_area_sum(self) -> float:
        return float(np.sum(self.strip_areas))


@dataclass(frozen=True)
class TranslationReport:
    max_translation_deviation: float
    right_edge_shape_distance: Optional[float] = None


def _require_increasing_from_zero(f: Integrand, t: float) -> float:
    if f.monotone != INCREASING:
        raise NonMonotoneError(
            f"strip geometry needs a strictly increasing integrand, got {f.label!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        ft = float(evaluate(f, t))
    if not np.isfinite(ft):
        raise NumericalError(f"integrand value f({t:g}) = {ft!r} is not finite")
    f0 = float(evaluate(f, 0.0))
    if abs(f0) > 1e-12 * max(1.0, abs(ft)):
        raise DomainError(f"integrand must vanish at 0, got f(0) = {f0:g}")
    if f.inverse is not None:  # round trip f(f^{-1}(y)) = y at 17 heights
        ys = np.linspace(min(f0, ft), max(f0, ft), 17)
        resid = np.max(np.abs(evaluate(f, evaluate(f.inverse, ys)) - ys))
        if resid > 1e-10 * max(1.0, abs(ft), abs(f0)):
            raise DomainError(
                f"inverse of {f.label!r} fails round-trip check (residual {resid:.3e})"
            )
    return ft


def _assemble(f, alpha, t, width, n, left, x2, samples) -> StripGeometry:
    """n strips of width width/n: left(f, y) shifted by i * width/n, clipped at f(x2_i)."""
    if samples < 2:
        raise DomainError(f"need at least 2 samples per curve, got {samples}")
    samples = int(samples)
    ft = _require_increasing_from_zero(f, t)
    ys = np.linspace(0.0, ft, samples)
    base_xs = left(f, ys)
    heights = evaluate(f, x2)
    strip_width = width / n
    y_tol = 1e-12 * max(1.0, ft)

    boundaries = []
    for i in range(n + 1):
        xs = base_xs + i * strip_width
        mask = ys <= heights[i] + y_tol
        pts = np.column_stack((xs[mask], ys[mask]))
        if pts.shape[0] == 0 or heights[i] - pts[-1, 1] > y_tol:
            # close the polyline at the exact point where it meets the curve
            pts = np.vstack((pts, (x2[i], heights[i])))
        boundaries.append(pts)

    taus = np.linspace(0.0, t, samples)
    curve = np.column_stack((taus, np.atleast_1d(np.asarray(evaluate(f, taus)))))
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
        strip_areas=heights[:n] * strip_width,
        region_outline=outline,
    )


def build_strips(
    f: Integrand,
    pair: TransformPair,
    n: int,
    samples_per_curve: int = 200,
) -> StripGeometry:
    """Decompose the region for (f, alpha, t) into n equal-width strips.

    Boundary i is the left boundary curve shifted right by i * width/n and
    truncated where it meets the integrand curve; by construction that happens
    at (x2_i, f(x2_i)) with x2_i the image of the i-th partition point.
    """
    x2 = make_partition(pair, n).tau
    return _assemble(
        f, pair.alpha, pair.t, pair.width, int(n), pair.left_boundary, x2, samples_per_curve
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
    alphas = [validate_order(a, allow_zero=True) for a in np.atleast_1d(alphas)]
    horizons = [validate_horizon(t) for t in np.atleast_1d(horizons)]
    if not alphas or not horizons:
        raise DomainError("need at least one order and one horizon")
    family = []
    for alpha in alphas:
        for t in horizons:
            if alpha == 0.0:
                # order 0: the left boundary is the integrand curve itself, the span is 1
                left = partial(inverse_value, upper=t)
                family.append(_assemble(f, 0.0, t, 1.0, 1, left, np.array([0.0, t]), samples))
            else:
                family.append(build_strips(f, TransformPair(alpha, t), 1, samples))
    return family


def _matched_rows(p: np.ndarray, q: np.ndarray, y_tol: float):
    k = min(len(p), len(q))
    mask = np.abs(p[:k, 1] - q[:k, 1]) <= y_tol
    return p[:k][mask], q[:k][mask]


def translate_check(geom: StripGeometry, other: Optional[StripGeometry] = None) -> TranslationReport:
    """Quantify the translation structure of a geometry.

    Reports the worst pointwise deviation of adjacent boundaries from the
    constant strip offset, and, given a second geometry, the normalized-shape
    distance between the two right edges (each edge rescaled to unit height
    and unit width, compared at matched sample indices).
    """
    y_tol = 1e-12 * max(1.0, geom.heights[-1])
    deviation = 0.0
    for i in range(geom.n):
        p, q = _matched_rows(geom.boundaries[i], geom.boundaries[i + 1], y_tol)
        if len(p):
            deviation = max(
                deviation, float(np.max(np.abs((q[:, 0] - p[:, 0]) - geom.strip_width)))
            )

    distance = None
    if other is not None:
        if geom.samples_per_curve != other.samples_per_curve:
            raise IncompatibleSamplingError(
                "right edges must be sampled at the same number of heights"
            )
        e1, e2 = geom.boundaries[-1], other.boundaries[-1]
        if len(e1) != len(e2):
            raise IncompatibleSamplingError("right edges have different sample counts")
        distance = float(np.max(np.abs(_unit_shape(e1, geom.t) - _unit_shape(e2, other.t))))
    return TranslationReport(deviation, distance)


def _unit_shape(edge: np.ndarray, t: float) -> np.ndarray:
    xs = edge[:, 0]
    span = float(xs.max() - xs.min())
    if span <= 1e-12 * max(1.0, t):
        return np.zeros_like(xs)
    return (xs - xs.min()) / span
