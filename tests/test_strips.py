import numpy as np
import pytest

from fracint import engines
from fracint.engines import make_partition
from fracint.errors import (
    DomainError,
    IncompatibleSamplingError,
    NonMonotoneError,
)
from fracint.integrand import Integrand, evaluate, power_integrand
from fracint.operator import FractionalOperator
from fracint.strips import build_strips, region_family, translate_check
from fracint.transforms import make_transform

from _reference import (
    ALPHA_GRID,
    HORIZON_GRID,
    SPAN_ALPHA08_T10,
    closed_form,
    linear_closed_form,
)

LINEAR = power_integrand(1.0, 1.0)
SQRT = power_integrand(1.0, 0.5)


class TestBuildStrips:
    def test_order_one_gives_rectangles(self):
        geom = build_strips(LINEAR, make_transform(1.0, 10.0), 5, 50)
        assert len(geom.boundaries) == 6
        for i, boundary in enumerate(geom.boundaries):
            xs = boundary[:, 0]
            assert np.max(np.abs(xs - 2.0 * i)) <= 1e-12 * 10.0  # vertical lines

    def test_fractional_order_layout(self):
        geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 200)
        assert geom.width == pytest.approx(SPAN_ALPHA08_T10, rel=1e-12)
        assert geom.strip_width == pytest.approx(SPAN_ALPHA08_T10 / 5.0, rel=1e-12)
        # leftmost boundary passes through the origin
        assert np.allclose(geom.boundaries[0][0], (0.0, 0.0), atol=1e-12)
        # rightmost boundary meets the integrand curve at (t, f(t))
        assert geom.boundaries[-1][-1] == pytest.approx((10.0, 10.0), rel=1e-9)

    def test_strip_heights_are_left_endpoint_values(self):
        pair = make_transform(0.8, 10.0)
        geom = build_strips(LINEAR, pair, 5, 50)
        x1 = np.linspace(0.0, pair.width, 6)
        expected = pair.inverse(x1)  # f = tau, so heights equal the abscissae
        assert np.allclose(geom.heights, expected, rtol=1e-12)
        assert np.allclose(geom.strip_areas, expected[:5] * geom.strip_width, rtol=1e-12)
        # the strips take their layout from the partition the strip sums use
        assert np.array_equal(geom.heights, evaluate(LINEAR, make_partition(pair, 5).tau))

    def test_area_sum_converges_to_engine_total(self):
        pair = make_transform(0.8, 10.0)
        exact = linear_closed_form(0.8, 10.0)
        geom = build_strips(LINEAR, pair, 10_000, samples_per_curve=2)
        assert FractionalOperator(0.8).apply(LINEAR, 10.0).value == pytest.approx(exact, rel=1e-8)
        assert geom.strip_area_sum == pytest.approx(exact, rel=1e-3)

        # left-endpoint inscribed sums start coarse (the first strip has
        # height f(0) = 0) and the gap shrinks roughly like 1/n
        exact = closed_form("sqrt", 0.4, 6.0)
        gaps = [
            abs(build_strips(SQRT, make_transform(0.4, 6.0), n, 2).strip_area_sum - exact)
            / exact
            for n in (3, 30, 300)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] <= 0.29 and gaps[1] <= 0.03 and gaps[2] <= 0.003

    def test_boundaries_do_not_cross(self):
        geom = build_strips(SQRT, make_transform(0.6, 8.0), 4, 100)
        for i in range(geom.n):
            left, right = geom.boundaries[i], geom.boundaries[i + 1]
            k = min(len(left), len(right))
            assert np.all(right[:k, 0] - left[:k, 0] > 0)

    def test_region_outline_traces_curve_then_edge(self):
        geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 100)
        outline = geom.region_outline
        assert np.allclose(outline[0], (0.0, 0.0), atol=1e-12)
        corner = outline[geom.samples_per_curve - 1]
        assert corner == pytest.approx((10.0, 10.0), rel=1e-9)
        assert outline[-1] == pytest.approx((geom.width, 0.0), abs=1e-12)

    def test_preconditions(self):
        pair = make_transform(0.5, 4.0)
        with pytest.raises(DomainError):
            build_strips(LINEAR, pair, 0)
        with pytest.raises(DomainError):
            build_strips(LINEAR, pair, 5, samples_per_curve=1)
        with pytest.raises(NonMonotoneError):
            build_strips(Integrand(fn=lambda x: np.cos(np.asarray(x, float))), pair, 5)
        shifted = Integrand(
            fn=lambda x: np.asarray(x, float) + 1.0, monotone="increasing", label="shifted"
        )
        with pytest.raises(DomainError):
            build_strips(shifted, pair, 5)

    def test_bad_analytic_inverse_is_caught(self):
        lying = Integrand(
            fn=lambda x: np.asarray(x, float),
            monotone="increasing",
            inverse=lambda y: 0.5 * np.asarray(y, float),
            label="lying",
        )
        with pytest.raises(DomainError):
            build_strips(lying, make_transform(0.5, 4.0), 3)

    def test_geometry_runs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the strip geometry integrated")

        monkeypatch.setattr(engines, "adaptive_quadrature", refuse)
        geom = build_strips(SQRT, make_transform(0.5, 4.0), 5, 50)
        assert len(geom.boundaries) == 6
        assert len(region_family(SQRT, [0.0, 0.5], [4.0], samples=8)) == 2


class TestRegionFamily:
    def test_full_grid_areas_match_closed_forms(self):
        family = region_family(LINEAR, ALPHA_GRID, HORIZON_GRID, samples=16)
        assert len(family) == 25
        index = 0
        for alpha in ALPHA_GRID:
            for t in HORIZON_GRID:
                geom = family[index]
                assert geom.alpha == alpha and geom.t == t
                # the region's area is the operator's value at its (alpha, t)
                assert FractionalOperator(alpha).apply(LINEAR, t).value == pytest.approx(
                    linear_closed_form(alpha, t), rel=1e-8
                )
                index += 1

    def test_identity_order_region(self):
        geom = region_family(SQRT, [0.0], [9.0], samples=32)[0]
        assert FractionalOperator(geom.alpha).apply(SQRT, geom.t).value == pytest.approx(
            3.0, rel=1e-12
        )
        assert geom.width == 1.0
        assert geom.heights[-1] == pytest.approx(3.0, rel=1e-12)

    def test_sqrt_unit_order_area(self):
        geom = region_family(SQRT, [1.0], [4.0], samples=8)[0]
        assert FractionalOperator(geom.alpha).apply(SQRT, geom.t).value == pytest.approx(
            16.0 / 3.0, rel=1e-9
        )
        assert geom.width == pytest.approx(4.0, rel=1e-12)  # t / Gamma(2)

    def test_single_pair_matches_build_strips(self):
        geom = region_family(LINEAR, [0.6], [8.0], samples=64)[0]
        direct = build_strips(LINEAR, make_transform(0.6, 8.0), 1, 64)
        assert np.array_equal(geom.heights, direct.heights)
        assert len(geom.boundaries) == len(direct.boundaries) == 2
        assert np.allclose(geom.boundaries[-1], direct.boundaries[-1])

    def test_empty_inputs_rejected(self):
        with pytest.raises(DomainError):
            region_family(LINEAR, [], [2.0])

    def test_identity_order_with_too_few_samples_rejected(self):
        with pytest.raises(DomainError, match="need at least 2 samples per curve"):
            region_family(SQRT, [0.0], [9.0], samples=1)


class TestTranslateCheck:
    def test_within_geometry_deviation_is_tiny(self):
        geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 200)
        report = translate_check(geom)
        assert report.max_translation_deviation <= 1e-10 * 10.0
        assert report.right_edge_shape_distance is None

    def test_right_edges_differ_across_horizons(self):
        small, large = region_family(LINEAR, [0.8], [2.0, 10.0], samples=150)
        report = translate_check(small, large)
        assert report.right_edge_shape_distance > 1e-3

    def test_order_one_edges_are_identical_lines(self):
        first, second = region_family(LINEAR, [1.0], [3.0, 9.0], samples=150)
        report = translate_check(first, second)
        assert report.right_edge_shape_distance == 0.0

    def test_incompatible_sampling_rejected(self):
        a = build_strips(LINEAR, make_transform(0.8, 10.0), 1, 150)
        b = build_strips(LINEAR, make_transform(0.8, 2.0), 1, 100)
        with pytest.raises(IncompatibleSamplingError):
            translate_check(a, b)
