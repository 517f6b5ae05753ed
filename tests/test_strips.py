import dataclasses
import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracint import engines
from fracint.engines import cavalieri_sum, make_partition, stieltjes_sum, strip_areas
from fracint.errors import DomainError, NonMonotoneError, NumericalError
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
        assert np.array_equal(geom.heights, evaluate(LINEAR, make_partition(pair, 5)))

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

    def test_overflowing_strip_area_is_a_numerical_failure(self):
        # heights near 1e300 times a strip width near 1e150, with no numpy warning
        with pytest.raises(NumericalError, match=r"area of strip 0 = .* is not finite"):
            build_strips(LINEAR, make_transform(0.5, 1e300), 3, 3)
        with pytest.raises(NumericalError, match=r"area of strip 0 = .* is not finite"):
            region_family(LINEAR, [0.5], [1e300], samples=3)

    @pytest.mark.parametrize("draw", (
        lambda f: build_strips(f, make_transform(0.5, 10.0), 3, 5),
        lambda f: region_family(f, [0.0], [10.0], samples=5),
    ), ids=("build_strips", "region_family"))
    def test_overflowing_integrand_is_refused_without_a_warning(self, draw):
        # f(10) = 1e308 * 10**2 overflows on the last tau sample, which the f(t) check meets
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"integrand value f\(10\) = inf is not finite"):
                draw(power_integrand(1e308, 2.0))

    def test_finite_end_is_checked_before_the_start(self):
        # both checks read the tau samples: f(t) must be finite before f(0) is looked at
        lifted = Integrand(
            fn=lambda x: 1.0 + 1e308 * np.asarray(x, float) ** 2, monotone="increasing"
        )
        with pytest.raises(NumericalError, match="is not finite"):
            build_strips(lifted, make_transform(0.5, 10.0), 3, 5)
        lifted = dataclasses.replace(lifted, fn=lambda x: 1.0 + np.asarray(x, float))
        with pytest.raises(DomainError, match=r"must vanish at 0, got f\(0\) = 1"):
            build_strips(lifted, make_transform(0.5, 10.0), 3, 5)

    def test_geometry_runs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the strip geometry integrated")

        monkeypatch.setattr(engines, "adaptive_quadrature", refuse)
        geom = build_strips(SQRT, make_transform(0.5, 4.0), 5, 50)
        assert len(geom.boundaries) == 6
        assert len(region_family(SQRT, [0.0, 0.5], [4.0], samples=8)) == 2


class TestBoundariesFollowTheSide:
    """Boundary i is the side (tau - g(tau), f(tau)) moved right by i strip widths."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        t=st.floats(1e-3, 1e3),
        p=st.floats(0.0, 3.0, exclude_min=True),
        n=st.integers(1, 50),
        samples=st.integers(2, 300),
    )
    def test_rows_are_the_shifted_side(self, alpha, t, p, n, samples):
        f, pair = power_integrand(1.0, p), make_transform(alpha, t)
        geom = build_strips(f, pair, n, samples)
        taus = np.linspace(0.0, t, samples)
        side, ys = taus - pair.forward(taus), f(taus)
        x2 = make_partition(pair, n)
        for i, boundary in enumerate(geom.boundaries):
            # at most samples rows, the bound the CLI's row cap counts on
            assert len(boundary) <= samples
            # the grid rows are those of every tau below x2_i ...
            k = len(boundary) - 1
            assert k == np.count_nonzero(taus < x2[i])
            assert np.array_equal(boundary[:k, 0], side[:k] + i * geom.strip_width)
            assert np.array_equal(boundary[:k, 1], ys[:k])
            # ... and the boundary ends on the curve at (x2_i, f(x2_i))
            assert np.array_equal(boundary[k], (x2[i], f(x2)[i]))

        # at order 0 the side is the curve itself, and the edge is the curve shifted by 1
        zero = region_family(f, [0.0], [t], samples)[0]
        curve = zero.region_outline[:samples]
        assert np.array_equal(zero.boundaries[-1], curve + (1.0, 0.0))


class TestStripSumsTotalTheStripAreas:
    """Both sum routes return the total of the strip areas that the geometry holds."""

    @staticmethod
    def check(alpha, t, p, n):
        f, pair = power_integrand(1.0, p), make_transform(alpha, t)
        s, c = stieltjes_sum(f, pair, n), cavalieri_sum(f, pair, n)
        assert (s.value, s.error_estimate, s.evaluations) == (
            c.value, c.error_estimate, c.evaluations
        )
        try:
            total = build_strips(f, pair, n, 2).strip_area_sum
        except NonMonotoneError:
            # the geometry refuses only a constant f (p = 0): total the areas it would hold
            assert p == 0.0
            heights = evaluate(f, make_partition(pair, n))
            total = float(np.sum(strip_areas(heights[:n], pair.width, n)))
        assert s.value == total

    def test_grid_bit_for_bit(self):
        # the two sums used to differ from the area total in the last bits on 76 of these 144
        for case in itertools.product(
            (0.2, 0.5, 0.8, 1.0), (0.5, 2.0, 7.0), (0.5, 1.0, 1.5, 2.0), (5, 17, 1000)
        ):
            self.check(*case)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        t=st.floats(1e-3, 1e3),
        p=st.floats(0.0, 3.0),
        n=st.integers(1, 5000),
    )
    def test_random_cases_bit_for_bit(self, alpha, t, p, n):
        self.check(alpha, t, p, n)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 7))
    def test_error_estimate_is_the_gap_to_the_stride_two_sum(self, n):
        pair = make_transform(0.5, 2.0)
        areas = build_strips(LINEAR, pair, n, 2).strip_areas
        result = cavalieri_sum(LINEAR, pair, n)
        if n == 1:
            assert result.error_estimate == abs(result.value)
            return
        # every second strip at twice the width; the last strip counts once when n is odd
        coarse = 2.0 * float(np.sum(areas[::2])) - (float(areas[-1]) if n % 2 else 0.0)
        assert result.error_estimate == abs(result.value - coarse)
        assert coarse == pytest.approx(
            sum(2.0 * areas[i] if i + 1 < n else areas[i] for i in range(0, n, 2)), rel=1e-14
        )

    def test_sums_leave_the_integrand_output_alone(self):
        # evaluate hands back an integrand's own float array, which is not the sum's to scale
        own = np.linspace(1.0, 2.0, 8)
        stieltjes_sum(Integrand(fn=lambda tau: own), make_transform(0.5, 2.0), 8)
        assert np.array_equal(own, np.linspace(1.0, 2.0, 8))


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
        with pytest.raises(DomainError, match="samples per curve must be >= 2"):
            region_family(SQRT, [0.0], [9.0], samples=1)

    def test_right_edges_differ_across_horizons(self):
        # the shape of the side is fixed by alpha and t: rescaled to unit width, the
        # right edges of two horizons differ at matched tau steps
        def unit_width(edge):
            xs = edge[:, 0]
            return (xs - xs.min()) / np.ptp(xs)

        small, large = region_family(LINEAR, [0.8], [2.0, 10.0], samples=150)
        a, b = unit_width(small.boundaries[-1]), unit_width(large.boundaries[-1])
        assert a.shape == b.shape and np.max(np.abs(a - b)) > 1e-3

    @pytest.mark.parametrize("t", (3.0, 9.0))
    def test_order_one_right_edges_are_vertical_lines(self, t):
        # at alpha = 1, g(tau) = tau: the side is x = 0 and the right edge x = t
        xs = region_family(LINEAR, [1.0], [t], samples=150)[0].boundaries[-1][:, 0]
        assert np.ptp(xs) <= 1e-12 * t and np.max(np.abs(xs - t)) <= 1e-12 * t


class TestTranslateCheck:
    def test_within_geometry_deviation_is_tiny(self):
        geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 200)
        report = translate_check(geom)
        assert report.max_translation_deviation <= 1e-10 * 10.0

    def test_a_moved_row_shows_as_deviation(self):
        # boundaries share their tau steps row for row, so one row moved by 1e-3 reads 1e-3
        geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 200)
        moved = [b.copy() for b in geom.boundaries]
        moved[3][10, 0] += 1e-3
        report = translate_check(dataclasses.replace(geom, boundaries=tuple(moved)))
        assert report.max_translation_deviation == pytest.approx(1e-3, rel=1e-6)


class TestSmallExponents:
    """c*tau**p with a small p: f jumps from 0 to about 0.23 at the smallest double."""

    @staticmethod
    def closed_form_areas(c, p, alpha, t, n):
        # strip i is f(x2_i) high and t**alpha / Gamma(alpha + 1) / n wide, with
        # x2_i = t * (1 - (1 - i/n)**(1/alpha)) the image of the i-th partition point
        with mp.workdps(40):
            width = mp.mpf(t) ** alpha / mp.gamma(alpha + 1) / n
            return [
                float(c * (t * (1 - (1 - mp.mpf(i) / n) ** (1 / mp.mpf(alpha)))) ** p * width)
                for i in range(n)
            ]

    @pytest.mark.parametrize("p", (0.002, 0.003, 0.0005))
    @pytest.mark.parametrize("alpha,t,n", ((0.5, 2.0, 5), (0.8, 10.0, 17), (1.0, 0.5, 3)))
    def test_strip_areas_match_closed_form(self, p, alpha, t, n):
        f = power_integrand(1.0, p)
        geom = build_strips(f, make_transform(alpha, t), n, 50)
        expected = self.closed_form_areas(1.0, p, alpha, t, n)
        assert geom.strip_areas == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert geom.heights[-1] == pytest.approx(t**p, rel=1e-15)
        assert len(geom.boundaries) == n + 1

    @pytest.mark.parametrize("p", (0.002, 0.0005))
    def test_region_family_accepts_them(self, p):
        f = power_integrand(3.0, p)
        family = region_family(f, [0.0, 0.5], [2.0], samples=16)
        assert [g.alpha for g in family] == [0.0, 0.5]
        assert family[0].heights[-1] == pytest.approx(3.0 * 2.0**p, rel=1e-15)

    @pytest.mark.parametrize("p,t", ((1e-6, 2.0), (3e-05, 2.0), (1e-12, 1000.0)))
    def test_an_inverse_moved_past_t_by_rounding_is_drawn(self, p, t):
        # (2**1e-6)**1e6 rounds about 1.5e-11 past t = 2, so f^{-1}(f(t)) is not t; the
        # side is sampled along tau and ends at (t, f(t)) all the same
        f = power_integrand(1.0, p)
        geom = build_strips(f, make_transform(0.5, t), 5)
        expected = self.closed_form_areas(1.0, p, 0.5, t, 5)
        assert geom.strip_areas == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert tuple(geom.boundaries[-1][-1]) == pytest.approx((t, f(t)), rel=1e-15, abs=0.0)
