import math

import numpy as np
import pytest

from fracint.engines import (
    cauchy_repeated,
    cavalieri_sum,
    direct_rl,
    make_partition,
    nested_integral_oracle,
    stieltjes_sum,
    transformed_riemann,
)
from fracint.errors import BudgetExhaustedError, DomainError, FracintError, NumericalError
from fracint.integrand import BISECTION_ITERATIONS, Integrand, power_integrand
from fracint.operator import FractionalOperator
from fracint.integrand import evaluate
from fracint.quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    CavalieriRegion,
    adaptive_quadrature,
    stieltjes_integral,
    stieltjes_riemann_sum,
)
from fracint.transforms import make_transform

from _reference import (
    ALPHA_GRID,
    FOUR_OVER_3SQRTPI,
    HORIZON_GRID,
    closed_form,
    linear_closed_form,
    sqrt_closed_form,
)

LINEAR = power_integrand(1.0, 1.0)
SQRT = power_integrand(1.0, 0.5)
SQUARE = power_integrand(1.0, 2.0)
CONST = power_integrand(1.0, 0.0)


class TestAdaptiveEngine:
    def test_polynomial_is_exact(self):
        value, err, evals = adaptive_quadrature(lambda x: x**7, 0.0, 1.0)
        assert value == pytest.approx(0.125, rel=1e-14)
        assert err <= 1e-12
        assert evals == 15

    def test_error_estimate_brackets_true_error(self):
        value, err, _ = adaptive_quadrature(np.exp, 0.0, 3.0)
        true = np.expm1(3.0)
        assert abs(value - true) <= max(err, 1e-13 * true)

    def test_integrable_singularity(self):
        value, _, _ = adaptive_quadrature(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert value == pytest.approx(2.0, rel=1e-8)

    def test_empty_interval(self):
        assert adaptive_quadrature(np.exp, 1.0, 1.0) == (0.0, 0.0, 0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(np.exp, 1.0, 0.0)

    def test_budget_exhaustion_carries_best_value(self):
        with pytest.raises(BudgetExhaustedError) as info:
            adaptive_quadrature(lambda x: np.sqrt(x), 0.0, 1.0, 1e-14, 1e-14, budget=64)
        exc = info.value
        assert exc.value == pytest.approx(2.0 / 3.0, rel=1e-3)
        assert exc.error_estimate > 0
        assert 15 <= exc.evaluations <= 64

    def test_non_finite_integrand_is_a_numerical_failure(self):
        nan = Integrand(fn=lambda x: np.full_like(x, np.nan), label="nan")
        for route in ("transformed", "direct", "stieltjes", "cavalieri"):
            with pytest.raises(NumericalError) as info:
                FractionalOperator(0.5, route).apply(nan, 1.0)
            assert not isinstance(info.value, BudgetExhaustedError)
        calls = []

        def infinite(x):
            calls.append(len(x))
            return np.full_like(x, np.inf)

        with pytest.raises(NumericalError):
            adaptive_quadrature(infinite, 0.0, 1.0)
        assert calls == [15]  # raised on the first panel, without bisecting

    @pytest.mark.parametrize("abs_tol, rel_tol", ((np.nan, 1e-10), (1e-10, np.nan), (-1.0, -1.0)))
    def test_unmeetable_tolerances_rejected(self, abs_tol, rel_tol):
        with pytest.raises(DomainError):
            adaptive_quadrature(np.exp, 0.0, 1.0, abs_tol, rel_tol)

    def test_zero_and_infinite_tolerances_accepted(self):
        assert adaptive_quadrature(np.exp, 0.0, 1.0, 0.0, np.inf)[2] == 15
        assert adaptive_quadrature(np.exp, 0.0, 1.0, np.inf, 0.0)[2] == 15

    def test_deterministic(self):
        first = adaptive_quadrature(lambda x: np.sin(x) / (1 + x), 0.0, 5.0)
        second = adaptive_quadrature(lambda x: np.sin(x) / (1 + x), 0.0, 5.0)
        assert first == second


def _reference_panel(fn, lo, hi):
    """The Kronrod-15 panel as it was before bisection evaluated both halves at once."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = center + half * _KRONROD_NODES
    fx = evaluate(fn, x)
    resk = half * float(np.dot(_KRONROD_WEIGHTS, fx))
    resg = half * float(np.dot(_GAUSS_WEIGHTS, fx[1::2]))
    err = abs(resk - resg)
    if not math.isfinite(err):
        raise NumericalError(f"non-finite integrand sum on the panel [{lo:g}, {hi:g}]")
    mean = resk / (hi - lo) if hi != lo else 0.0
    resasc = half * float(np.dot(_KRONROD_WEIGHTS, np.abs(fx - mean)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _reference_quadrature(fn, lo, hi, abs_tol=1e-10, rel_tol=1e-10, budget=10_000):
    """The adaptive loop as it was: one panel per call, a full scan per split."""
    value, err = _reference_panel(fn, lo, hi)
    evaluations = 15
    segments = [(lo, hi, value, err)]
    min_width = 1e-15 * (hi - lo)

    while True:
        total = math.fsum(s[2] for s in segments)
        total_err = math.fsum(s[3] for s in segments)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, total_err, evaluations
        worst = max(range(len(segments)), key=lambda i: (segments[i][3], -i))
        s_lo, s_hi, _, s_err = segments[worst]
        if s_hi - s_lo <= min_width:
            return total, total_err, evaluations
        if evaluations + 30 > budget:
            raise BudgetExhaustedError(
                f"evaluation budget {budget} exhausted (error estimate {total_err:.3e})",
                value=total,
                error_estimate=total_err,
                evaluations=evaluations,
            )
        mid = 0.5 * (s_lo + s_hi)
        left = _reference_panel(fn, s_lo, mid)
        right = _reference_panel(fn, mid, s_hi)
        evaluations += 30
        segments[worst] = (s_lo, mid, left[0], left[1])
        segments.append((mid, s_hi, right[0], right[1]))


def _named_kink(u, alpha=0.472, t=7.894):
    """The adaptive core's integrand for max(tau - 0.457 t, 0), a known miss."""
    tau = np.minimum(np.maximum(t - u ** (1.0 / alpha), 0.0), t)
    return np.maximum(tau - 0.457 * t, 0.0)


class TestExactRefinement:
    """Evaluating both halves of a split in one call changes no decision and no bit."""

    @pytest.mark.parametrize("fn, lo, hi", [
        (np.abs, -1.0, 1.0),  # the first split makes two children of equal error
        (lambda x: np.abs(np.abs(x) - 1.0 / 3.0), -1.0, 1.0),  # equal errors compete later
        (_named_kink, 0.0, 7.894**0.472),
        (np.sqrt, 0.0, 1.0),
        (lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0),
    ], ids=["abs", "abs-ties", "named-kink", "sqrt", "step"])
    def test_same_refinement_as_the_reference(self, fn, lo, hi):
        assert adaptive_quadrature(fn, lo, hi) == _reference_quadrature(fn, lo, hi)

    def test_same_budget_exhaustion_as_the_reference(self):
        with pytest.raises(BudgetExhaustedError) as new:
            adaptive_quadrature(np.sqrt, 0.0, 1.0, 1e-14, 1e-14, budget=64)
        with pytest.raises(BudgetExhaustedError) as old:
            _reference_quadrature(np.sqrt, 0.0, 1.0, 1e-14, 1e-14, budget=64)
        assert str(new.value) == str(old.value)
        got = (new.value.value, new.value.error_estimate, new.value.evaluations)
        assert got == (old.value.value, old.value.error_estimate, old.value.evaluations)

    def test_one_integrand_call_per_bisection(self):
        calls = []

        def counting(x):
            calls.append(len(x))
            return np.sqrt(x)

        _, _, evaluations = adaptive_quadrature(counting, 0.0, 1.0)
        assert evaluations > 15
        assert len(calls) == 1 + (evaluations - 15) // 30
        assert calls[0] == 15
        assert all(n == 30 for n in calls[1:])

    def test_non_finite_right_half_is_named(self):
        calls = []

        def nan_right_of_first_split(x):
            calls.append(len(x))
            out = np.sqrt(x)
            if len(calls) == 2:
                out[x > 0.5] = np.nan
            return out

        with pytest.raises(NumericalError, match=r"panel \[0\.5, 1\]"):
            adaptive_quadrature(nan_right_of_first_split, 0.0, 1.0)
        assert calls == [15, 30]


class TestGenericStieltjes:
    def test_left_endpoint_rule_pinned(self):
        # single cell: f at the left point times the integrator increment
        value = stieltjes_riemann_sum(lambda x: x, lambda x: 2.0 * x, 0.5, 2.0, 1)
        assert value == pytest.approx(0.5 * 3.0, rel=1e-14)

    def test_linear_integrator_example(self):
        value = stieltjes_riemann_sum(lambda x: x, lambda x: 2.0 * x, 0.5, 2.0, 200_000)
        assert value == pytest.approx(3.75, abs=2e-5)

    def test_differentiable_integrator_identity(self):
        value = stieltjes_integral(lambda x: x, lambda x: 2.0 + 0.0 * np.asarray(x), 0.5, 2.0)
        assert value == pytest.approx(3.75, abs=1e-9)


class TestCavalieriRegion:
    # region bounded by the x-axis, f(x) = x, and the translated sides
    # x = 1 - y and x = 4 - y
    region = CavalieriRegion(
        f=lambda x: np.asarray(x, dtype=float),
        left=lambda y: 1.0 - np.asarray(y, dtype=float),
        width=3.0,
    )

    def test_footprint_and_corners(self):
        assert self.region.footprint == (1.0, 4.0)
        assert self.region.lower_abscissa == pytest.approx(0.5, abs=1e-12)
        assert self.region.upper_abscissa == pytest.approx(2.0, abs=1e-12)

    def test_integrator_is_twice_x(self):
        xs = np.linspace(0.5, 2.0, 11)
        assert np.allclose(self.region.integrator(xs), 2.0 * xs, rtol=1e-13)

    def test_area(self):
        assert self.region.area() == pytest.approx(3.75, abs=1e-9)

    def test_lower_sum_converges(self):
        assert self.region.lower_sum(20_000) == pytest.approx(3.75, abs=2e-4)
        gaps = [abs(self.region.lower_sum(n) - 3.75) for n in (100, 1000, 10_000)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_lower_sum_refuses_no_strips(self):
        with pytest.raises(DomainError, match="partition size must be >= 1, got 0"):
            self.region.lower_sum(0)

    def test_corners_are_found_once(self):
        calls = []

        def left(y):
            calls.append(1)
            return self.region.left(y)

        region = CavalieriRegion(f=self.region.f, left=left, width=self.region.width)
        region.inverse(1.7)
        calls.clear()
        region.inverse(1.7)
        assert len(calls) == BISECTION_ITERATIONS


class TestDirectRoute:
    @pytest.mark.parametrize("t", (1.0, 4.0, 10.0))
    def test_half_order_anchor(self, t):
        result = direct_rl(LINEAR, 0.5, t)
        assert result.value == pytest.approx(FOUR_OVER_3SQRTPI * t**1.5, rel=1e-6)
        assert result.method == "direct"
        assert result.evaluations >= 15

    def test_order_one_is_plain_integration(self):
        assert direct_rl(LINEAR, 1.0, 2.0).value == pytest.approx(2.0, rel=1e-10)
        plain, _, _ = adaptive_quadrature(LINEAR, 0.0, 2.0)
        assert direct_rl(LINEAR, 1.0, 2.0).value == pytest.approx(plain, rel=1e-10)

    def test_sqrt_family_value(self):
        result = direct_rl(SQRT, 0.4, 10.0)
        assert result.value == pytest.approx(sqrt_closed_form(0.4, 10.0), rel=1e-6)

    @pytest.mark.parametrize("alpha, tol", [(0.2, 2e-3), (0.5, 1e-6), (0.8, 1e-9)])
    def test_raw_kernel_cross_check(self, alpha, tol):
        # endpoint-avoiding integration of the raw singular kernel; accuracy
        # degrades as the kernel exponent drops, hence the graded tolerances
        raw = direct_rl(LINEAR, alpha, 10.0, substitute=False, budget=200_000)
        assert raw.value == pytest.approx(linear_closed_form(alpha, 10.0), rel=tol)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            direct_rl(LINEAR, 0.0, 1.0)
        with pytest.raises(DomainError):
            direct_rl(LINEAR, 0.5, 1.0, budget=14)

    @pytest.mark.parametrize("budget", (15, 30, 45))
    @pytest.mark.parametrize("f", (CONST, LINEAR, SQRT))
    def test_small_budgets_match_the_transformed_route(self, budget, f):
        # one adaptive core: the same budget gives the same bits or the same failure
        def outcome(route):
            try:
                result = route()
            except FracintError as exc:
                return type(exc)
            return result.value, result.error_estimate, result.evaluations

        direct = outcome(lambda: direct_rl(f, 0.3, 10.0, budget=budget))
        transformed = outcome(
            lambda: transformed_riemann(f, make_transform(0.3, 10.0), budget=budget)
        )
        assert direct == transformed

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError):
            direct_rl(SQRT, 0.3, 10.0, budget=64, abs_tol=1e-15, rel_tol=1e-15)


class TestSumRoutes:
    def test_identity_order_left_sum(self):
        pair = make_transform(1.0, 2.0)
        result = stieltjes_sum(LINEAR, pair, 100_000)
        assert result.value == pytest.approx(2.0, rel=1e-4)
        assert result.n == 100_000

    def test_stieltjes_against_half_order_anchor(self):
        pair = make_transform(0.5, 1.0)
        result = stieltjes_sum(LINEAR, pair, 100_000)
        assert result.value == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-4)

    def test_cavalieri_sqrt_family(self):
        pair = make_transform(0.2, 10.0)
        result = cavalieri_sum(SQRT, pair, 100_000)
        assert result.value == pytest.approx(sqrt_closed_form(0.2, 10.0), rel=1e-3)

    @pytest.mark.parametrize("alpha", (0.3, 0.7))
    def test_sum_methods_are_the_same_sum(self, alpha):
        pair = make_transform(alpha, 6.0)
        s = stieltjes_sum(SQRT, pair, 5000)
        c = cavalieri_sum(SQRT, pair, 5000)
        assert abs(s.value - c.value) <= 1e-12 * abs(s.value)

    def test_tau_spacing_converges_too(self):
        # equal steps in tau instead of on the transformed axis: the generic sum against g
        pair = make_transform(0.5, 1.0)
        value = stieltjes_riemann_sum(LINEAR, pair.forward, 0.0, pair.t, 100_000)
        assert value == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-3)

    def test_error_estimate_tracks_true_error(self):
        pair = make_transform(0.5, 1.0)
        result = cavalieri_sum(LINEAR, pair, 1000)
        true_err = abs(result.value - FOUR_OVER_3SQRTPI)
        assert 0.2 * true_err <= result.error_estimate <= 5.0 * true_err

    @pytest.mark.parametrize("n", (3, 999))
    def test_odd_strip_counts(self, n):
        # the stride-2 comparison sum closes on the right end when n is odd
        pair = make_transform(0.5, 1.0)
        result = cavalieri_sum(LINEAR, pair, n)
        true_err = abs(result.value - FOUR_OVER_3SQRTPI)
        assert result.n == n
        assert 0.2 * true_err <= result.error_estimate <= 5.0 * true_err

    @pytest.mark.parametrize("alpha", (0.4, 0.8))
    def test_first_order_convergence(self, alpha):
        pair = make_transform(alpha, 10.0)
        exact = linear_closed_form(alpha, 10.0)
        e1 = abs(cavalieri_sum(LINEAR, pair, 1000).value - exact)
        e2 = abs(cavalieri_sum(LINEAR, pair, 2000).value - exact)
        assert 1.7 <= e1 / e2 <= 2.3


class TestTransformedRoute:
    def test_half_order_anchor(self):
        pair = make_transform(0.5, 1.0)
        result = transformed_riemann(LINEAR, pair)
        assert result.value == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-9)

    def test_identity_order(self):
        pair = make_transform(1.0, 3.0)
        assert transformed_riemann(LINEAR, pair).value == pytest.approx(4.5, rel=1e-12)

    def test_low_order_linear_family(self):
        pair = make_transform(0.2, 10.0)
        result = transformed_riemann(LINEAR, pair)
        assert result.value == pytest.approx(linear_closed_form(0.2, 10.0), rel=1e-10)


@pytest.mark.parametrize("family, f", [("linear", LINEAR), ("sqrt", SQRT)])
def test_cross_method_agreement_grid(family, f):
    for alpha in ALPHA_GRID:
        for t in HORIZON_GRID:
            pair = make_transform(alpha, t)
            tr = transformed_riemann(f, pair).value
            di = direct_rl(f, alpha, t).value
            assert abs(di - tr) <= 1e-6 * abs(tr)
            for result in (stieltjes_sum(f, pair, 100_000), cavalieri_sum(f, pair, 100_000)):
                assert abs(result.value - tr) <= 1e-3 * abs(tr)
            assert tr == pytest.approx(closed_form(family, alpha, t), rel=1e-8)


class TestRepeatedIntegration:
    def test_double_integration_of_linear(self):
        assert cauchy_repeated(LINEAR, 2, 1.0).value == pytest.approx(1.0 / 6.0, rel=1e-8)
        assert cauchy_repeated(LINEAR, 2, 2.0).value == pytest.approx(8.0 / 6.0, rel=1e-8)

    def test_single_integration(self):
        assert cauchy_repeated(LINEAR, 1, 2.0).value == pytest.approx(2.0, rel=1e-10)

    def test_triple_integration_of_square(self):
        assert cauchy_repeated(SQUARE, 3, 1.0).value == pytest.approx(1.0 / 60.0, rel=1e-8)

    def test_rejects_bad_repetition_count(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(DomainError):
                cauchy_repeated(LINEAR, bad, 1.0)

    def test_counts_past_the_factorial_overflow(self):
        # 10**171 / 171! is about 8e-139; no factorial is formed, so 172 works too
        assert cauchy_repeated(CONST, 171, 10.0).value == pytest.approx(
            10.0**171 / 171 / math.factorial(170), rel=1e-12
        )
        expected = math.exp(172 * math.log(10.0) - math.lgamma(173))
        assert cauchy_repeated(CONST, 172, 10.0).value == pytest.approx(expected, rel=1e-9)
        # 1/999! is below the smallest double: the nearest double is 0.0
        assert cauchy_repeated(CONST, 1000, 1.0).value == 0.0

    def test_large_count_and_horizon_do_not_overflow(self):
        # (t - tau)**170 overflows at t = 90, though 90**171 / 171! is about 1.2e25
        expected = math.exp(171 * math.log(90.0) - math.lgamma(172))
        assert cauchy_repeated(CONST, 171, 90.0).value == pytest.approx(expected, rel=1e-9)

    def test_oracle_pinned_values(self):
        assert nested_integral_oracle(LINEAR, 2, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert nested_integral_oracle(CONST, 2, 1.0) == pytest.approx(0.5, abs=1e-6)
        assert nested_integral_oracle(LINEAR, 3, 1.0) == pytest.approx(1.0 / 24.0, abs=1e-6)

    def test_oracle_rejects_unsupported_depth(self):
        with pytest.raises(DomainError):
            nested_integral_oracle(LINEAR, 4, 1.0)

    @pytest.mark.parametrize("f", (CONST, LINEAR, SQUARE))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_collapse_matches_nested_oracle(self, f, n):
        collapsed = cauchy_repeated(f, n, 1.5).value
        nested = nested_integral_oracle(f, n, 1.5)
        assert collapsed == pytest.approx(nested, rel=1e-5)


class TestPartition:
    def test_transformed_spacing(self):
        pair = make_transform(0.5, 4.0)
        part = make_partition(pair, 64)
        assert part.transformed[0] == 0.0
        assert part.transformed[-1] == pytest.approx(pair.width, rel=1e-14)
        assert part.tau[0] == 0.0
        assert part.tau[-1] == pytest.approx(4.0, rel=1e-14)
        assert np.all((part.tau >= 0) & (part.tau <= 4.0))

    @pytest.mark.parametrize("alpha", (0.3, 0.7, 1.0))
    def test_points_are_ordered_down_to_tiny_widths(self, alpha):
        # make_partition checks two points; the strip sums rely on all of them
        for t in (1e-323, 1e-320, 1e-310, 1e-300, 1e-12, 1.0, 1e6):
            pair = make_transform(alpha, t)
            for n in (1, 2, 3, 1000, 100_000):
                try:
                    part = make_partition(pair, n)
                except DomainError:
                    refused = np.linspace(0.0, pair.width, n + 1)
                    assert not np.all(np.diff(refused) > 0)
                    continue
                assert np.all(np.diff(part.transformed) > 0)
                # h flattens near the ends, so neighbouring images may round equal
                assert np.all(np.diff(part.tau) >= 0)

    def test_errors(self):
        pair = make_transform(0.5, 4.0)
        with pytest.raises(DomainError):
            make_partition(pair, 0)

    @pytest.mark.parametrize(
        "alpha, t", [(0.85, 1e6), (0.6198855958466016, 16670556.346037818)]
    )
    def test_wide_partitions_end_at_t(self, alpha, t):
        # Gamma(alpha+1) * width rounds above t**alpha here by more than 1e-12
        pair = make_transform(alpha, t)
        part = make_partition(pair, 1000)
        assert part.tau[-1] == t
        result = cavalieri_sum(LINEAR, pair, 1000)
        exact = t ** (1.0 + alpha) / math.gamma(2.0 + alpha)
        assert result.value == pytest.approx(exact, rel=1e-2)


class TestEvaluate:
    def test_scalar_only_callable_that_raises_on_arrays(self):
        xs = np.array([[0.0, 1.0], [4.0, 9.0]])
        assert np.array_equal(evaluate(math.sqrt, xs), np.sqrt(xs))
        assert evaluate(math.sqrt, 4.0) == 2.0

    def test_callable_returning_a_scalar_for_an_array(self):
        out = evaluate(lambda x: 2.0, np.linspace(0.0, 1.0, 5))
        assert out.shape == (5,)
        assert np.all(out == 2.0)
