import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracint

from fracint import cli
from fracint.engines import METHODS, cauchy_repeated, make_partition, transformed_riemann
from fracint.errors import DomainError, NumericalError
from fracint.integrand import INCREASING, Integrand, power_integrand
from fracint.operator import (
    FractionalOperator,
    chebyshev_nodes,
    compose,
    not_a_knot_spline,
    power_oracle,
)
from fracint.quadrature import CavalieriRegion, adaptive_quadrature, stieltjes_integral
from fracint.strips import build_strips, region_family
from fracint.transforms import make_transform

from _reference import (
    ALPHA_GRID_WITH_ZERO,
    FOUR_OVER_3SQRTPI,
    POWER_P05_ALPHA07,
    POWER_P1_ALPHA07,
    POWER_P2_ALPHA05,
    closed_form,
)

LINEAR = power_integrand(1.0, 1.0)
SQRT = power_integrand(1.0, 0.5)

# one setting no apply of its routes accepts, each alone
BAD_SETTINGS = [{"budget": 14}, {"abs_tol": math.nan}, {"rel_tol": -1.0}, {"n": 0}, {"n": 2.5}]
SETTING_ROUTES = {  # the routes that read each setting
    "budget": ("direct", "transformed"),
    "abs_tol": ("direct", "transformed"),
    "rel_tol": ("direct", "transformed"),
    "n": ("stieltjes", "cavalieri"),
}


def exact_power_integral(c, p, alpha, t):
    """c * Gamma(p+1)/Gamma(p+1+alpha) * t**(p+alpha) in mpmath at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(p) + 1
        log_ratio = mpmath.loggamma(x) - mpmath.loggamma(x + alpha)
        return c * mpmath.exp(log_ratio) * mpmath.mpf(t) ** (mpmath.mpf(p) + alpha)


class TestPowerOracle:
    def test_pinned_values(self):
        assert power_oracle(1.0, 0.5, 1.0) == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-12)
        for t in (1.0, 3.0, 7.0):
            assert power_oracle(1.0, 1.0, t) == pytest.approx(0.5 * t * t, rel=1e-12)
        assert power_oracle(2.0, 0.5, 1.0) == pytest.approx(POWER_P2_ALPHA05, rel=1e-12)

    @pytest.mark.parametrize("family, exponent", [("linear", 1.0), ("sqrt", 0.5)])
    @pytest.mark.parametrize("alpha", ALPHA_GRID_WITH_ZERO)
    def test_matches_closed_form_table(self, family, exponent, alpha):
        for t in range(1, 11):
            expected = closed_form(family, alpha, float(t))
            assert power_oracle(exponent, alpha, float(t)) == pytest.approx(expected, rel=1e-12)

    def test_general_exponent_gate_against_quadrature(self):
        # the rule is only tabulated for p in {1/2, 1}; trust other exponents
        # only because quadrature reproduces them
        triples = [
            (0.0, 0.3, 1.0), (0.0, 0.7, 2.0), (0.25, 0.3, 1.0), (0.25, 0.9, 4.0),
            (1.5, 0.2, 1.0), (1.5, 0.6, 3.0), (2.0, 0.5, 1.0), (2.0, 0.8, 2.0),
            (3.0, 0.4, 1.0), (3.0, 1.0, 2.0), (4.0, 0.25, 1.5), (5.0, 0.75, 1.0),
        ]
        for p, alpha, t in triples:
            pair = make_transform(alpha, t)
            numeric = transformed_riemann(power_integrand(1.0, p), pair).value
            assert power_oracle(p, alpha, t) == pytest.approx(numeric, rel=1e-8)

    def test_coefficient_scales_linearly(self):
        assert power_oracle(1.0, 0.5, 2.0, coefficient=3.0) == pytest.approx(
            3.0 * power_oracle(1.0, 0.5, 2.0), rel=1e-14
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_oracle(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            power_oracle(1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            power_oracle(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [
        kind(value)
        for value in (float("nan"), float("inf"), float("-inf"))
        for kind in (float, np.float64, np.array)  # np.array makes a 0-d array
    ], ids=repr)
    def test_non_finite_exponent_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="finite"):
            power_oracle(bad, 0.5, 1.0)

    @pytest.mark.parametrize(("bad", "error"), ((None, TypeError), ("abc", ValueError)))
    def test_non_number_exponent_raises_what_float_raises(self, bad, error):
        with pytest.raises(error):
            power_oracle(bad, 0.5, 1.0)

    def test_overflow_is_a_numerical_failure(self):
        # t**(p+alpha) overflows a double
        with pytest.raises(NumericalError, match="overflows"):
            power_oracle(2.0, 0.5, 1e130)
        # the power is finite but the product with the coefficient is not
        assert power_oracle(0.0, 1.0, 1e308) == pytest.approx(1e308, rel=1e-12)
        with pytest.raises(NumericalError, match="non-finite"):
            power_oracle(0.0, 1.0, 1e308, coefficient=10.0)
        with pytest.raises(NumericalError):
            FractionalOperator(0.5, "oracle").apply(power_integrand(1.0, 2.0), 1e130)

    @pytest.mark.parametrize("c, p, alpha, t", [
        (1.0, 200.0, 0.5, 2.0),  # Gamma(201) overflows
        (1e-300, 40.0, 0.5, 1e8),  # t**40.5 overflows
        (-1e-300, 40.0, 0.5, 1e8),
        (1e-300, 3.0, 0.5, 1e150),
        (2.5, 171.0, 0.9, 0.5),  # Gamma(172.9) overflows, Gamma(172) does not
        (1e300, 170.0, 0.5, 1.0),  # c * Gamma(171) overflows
        (1.0, 1e3, 0.5, 1.0),  # lgamma(p+1) - lgamma(p+1+alpha) would lose 1e-12
        (2.5, 1e3, 0.7, 1.5),
        (1.0, 1e6, 0.3, 1.0),
        (1.0, 1e17, 0.5, 1.0),  # p+1 and p+1+alpha round to one double
        (1.0, 1e17, 1.0, 1.0),
    ])
    def test_overflowing_factors_of_a_finite_value_go_through_logarithms(self, c, p, alpha, t):
        with mpmath.workdps(60):
            x = mpmath.mpf(p) + 1
            log_ratio = mpmath.loggamma(x) - mpmath.loggamma(x + alpha)
            exact = c * mpmath.exp(log_ratio) * mpmath.mpf(t) ** (mpmath.mpf(p) + alpha)
            value = power_oracle(p, alpha, t, c)
            assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_a_zero_coefficient_with_overflowing_factors_is_zero(self):
        assert power_oracle(200.0, 0.5, 2.0, 0.0) == 0.0

    def test_a_value_past_the_largest_double_still_raises(self):
        with pytest.raises(NumericalError, match="overflows a double"):
            power_oracle(3.0, 0.5, 1e200, 1e-300)

    def test_finite_values_keep_the_bits_of_the_direct_product(self):
        # where t**(p+alpha) is subnormal or 0 the oracle takes logarithms instead
        rng = np.random.default_rng(21)
        for _ in range(2000):
            c = float(rng.choice([1.0, -2.5, 1e-300, 1e300])) * rng.uniform(0.5, 2.0)
            p, alpha, t = rng.uniform(0.0, 170.0), rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-5.0, 5.0)
            try:
                direct = c * math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha) * t ** (p + alpha)
            except OverflowError:
                continue
            if not math.isfinite(direct):
                continue
            value = power_oracle(p, alpha, t, c)
            if t ** (p + alpha) >= sys.float_info.min:
                assert value == direct
            else:
                exact = exact_power_integral(c, p, alpha, t)
                assert abs(value - exact) <= 1e-12 * max(abs(exact), sys.float_info.min)

    @pytest.mark.parametrize("c, p, alpha, t", [
        (1e200, 40.0, 0.5, 1e-9),  # t**40.5 is 0.0, and so is the direct product
        (1.9165204978129137e300, 1.0729022206143846, 0.03203115298798109, 7.906773054135529e-292),
        (1.83e300, 1.662, 0.9993, 1.87e-121),  # subnormal t**(p+alpha): the direct product is 1%, 0.3% off
    ])
    def test_a_subnormal_power_goes_through_logarithms(self, c, p, alpha, t):
        assert t ** (p + alpha) < sys.float_info.min
        exact = exact_power_integral(c, p, alpha, t)
        assert abs(power_oracle(p, alpha, t, c) - exact) <= 1e-12 * abs(exact)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        log_c=st.floats(-300.0, 300.0),
        sign=st.sampled_from((1.0, -1.0)),
        p=st.one_of(st.floats(0.0, 200.0), st.floats(2.0, 6.0).map(lambda e: 10.0 ** e)),
        alpha=st.floats(0.0, 1.0),
        log_value=st.floats(-330.0, 330.0),
    )
    def test_matches_mpmath_across_the_domain(self, log_c, sign, p, alpha, log_value):
        # t puts c * t**(p+alpha) near 10**log_value, so most values are normal doubles;
        # t is kept in [1e-300, 1e300], which leaves some below or past the double range
        exponent = p + alpha
        log_t = (log_value - log_c) / exponent if exponent else 0.0
        c, t = sign * 10.0 ** log_c, 10.0 ** min(max(log_t, -300.0), 300.0)
        exact = abs(exact_power_integral(c, p, alpha, t))
        if exact > sys.float_info.max * (1.0 + 1e-12):
            with pytest.raises(NumericalError, match="overflows a double"):
                power_oracle(p, alpha, t, c)
        elif exact < sys.float_info.max * (1.0 - 1e-12):
            value = power_oracle(p, alpha, t, c)
            assert math.copysign(1.0, value) == sign
            assert abs(abs(value) - exact) <= 1e-12 * max(exact, sys.float_info.min)


class TestPowerIntegrand:
    @pytest.mark.parametrize("c", (1e200, -1e200))
    @pytest.mark.parametrize("route", ("transformed", "direct", "stieltjes", "cavalieri"))
    def test_a_subnormal_power_is_scaled_up_through_logarithms(self, route, c):
        # tau**40 is 0.0 for tau below 1e-8, so c * tau**40 is 0.0 on all of [0, 1e-9]
        value = FractionalOperator(0.5, route=route).apply(power_integrand(c, 40.0), 1e-9).value
        exact = power_oracle(40.0, 0.5, 1e-9, c)
        tol = 1e-4 if route in ("stieltjes", "cavalieri") else 1e-9
        assert abs(value - exact) <= tol * abs(exact)

    @pytest.mark.parametrize("c", (1e-300, -1e-300, 0.0))
    @pytest.mark.parametrize("route", ("transformed", "direct", "stieltjes", "cavalieri"))
    def test_an_overflowing_power_is_scaled_down_through_logarithms(self, route, c):
        # tau**40 is inf for tau above about 5e7, though c * tau**40 is at most 1e20,
        # and 0 where c = 0
        value = FractionalOperator(0.5, route=route).apply(power_integrand(c, 40.0), 1e8).value
        exact = power_oracle(40.0, 0.5, 1e8, c)
        tol = 1e-4 if route in ("stieltjes", "cavalieri") else 1e-9
        assert abs(value - exact) <= tol * abs(exact)

    def test_values_keep_the_bits_of_the_direct_product_where_the_power_is_normal(self):
        rng = np.random.default_rng(23)
        for _ in range(400):
            c = float(rng.choice([1.0, -2.5, 1e-300, 1e100, -1e300])) * rng.uniform(0.5, 2.0)
            p = float(rng.choice([rng.uniform(0.0, 3.0), rng.uniform(0.0, 200.0)]))
            tau = np.append(10.0 ** rng.uniform(-12.0, 3.0, size=31), 0.0)
            with np.errstate(over="ignore"):
                values = power_integrand(c, p).fn(tau)
                power = tau**p
                expected = c * power
            # the elements that go through logarithms: a power below the normal doubles
            # when c scales up, and a power past the largest double when c scales down
            if abs(c) > 1.0:
                redone = (power < sys.float_info.min) & (tau > 0.0)
            else:
                redone = np.isinf(power) & (abs(c) < 1.0)
            kept = ~redone
            assert np.array_equal(values[kept].view(np.int64), expected[kept].view(np.int64))
            for x, value in zip(tau[redone], values[redone]):
                with mpmath.workdps(30):
                    exact = float(c * mpmath.mpf(x) ** p)
                if math.isinf(exact):
                    assert value == exact
                else:
                    assert abs(value - exact) <= 1e-12 * max(abs(exact), sys.float_info.min)

    @pytest.mark.parametrize("c", (1.0, -1.0, 0.5, 3.0))
    @pytest.mark.parametrize("p", (0.0, 0.5, 1.0, 2.0, 2.7))
    def test_values_are_c_times_the_power_bit_for_bit(self, c, p):
        # type, shape and bytes of c * x**p, for an array and for each 0-d value, at every
        # x whose power no logarithm path redoes; a unit c is never redone
        xs = np.concatenate(([0.0, 5e-324, 1e-150, 1e150],
                             10.0 ** np.random.default_rng(29).uniform(-320.0, 300.0, size=60)))
        with np.errstate(over="ignore"):
            power = xs**p
        if abs(c) > 1.0:
            redone = (power < sys.float_info.min) & (xs > 0.0)
        else:
            redone = np.isinf(power) & (abs(c) < 1.0)
        kept = xs[~redone]
        assert kept.size >= 40 and 0.0 in kept
        fn = power_integrand(c, p).fn
        with np.errstate(over="ignore"):
            for x, expected in [(kept, c * kept**p)] + [
                    (np.asarray(v), c * np.asarray(v) ** p) for v in kept]:
                value = fn(x)
                assert type(value) is type(expected) and np.shape(value) == np.shape(expected)
                assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), (x, value)

    def test_a_scalar_array_is_scaled_up_too(self):
        value = power_integrand(-1e200, 40.0).fn(np.asarray(1e-9))
        assert value.shape == () and value == pytest.approx(-1e-160, rel=1e-13)


class TestApply:
    def test_identity_order_returns_plain_value(self):
        result = FractionalOperator(0.0).apply(LINEAR, 7.0)
        assert result.value == 7.0
        assert result.error_estimate == 0.0

    def test_order_one_sqrt(self):
        result = FractionalOperator(1.0).apply(SQRT, 4.0)
        assert result.value == pytest.approx(16.0 / 3.0, rel=1e-9)

    def test_mid_order_linear(self):
        result = FractionalOperator(0.6).apply(LINEAR, 10.0)
        assert result.value == pytest.approx(closed_form("linear", 0.6, 10.0), rel=1e-8)

    @pytest.mark.parametrize("route", ("direct", "stieltjes", "cavalieri", "transformed", "oracle"))
    def test_route_dispatch(self, route):
        op = FractionalOperator(0.5, route=route, n=200_000)
        result = op.apply(LINEAR, 1.0)
        tol = 1e-4 if route in ("stieltjes", "cavalieri") else 1e-9
        assert result.value == pytest.approx(FOUR_OVER_3SQRTPI, rel=tol)
        assert result.method == route

    def test_oracle_route_needs_power_metadata(self):
        plain = Integrand(fn=lambda x: np.asarray(x, float), label="anon")
        with pytest.raises(DomainError):
            FractionalOperator(0.5, route="oracle").apply(plain, 1.0)

    def test_invalid_configuration(self):
        with pytest.raises(DomainError):
            FractionalOperator(1.2)
        with pytest.raises(DomainError):
            FractionalOperator(0.5, route="simpson")

    @pytest.mark.parametrize("route", METHODS)
    @pytest.mark.parametrize("setting", BAD_SETTINGS, ids=str)
    def test_a_setting_every_apply_refuses_is_refused_at_construction(self, route, setting):
        """The same DomainError text as the check each apply of the route makes;
        a route that never reads the setting, and order 0, accept it and apply."""
        ((key, value),) = setting.items()
        if route in SETTING_ROUTES[key]:
            with pytest.raises(DomainError) as refused:
                FractionalOperator(0.5, route, **setting)
            with pytest.raises(DomainError) as at_apply:
                if key == "n":
                    make_partition(make_transform(0.5, 1.0), value)
                else:
                    adaptive_quadrature(np.exp, 0.0, 1.0, **setting)
            assert str(refused.value) == str(at_apply.value)
        else:
            op = FractionalOperator(0.5, route, **{"n": 1000, **setting})
            assert op.apply(LINEAR, 1.0).value == pytest.approx(FOUR_OVER_3SQRTPI, rel=1e-3)
        assert FractionalOperator(0.0, route, **setting).apply(LINEAR, 3.0).value == 3.0

    @pytest.mark.parametrize("route", ("direct", "transformed", "stieltjes", "cavalieri"))
    def test_overflowing_value_raises(self, route):
        # the panel sums are finite, and the 1/Gamma(alpha+1) scale pushes them past
        # the range; the strip sums overflow in the dot product.  QuadratureResult
        # refuses every one.
        with pytest.raises(NumericalError):
            FractionalOperator(0.5, route=route).apply(power_integrand(8e307, 0.0), 4.0)

    @pytest.mark.parametrize("route", ("stieltjes", "cavalieri"))
    def test_sums_refuse_an_overflowing_integrand_without_a_warning(self, route):
        # 1e308 * tau**2 overflows inside f; the inf total is refused, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=f"non-finite {route} result"):
                FractionalOperator(0.5, route=route).apply(power_integrand(1e308, 2.0), 10.0)

    @pytest.mark.parametrize("route", ("stieltjes", "cavalieri"))
    def test_sums_refuse_a_value_lost_to_underflowing_areas(self, route):
        # each f(x2_i) * width/n is below the smallest double, though the value is the
        # 3.31e-321 the adaptive routes and the oracle return
        op = FractionalOperator(0.05, route=route)
        with pytest.raises(NumericalError, match=f"every {route} strip area underflows to 0, "
                           r"though their total is about 3\.31e-321"):
            op.apply(power_integrand(1.0, 40.0), 1e-8)

    @pytest.mark.parametrize("route", ("direct", "transformed", "stieltjes", "cavalieri"))
    def test_a_zero_integrand_integrates_to_zero(self, route):
        result = FractionalOperator(0.5, route=route).apply(Integrand(fn=np.zeros_like), 1e8)
        assert (result.value, result.error_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize("route", ("direct", "transformed"))
    def test_adaptive_routes_turn_a_raised_warning_into_a_numerical_failure(self, route):
        # under an "error" filter numpy raises its overflow warning inside f
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"overflow encountered in multiply while "
                               r"integrating on \[0, 3\.16228\]") as raised:
                FractionalOperator(0.5, route=route).apply(power_integrand(1e308, 2.0), 10.0)
        assert isinstance(raised.value.__cause__, RuntimeWarning)


class ArraySpy:
    """An integrand function that records the type and dtype of every argument."""

    def __init__(self, fn):
        self.fn = fn
        self.seen = []

    def __call__(self, x):
        self.seen.append((type(x), getattr(x, "dtype", None)))
        return self.fn(x)

    def saw_only_float_arrays(self):
        return bool(self.seen) and set(self.seen) == {(np.ndarray, np.dtype(np.float64))}


def spy_integrand(fn=lambda x: x**1.5):
    spy = ArraySpy(fn)
    return spy, Integrand(fn=spy, monotone=INCREASING)


class TestEachMethodHasItsOwnEngine:
    """apply calls each engine, and make_transform, by its name in fracint.operator,
    where a tracer rebinds them."""

    ENGINES = {
        "direct": "direct_rl",
        "transformed": "transformed_riemann",
        "stieltjes": "stieltjes_sum",
        "cavalieri": "cavalieri_sum",
        "oracle": "power_oracle",
    }

    @pytest.mark.parametrize("method", sorted(ENGINES))
    def test_dispatch_goes_through_the_module_names(self, method, monkeypatch):
        called = []
        for name in (*self.ENGINES.values(), "make_transform"):
            def spy(*args, _name=name, _engine=getattr(fracint.operator, name)):
                called.append(_name)
                return _engine(*args)

            monkeypatch.setattr(fracint.operator, name, spy)
        result = FractionalOperator(0.5, method, n=1000).apply(LINEAR, 1.0)
        # direct builds its own pair inside the engine, and the oracle needs none
        pair = [] if method in ("direct", "oracle") else ["make_transform"]
        assert called == pair + [self.ENGINES[method]]
        assert result.method == method


class TestIntegrandContract:
    """Every route and builder hands fn a float64 ndarray, and nothing else."""

    @pytest.mark.parametrize("alpha, route", [
        (0.5, "direct"), (0.5, "transformed"), (0.5, "stieltjes"), (0.5, "cavalieri"),
        (0.0, "transformed"),
    ])
    def test_routes(self, alpha, route):
        spy, f = spy_integrand()
        FractionalOperator(alpha, route, n=1000).apply(f, 2.0)
        assert spy.saw_only_float_arrays(), spy.seen

    @pytest.mark.parametrize("build", [
        lambda f: build_strips(f, make_transform(0.5, 2.0), 5),
        lambda f: region_family(f, [0.0, 0.5], [1.0, 2.0], samples=20),
        lambda f: compose(FractionalOperator(0.3), FractionalOperator(0.4), f, 1.0, grid=64),
        lambda f: cauchy_repeated(f, 3, 2.0),
    ], ids=("build_strips", "region_family", "compose", "cauchy_repeated"))
    def test_builders(self, build):
        spy, f = spy_integrand()
        build(f)
        assert spy.saw_only_float_arrays(), spy.seen

    def test_stieltjes_integral_and_cavalieri_region(self):
        f, g_prime = ArraySpy(lambda x: x), ArraySpy(lambda x: 2.0 + 0.0 * x)
        assert stieltjes_integral(f, g_prime, 0.5, 2.0) == pytest.approx(3.75, abs=1e-9)
        # the region between y = x, x = 1 - y and x = 4 - y
        region_f, left = ArraySpy(lambda x: x), ArraySpy(lambda y: 1.0 - y)
        region = CavalieriRegion(f=region_f, left=left, width=3.0)
        assert region.area() == pytest.approx(3.75, abs=1e-9)
        for spy in (f, g_prime, region_f, left):
            assert spy.saw_only_float_arrays(), spy.seen

    def test_identity_curves_on_the_command_line(self, monkeypatch, capsys):
        # curves at order 0 evaluates f at t = 0 itself, outside any operator
        spies = []

        def spied_power(c, p):
            spy = ArraySpy(power_integrand(c, p).fn)
            spies.append(spy)
            return Integrand(fn=spy, monotone=INCREASING, power=(c, p))

        monkeypatch.setattr(cli, "power_integrand", spied_power)
        argv = ["curves", "--alpha", "0", "--t-start", "0", "--t-stop", "1", "--t-step", "0.5"]
        assert cli.main(argv) == 0
        assert "0.00000000000e+00" in capsys.readouterr().out
        assert len(spies) == 1 and spies[0].saw_only_float_arrays(), spies


class TestCompose:
    def test_halves_recover_single_integration(self):
        half = FractionalOperator(0.5)
        value = compose(half, half, LINEAR, 2.0)
        assert value == pytest.approx(2.0, rel=1e-4)

    def test_pinned_mixed_orders(self):
        value = compose(FractionalOperator(0.3), FractionalOperator(0.4), LINEAR, 1.0)
        assert value == pytest.approx(POWER_P1_ALPHA07, rel=1e-4)
        value = compose(FractionalOperator(0.3), FractionalOperator(0.4), SQRT, 1.0)
        assert value == pytest.approx(POWER_P05_ALPHA07, rel=1e-4)

    def test_identity_factor_short_circuits(self):
        op = FractionalOperator(0.7)
        ident = FractionalOperator(0.0)
        expected = op.apply(LINEAR, 3.0).value
        assert compose(op, ident, LINEAR, 3.0) == expected
        assert compose(ident, op, LINEAR, 3.0) == expected

    @pytest.mark.parametrize("pair", [(0.2, 0.2), (0.3, 0.4), (0.5, 0.5)])
    @pytest.mark.parametrize("f, family", [(LINEAR, "linear"), (SQRT, "sqrt")])
    @pytest.mark.parametrize("t", (1.0, 2.0))
    def test_order_addition_grid(self, pair, f, family, t):
        alpha, beta = pair
        composed = compose(FractionalOperator(alpha), FractionalOperator(beta), f, t, grid=256)
        direct = FractionalOperator(alpha + beta).apply(f, t).value
        assert abs(composed - direct) / abs(direct) <= 1e-4

    @pytest.mark.parametrize("route", ("transformed", "direct", "cavalieri"))
    @pytest.mark.parametrize("orders, t", [((0.3, 0.4), 1.0), ((0.5, 0.5), 7.0), ((0.05, 0.9), 1e-3)])
    def test_the_outer_route_samples_the_interpolant_on_0_t(self, route, orders, t, monkeypatch):
        # the interpolant clamps nothing: every abscissa it is handed lies in [0, t]
        seen = []

        def recording_spline(x, y):
            spline = not_a_knot_spline(x, y)

            def recorded(points):
                seen.append(np.array(points))
                return spline(points)

            return recorded

        monkeypatch.setattr(fracint.operator, "not_a_knot_spline", recording_spline)
        alpha, beta = orders
        compose(FractionalOperator(alpha, route, n=1000), FractionalOperator(beta), LINEAR, t)
        points = np.concatenate(seen)
        assert seen and points.min() >= 0.0 and points.max() <= t

    def test_rejects_excessive_total_order(self):
        with pytest.raises(DomainError):
            compose(FractionalOperator(0.7), FractionalOperator(0.7), LINEAR, 1.0)

    def test_overflowing_inner_value_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError):
                compose(FractionalOperator(0.5), FractionalOperator(0.5),
                        power_integrand(8e307, 0.0), 4.0)

    def test_overflowing_integrand_raises_a_numerical_failure(self):
        # the inner applies near t overflow inside f; the raised warning becomes NumericalError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="overflow encountered") as raised:
                compose(FractionalOperator(0.5), FractionalOperator(0.5),
                        power_integrand(1e308, 2.0), 10.0)
        assert isinstance(raised.value.__cause__, RuntimeWarning)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            compose(FractionalOperator(0.3), FractionalOperator(0.3), LINEAR, 1.0, grid=32)

    @pytest.mark.parametrize("orders", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0), (0.2, 0.5)])
    def test_grid_is_checked_before_the_identity_shortcuts(self, orders):
        outer, inner = (FractionalOperator(alpha) for alpha in orders)
        with pytest.raises(DomainError, match="composition grid must be >= 64, got 3"):
            compose(outer, inner, LINEAR, 1.0, grid=3)


    @pytest.mark.parametrize("grid", (64.5, 100.7, 256.25, float("nan"), float("inf")))
    @pytest.mark.parametrize("orders", [(0.3, 0.4), (0.0, 0.5), (0.5, 0.0)])
    def test_a_grid_that_is_not_a_whole_number_is_refused(self, grid, orders):
        outer, inner = (FractionalOperator(alpha) for alpha in orders)
        with pytest.raises(DomainError, match="composition grid must be a whole number"):
            compose(outer, inner, LINEAR, 1.0, grid=grid)

    def test_an_integral_float_grid_keeps_its_bits(self):
        ops = FractionalOperator(0.3), FractionalOperator(0.4)
        assert compose(*ops, SQRT, 1.0, grid=64.0) == compose(*ops, SQRT, 1.0, grid=64)

class TestNotAKnotSpline:
    def test_reproduces_a_cubic(self):
        nodes = chebyshev_nodes(17, 3.0)
        cubic = np.polynomial.Polynomial([0.5, -2.0, 1.5, 0.75])
        spline = not_a_knot_spline(nodes, cubic(nodes))
        # the knots themselves, and points past both ends on the extended end pieces
        xs = np.concatenate((np.linspace(-0.5, 3.5, 1001), nodes))
        assert np.max(np.abs(spline(xs) - cubic(xs))) <= 1e-13 * np.max(np.abs(cubic(xs)))

    @staticmethod
    def third_derivative(spline, lo, hi):
        # the piece on [lo, hi] is a cubic, so its third divided difference
        # on four interior points is exactly its leading coefficient
        xs = lo + (hi - lo) * np.array([0.2, 0.4, 0.6, 0.8])
        h = xs[1] - xs[0]
        return float(np.dot([-1.0, 3.0, -3.0, 1.0], spline(xs))) / h**3

    def test_third_derivative_continuous_at_second_and_next_to_last_knot(self):
        nodes = chebyshev_nodes(9, 2.0)
        spline = not_a_knot_spline(nodes, np.sin(3.0 * nodes))
        d3 = [self.third_derivative(spline, a, b) for a, b in zip(nodes[:-1], nodes[1:])]
        scale = max(abs(v) for v in d3)
        assert abs(d3[0] - d3[1]) <= 1e-6 * scale
        assert abs(d3[-2] - d3[-1]) <= 1e-6 * scale
        # an ordinary interior knot does jump, so the check can fail
        assert abs(d3[3] - d3[4]) > 1e-3 * scale

    def test_matches_scipy_where_installed(self):
        # scipy's CubicSpline solves the same system and is the reference
        interpolate = pytest.importorskip("scipy.interpolate")
        nodes = chebyshev_nodes(256, 5.0)
        values = nodes**0.8 * np.cos(nodes)  # a compose-like image: t**0.8 near 0
        xs = np.linspace(0.0, 5.0, 4001)
        expected = interpolate.CubicSpline(nodes, values)(xs)
        got = not_a_knot_spline(nodes, values)(xs)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(DomainError):
            not_a_knot_spline([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])

    def test_overflowing_slopes_raise_without_warnings(self):
        # finite values whose divided differences overflow
        nodes = chebyshev_nodes(16, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not-a-knot spline"):
                not_a_knot_spline(nodes, np.where(np.arange(16) % 2, 1e307, -1e307))


def test_compose_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(fracint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, fracint\n"
        "half = fracint.FractionalOperator(0.5)\n"
        "fracint.compose(half, half, fracint.power_integrand(1.0, 1.0), 2.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "[]"


def test_public_names_and_readme_example():
    # every exported name resolves, and the README's library example runs warning-free
    assert [name for name in fracint.__all__ if not hasattr(fracint, name)] == []
    src = os.path.dirname(os.path.dirname(fracint.__file__))
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        (code,) = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr


def test_chebyshev_nodes_shape():
    nodes = chebyshev_nodes(9, 2.0)
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(DomainError, match="node count must be >= 2"):
        chebyshev_nodes(1, 1.0)
    assert np.all(np.diff(nodes) > 0)
    assert len(nodes) == 9


@pytest.mark.parametrize("count", (4.5, 2.000001, float("nan"), float("inf")))
def test_chebyshev_nodes_refuse_a_count_that_is_not_a_whole_number(count):
    with pytest.raises(DomainError, match="node count must be a whole number"):
        chebyshev_nodes(count, 1.0)


@pytest.mark.parametrize("count", (2, 5, 64, 257))
def test_chebyshev_nodes_of_an_integral_float_keep_their_bits(count):
    nodes = chebyshev_nodes(float(count), 3.0)
    assert nodes.tobytes() == chebyshev_nodes(count, 3.0).tobytes()
    assert nodes[-1] == 3.0 and len(nodes) == count

def test_order_response_is_smooth():
    # values along an order sweep should show no isolated jumps
    t = 5.0
    alphas = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
    values = []
    for alpha in alphas:
        if alpha == 0.0:
            values.append(float(LINEAR(t)))
        else:
            values.append(FractionalOperator(float(alpha), budget=40_000).apply(LINEAR, t).value)
    steps = np.abs(np.diff(values))
    scale = max(abs(v) for v in values)
    for k in range(1, len(steps) - 1):
        local = max(steps[k - 1], steps[k + 1])
        assert steps[k] <= 10.0 * local + 1e-12 * scale
