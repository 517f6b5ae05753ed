import os
import subprocess
import sys

import numpy as np
import pytest

import fracint

from fracint.engines import transformed_riemann
from fracint.errors import DomainError, NumericalError
from fracint.integrand import Integrand, power_integrand
from fracint.operator import (
    FractionalOperator,
    chebyshev_nodes,
    compose,
    not_a_knot_spline,
    power_oracle,
)
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

    def test_rejects_excessive_total_order(self):
        with pytest.raises(DomainError):
            compose(FractionalOperator(0.7), FractionalOperator(0.7), LINEAR, 1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            compose(FractionalOperator(0.3), FractionalOperator(0.3), LINEAR, 1.0, grid=32)


class TestNotAKnotSpline:
    def test_reproduces_a_cubic(self):
        nodes = chebyshev_nodes(17, 3.0)
        cubic = np.polynomial.Polynomial([0.5, -2.0, 1.5, 0.75])
        spline = not_a_knot_spline(nodes, cubic(nodes))
        xs = np.linspace(0.0, 3.0, 1001)
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


def test_chebyshev_nodes_shape():
    nodes = chebyshev_nodes(9, 2.0)
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.diff(nodes) > 0)
    assert len(nodes) == 9


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
