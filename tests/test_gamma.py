import math

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import gamma as mp_gamma
from mpmath import quad as mp_quad

from fracint.errors import DomainError, PoleError
from fracint.gamma import gamma, recip_gamma

from _reference import GAMMA_REF, SQRT_PI

mp.dps = 30


def gamma_integral_oracle(x: float) -> float:
    """Slow validation oracle: quadrature of the defining integral."""
    x = mpf(x)
    return float(mp_quad(lambda u: u ** (x - 1) / mp.e**u, [0, mp.inf]))


def test_half_integer_and_factorial_values():
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)


def test_pinned_high_precision_value():
    assert gamma(1.2) == pytest.approx(GAMMA_REF[1.2], rel=1e-13)


@pytest.mark.parametrize("x, expected", sorted(GAMMA_REF.items()))
def test_reference_table(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-13)


def test_accuracy_window():
    # the whole finite range, at least 1e-6 from every pole
    xs = [x for x in np.linspace(-10.0, 171.6, 4001) if x > 0.5 or abs(x - round(x)) >= 1e-6]
    for x in xs:
        ref = mp_gamma(x)
        assert abs((gamma(x) - ref) / ref) <= 2e-15


def test_recurrence_invariant():
    xs = np.linspace(0.5, 10.0, 1001)
    resid = max(abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0) for x in xs)
    assert resid <= 1e-11


def test_factorial_agreement():
    for n in range(1, 13):
        exact = math.factorial(n - 1)
        assert abs(gamma(n) - exact) / exact <= 1e-12


def test_reflection_consistency():
    xs = np.linspace(0.01, 0.99, 99)
    for x in xs:
        assert gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi == pytest.approx(
            1.0, abs=1e-10
        )


def test_negative_non_integer_arguments():
    for x in (-0.5, -1.5, -2.5, -4.3):
        assert gamma(x) == pytest.approx(float(mp_gamma(x)), rel=1e-11)


def test_poles_raise():
    for x in (0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13):
        with pytest.raises(PoleError):
            gamma(x)


def test_non_finite_and_overflow_rejected():
    with pytest.raises(DomainError):
        gamma(float("nan"))
    with pytest.raises(DomainError):
        gamma(float("inf"))
    with pytest.raises(DomainError):
        gamma(200.0)


def test_recip_gamma_zeros_and_values():
    assert recip_gamma(0.0) == 0.0
    assert recip_gamma(-3.0) == 0.0
    assert recip_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert recip_gamma(0.5) == pytest.approx(0.5641895835477563, rel=1e-13)
    assert recip_gamma(200.0) == 0.0  # underflows instead of overflowing


def test_gamma_up_to_the_largest_double():
    # Gamma(171.6243) is 1.79698e308, below the largest double, and math.gamma decides
    assert gamma(171.6243) == pytest.approx(float(mp_gamma(mpf(171.6243))), rel=2e-15)
    for x in (171.7, 1e10):
        with pytest.raises(DomainError, match="overflows"):
            gamma(x)


@pytest.mark.parametrize("x", (171.6243, 172.0, 175.0, 177.7, 178.0, 200.0))
def test_recip_gamma_is_subnormal_past_the_overflow_of_gamma(x):
    # 1/Gamma is a nonzero subnormal on about (171.62, 177.7], and 0.0 beyond
    exact = float(1 / mp_gamma(mpf(x)))
    assert abs(recip_gamma(x) - exact) <= 1e-13 * exact + 2.0**-1074


def test_recip_times_gamma_is_one():
    for x in np.linspace(0.5, 20.0, 301):
        assert abs(recip_gamma(x) * gamma(x) - 1.0) <= 1e-11
    for x in (-0.5, -2.5, 0.25):
        assert abs(recip_gamma(x) * gamma(x) - 1.0) <= 1e-11


def test_integral_definition_oracle():
    for x in (0.5, 1.2, 2.5, 5.0):
        assert gamma(x) == pytest.approx(gamma_integral_oracle(x), rel=1e-8)


def test_recip_gamma_refuses_nan():
    with pytest.raises(DomainError, match="must be finite"):
        recip_gamma(float("nan"))


def test_far_negative_arguments_underflow():
    # Gamma is finite but subnormal here, and below it rounds to a signed zero
    assert gamma(-171.7) == float(mp_gamma(-171.7))
    assert gamma(-180.5) == 0.0
    for x in (-171.7, -180.5):
        with pytest.raises(DomainError, match="overflows"):
            recip_gamma(x)
