import numpy as np
import pytest

from fracint.errors import DomainError, NonMonotoneError
from fracint.integrand import Integrand, power_integrand
from fracint.strips import build_strips, region_family
from fracint.transforms import make_transform, validate_horizon, validate_order

from _reference import (
    ALPHA_GRID,
    A_AT_Y2_ALPHA05_T4,
    G_AT4_ALPHA05_T4,
    G_AT5_ALPHA02_T10,
    G_AT10_ALPHA04_T10,
    HORIZON_GRID,
)

LINEAR = power_integrand(1.0, 1.0)


def test_order_validation():
    assert validate_order(0.7) == 0.7
    assert validate_order(0.0) == 0.0
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(DomainError):
            validate_order(bad)
    # order 0 is the identity, which has no transform pair
    with pytest.raises(DomainError, match="identity"):
        make_transform(0.0, 1.0)


def test_horizon_validation():
    assert validate_horizon(3.0) == 3.0
    for bad in (0.0, -2.0, float("inf")):
        with pytest.raises(DomainError):
            validate_horizon(bad)


NON_FINITE = [
    kind(value)
    for value in (float("nan"), float("inf"), float("-inf"))
    for kind in (float, np.float64, np.array)  # np.array makes a 0-d array
]


@pytest.mark.parametrize("validate", (validate_order, validate_horizon))
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_non_finite_input_is_a_domain_error(validate, bad):
    with pytest.raises(DomainError, match="finite"):
        validate(bad)


@pytest.mark.parametrize("validate", (validate_order, validate_horizon))
@pytest.mark.parametrize(("bad", "error"), (
    (None, TypeError), ("abc", ValueError), ("", ValueError), ("nan", DomainError),
))
def test_non_numbers_raise_what_float_raises(validate, bad, error):
    with pytest.raises(error):
        validate(bad)


def test_make_transform_rejects_degenerate_order():
    with pytest.raises(DomainError):
        make_transform(0.0, 10.0)


def test_identity_order_collapses_pointwise():
    pair = make_transform(1.0, 10.0)
    taus = np.linspace(0.0, 10.0, 1001)
    assert np.max(np.abs(pair.forward(taus) - taus)) <= 1e-12 * 10.0
    assert np.max(np.abs(pair.inverse(taus) - taus)) <= 1e-12 * 10.0


def test_pinned_forward_values():
    assert make_transform(0.2, 10.0).forward(5.0) == pytest.approx(
        G_AT5_ALPHA02_T10, rel=1e-13
    )
    assert make_transform(0.5, 4.0).forward(4.0) == pytest.approx(
        G_AT4_ALPHA05_T4, rel=1e-13
    )
    assert make_transform(0.4, 10.0).forward(10.0) == pytest.approx(
        G_AT10_ALPHA04_T10, rel=1e-13
    )


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("t", HORIZON_GRID)
def test_endpoints_and_round_trip(alpha, t):
    pair = make_transform(alpha, t)
    assert pair.forward(0.0) == 0.0
    assert pair.forward(t) == pytest.approx(pair.width, rel=1e-12)
    assert abs(pair.inverse(0.0)) <= 1e-12 * t
    assert pair.inverse(pair.width) == pytest.approx(t, rel=1e-12)

    taus = np.linspace(0.0, t, 1000)
    assert np.max(np.abs(pair.inverse(pair.forward(taus)) - taus)) <= 1e-10 * t


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_forward_strictly_increasing(alpha):
    pair = make_transform(alpha, 10.0)
    values = pair.forward(np.linspace(0.0, 10.0, 1000))
    assert np.all(np.diff(values) > 0.0)


def test_domain_errors():
    pair = make_transform(0.5, 4.0)
    with pytest.raises(DomainError):
        pair.forward(-0.5)
    with pytest.raises(DomainError):
        pair.forward(4.5)
    with pytest.raises(DomainError):
        pair.inverse(pair.width + 1.0)
    with pytest.raises(DomainError):
        pair.inverse(-0.1)


@pytest.mark.parametrize("bad", (
    np.nan,
    np.array(np.nan),
    np.array([0.0, np.nan, 1.0]),
    np.array([np.nan, np.nan]),
))
def test_nan_is_outside_every_range(bad):
    pair = make_transform(0.5, 2.0)
    with pytest.raises(DomainError, match="tau outside"):
        pair.forward(bad)
    with pytest.raises(DomainError, match="x outside"):
        pair.inverse(bad)
    if np.ndim(bad):
        into = np.zeros(np.shape(bad))
        with pytest.raises(DomainError, match="x outside"):
            pair.inverse(bad, out=into)
        assert not into.any()


def test_in_range_values_pass_the_nan_refusing_check():
    # the ends and the slack past them are still inside
    pair = make_transform(0.5, 2.0)
    slack = 1e-12
    taus = np.array([-slack * pair.t, 0.0, 1.0, pair.t, pair.t * (1.0 + slack)])
    xs = np.array([-slack * pair.width, 0.0, pair.width, pair.width * (1.0 + slack)])
    assert np.isfinite(pair.forward(taus)).all()
    assert np.isfinite(pair.inverse(xs)).all()
    assert pair.forward(np.empty(0)).shape == pair.inverse(np.empty(0)).shape == (0,)


def test_radicand_clamping_near_right_endpoint():
    pair = make_transform(0.5, 4.0)
    # nudge just past the endpoint but inside the clamping tolerance
    assert pair.inverse(pair.width + 1e-13) == pytest.approx(4.0, rel=1e-12)


# (0.6198855958466016, 16670556.346037818) came from a random search: there
# Gamma(alpha+1) * width rounds above t**alpha by more than 1e-12
WIDE_PAIRS = [(0.85, 1e6), (0.6198855958466016, 16670556.346037818)]


@pytest.mark.parametrize("alpha, t", WIDE_PAIRS)
def test_inverse_accepts_its_own_right_end(alpha, t):
    pair = make_transform(alpha, t)
    assert pair.inverse(pair.width) == t
    assert pair.inverse(np.array([0.0, pair.width]))[-1] == t


def test_inverse_slack_scales_with_the_width():
    pair = make_transform(1.0, 1e-14)
    assert pair.inverse(pair.width) == 1e-14
    with pytest.raises(DomainError):
        pair.inverse(2e-14)
    with pytest.raises(DomainError):
        pair.inverse(-1e-14)


@pytest.mark.parametrize("alpha, t", [(0.37, 7.0), (0.5, 4.0), (1.0, 2.0)])
def test_inverse_is_tau_on_the_u_axis(alpha, t):
    pair = make_transform(alpha, t)
    xs = np.linspace(0.0, pair.width, 9)
    us = t**alpha - pair.gamma_alpha_plus_one * xs
    assert np.array_equal(pair.inverse(xs), pair.tau(np.maximum(us, 0.0)))
    assert pair.tau(0.0) == t
    assert pair.tau(t**alpha) == pytest.approx(0.0, abs=1e-14 * t)


@pytest.mark.parametrize("alpha", (0.05, 0.2, 1.0 / 3.0, 0.5, 1.0))
def test_tau_needs_no_upper_clip_on_its_domain(alpha):
    # for u >= 0, t - u**(1/alpha) never exceeds t: clipping to t changes no bit
    rng = np.random.default_rng(7)
    for t in (1e-9, 0.7, 30.0, 1e12):
        pair = make_transform(alpha, t)
        us = np.concatenate(([0.0, t**alpha], rng.uniform(0.0, 1.05 * t**alpha, 2000)))
        clipped = np.minimum(np.maximum(t - us ** (1.0 / alpha), 0.0), t)
        assert np.array_equal(pair.tau(us), clipped)
        for u in us[:40].tolist():  # a scalar u keeps the scalar pow
            assert pair.tau(u) == min(max(t - u ** (1.0 / alpha), 0.0), t)


# The left boundary of the region is the side tau -> (tau - g(tau), f(tau)); the strips
# draw it moved right by i strip widths, so the right edge is the side plus the width.


def test_left_boundary_values():
    # order 1: g(tau) = tau, so the left boundary collapses onto the y-axis; the right
    # edge is it moved by the width t / Gamma(2) = 7, here at tau = 3
    edge = build_strips(LINEAR, make_transform(1.0, 7.0), 1, 8).boundaries[-1]
    assert edge[3, 0] - 7.0 == pytest.approx(0.0, abs=1e-12)
    assert edge[3, 1] == 3.0

    # every boundary starts on the x-axis, i strip widths from the origin
    geom = build_strips(LINEAR, make_transform(0.8, 10.0), 5, 50)
    for i, boundary in enumerate(geom.boundaries):
        assert tuple(boundary[0]) == pytest.approx((i * geom.strip_width, 0.0), abs=1e-12)

    # tau = 2 of five steps over [0, 4]: the left boundary is at 2 - g(2) there
    pair = make_transform(0.5, 4.0)
    edge = build_strips(LINEAR, pair, 1, 5).boundaries[-1]
    assert edge[2, 0] - pair.width == pytest.approx(A_AT_Y2_ALPHA05_T4, rel=1e-12)
    assert edge[2, 0] - pair.width == pytest.approx(2.0 - pair.forward(2.0), rel=1e-12)
    assert edge[2, 1] == 2.0


def test_right_boundary_offset_and_anchor():
    # strips draws the right boundary as the left one shifted by the constant width
    for alpha in (0.8, 1.0):
        pair = make_transform(alpha, 10.0)
        edge = build_strips(LINEAR, pair, 1, samples_per_curve=50).boundaries[-1]
        taus = np.linspace(0.0, 10.0, 50)[:-1]
        assert len(edge) == 50
        offsets = edge[:-1, 0] - (taus - pair.forward(taus))
        assert np.max(np.abs(offsets - pair.width)) <= 1e-12 * pair.width
        # it meets the integrand curve at (t, f(t))
        assert tuple(edge[-1]) == pytest.approx((10.0, 10.0), rel=1e-12)
    # at order 1 it starts at x = t / Gamma(2) = t
    assert tuple(edge[0]) == pytest.approx((10.0, 0.0), rel=1e-12)


def test_left_boundary_requires_monotonicity():
    # the side is drawn for a declared increasing f only, at order 0 (x = tau) too
    wiggle = Integrand(fn=lambda x: np.sin(np.asarray(x, float)), label="sin")
    with pytest.raises(NonMonotoneError, match="strictly increasing integrand, got 'sin'"):
        build_strips(wiggle, make_transform(0.5, 2.0), 1)
    with pytest.raises(NonMonotoneError, match="strictly increasing integrand, got 'sin'"):
        region_family(wiggle, [0.0], [2.0])
