"""Tests for the closed-form kernels and ball integrals.

Reference values are either exact closed forms (Newton's theorem gives
several ball integrals in elementary terms), independent brute-force
cubature, or the polar quadrature `_polar_quadrature`, kept as the oracle
of the closed forms in `_ball_power_integral`.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from greenpot import (
    ball_kernel_integral,
    disk_green_2d,
    free_green,
    green_constant,
    riesz_params,
    volume_bound,
)
from greenpot.kernels import _ball_power_integral, _polar_quadrature, check_transform

# closed forms: Gamma(d/2-1) / (2 pi^(d/2)) collapses for small d
EXACT_CONSTANTS = {
    3: 0.15915494309189535,  # 1 / (2 pi)
    4: 0.05066059182116889,  # 1 / (2 pi^2)
    5: 0.025330295910584444,  # 1 / (4 pi^2)
}


@pytest.mark.parametrize("d,expected", sorted(EXACT_CONSTANTS.items()))
def test_green_constant_small_dimensions(d, expected):
    assert green_constant(d) == pytest.approx(expected, rel=1e-14)


def test_green_constant_rejects_low_dimension():
    with pytest.raises(ValueError):
        green_constant(2)


def test_free_green_point_values():
    # distance 2 in d=3: C(3) / 2 = 1 / (4 pi)
    assert free_green(3, (0, 0, 0), (2, 0, 0)) == pytest.approx(0.07957747154594767, rel=1e-14)
    assert free_green(3, (1, 1, 1), (1, 1, 1)) == math.inf


@given(
    d=st.integers(min_value=3, max_value=5),
    x=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
    y=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
)
@example(d=5, x=[0.0] * 5, y=[1.16e-111, 0.0, 0.0, 0.0, 0.0])  # |x - y|^(2-d) overflows
def test_free_green_symmetry_and_positivity(d, x, y):
    a, b = tuple(x[:d]), tuple(y[:d])
    g = free_green(d, a, b)
    assert g == free_green(d, b, a)
    assert g > 0


def test_free_green_scaling_law():
    # homogeneity of degree 2 - d
    for d in (3, 4, 5):
        x = np.array([0.3, -1.0, 0.7, 0.2, 0.1])[:d]
        y = np.array([1.1, 0.4, -0.2, 0.9, -0.5])[:d]
        lam = 1.7
        assert free_green(d, lam * x, lam * y) == pytest.approx(
            lam ** (2 - d) * free_green(d, x, y), rel=1e-12
        )


def _disk_green_complex(radius, x, y):
    """Independent route: complex cross-ratio form of the disk kernel."""
    zx = complex(x[0], x[1]) / radius
    zy = complex(y[0], y[1]) / radius
    return math.log(abs(1 - zx.conjugate() * zy) / abs(zx - zy)) / math.pi


def test_disk_green_matches_complex_form():
    cases = [
        (1.0, (0.2, 0.0), (-0.3, 0.1)),
        (2.0, (0.3, 0.4), (-0.5, 0.2)),
        (0.5, (0.1, -0.2), (0.05, 0.3)),
    ]
    for radius, x, y in cases:
        assert disk_green_2d(radius, x, y) == pytest.approx(
            _disk_green_complex(radius, x, y), rel=1e-12
        )


def test_disk_green_center_value():
    # at the center the kernel reduces to log(R/|y|)/pi
    assert disk_green_2d(1.0, (0, 0), (0.5, 0)) == pytest.approx(
        0.2206356001526516, rel=1e-14
    )
    assert disk_green_2d(1.0, (0.5, 0), (0, 0)) == pytest.approx(
        0.2206356001526516, rel=1e-14
    )


def test_disk_green_vanishes_at_boundary():
    val = disk_green_2d(1.0, (0.2, 0.0), (1 - 1e-9, 0.0))
    assert 0 < val < 1e-8


def test_disk_green_rejects_exterior_points():
    with pytest.raises(ValueError):
        disk_green_2d(1.0, (0.2, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        disk_green_2d(1.0, (1.5, 0.0), (0.2, 0.0))
    with pytest.raises(ValueError, match="radius must be positive"):
        disk_green_2d(math.nan, (0.2, 0.0), (0.1, 0.0))


@st.composite
def _disk_pairs(draw):
    def pt():
        r = draw(st.floats(0, 0.95))
        t = draw(st.floats(0, 2 * math.pi))
        return (r * math.cos(t), r * math.sin(t))

    x, y = pt(), pt()
    assume(math.dist(x, y) > 1e-6)
    return x, y


@given(_disk_pairs())
@example(pair=((6.7810086751207964e-161, 0.0), (0.5, 0.0)))  # |x|^2 is subnormal
@example(pair=((-5e-324, 5e-324), (0.5, 0.0)))  # hypot rounds a subnormal |x| to 5e-324
@example(pair=((1e-320, 1e-320), (0.5, 0.0)))  # a subnormal |x| keeps 4 digits
def test_disk_green_symmetric_and_positive(pair):
    x, y = pair
    g = disk_green_2d(1.0, x, y)
    assert g == pytest.approx(disk_green_2d(1.0, y, x), rel=1e-10)
    assert g > 0


@given(_disk_pairs())
def test_disk_green_monotone_in_radius(pair):
    x, y = pair
    assert disk_green_2d(1.0, x, y) < disk_green_2d(2.0, x, y)


def test_check_transform_validation():
    assert check_transform("power", 2, 3, True) == ("power", 2.0)
    assert check_transform("exp", 1, 2, False) == ("exp", 1.0)
    assert check_transform("power", 1.0, 2, False) == ("power", 1.0)
    for kind, param, d, free in [
        ("power", 1.0, 2, True),  # free space needs d >= 3
        ("power", 0.5, 3, True),
        ("power", 3.0, 3, True),  # >= d/(d-2)
        ("exp", 1.0, 3, True),
        ("exp", 7.0, 2, False),  # >= 2 pi
        ("cos", 1.0, 2, False),
    ]:
        with pytest.raises(ValueError):
            check_transform(kind, param, d, free)


def test_riesz_params_closed_forms():
    alpha, coefficient = riesz_params(3, 2.0)
    assert alpha == pytest.approx(1.0, rel=1e-14)
    assert coefficient == pytest.approx(math.sqrt(2) / 4, rel=1e-13)
    alpha, coefficient = riesz_params(3, 1.0)
    assert alpha == pytest.approx(2.0, rel=1e-14)
    assert coefficient == pytest.approx(1.0, rel=1e-13)
    # Gamma factors cancel at beta = 1.5, d = 3: coefficient is 2^(-3/4)
    alpha, coefficient = riesz_params(3, 1.5)
    assert alpha == pytest.approx(1.5, rel=1e-14)
    assert coefficient == pytest.approx(2.0 ** -0.75, rel=1e-13)


@given(d=st.integers(min_value=3, max_value=6), beta=st.floats(1.0, 1.4))
def test_riesz_params_in_valid_range(d, beta):
    alpha, coefficient = riesz_params(d, beta)
    assert 0 < alpha <= 2
    assert coefficient > 0


def test_riesz_params_rejects_out_of_range():
    with pytest.raises(ValueError):
        riesz_params(3, 0.5)
    with pytest.raises(ValueError):
        riesz_params(3, 3.0)
    with pytest.raises(ValueError):
        riesz_params(2, 1.0)


def test_ball_integral_newton_exact_values():
    # Newton's theorem: the potential of a ball at an exterior point equals
    # volume / distance, so several integrals have elementary closed forms.
    # centered: C(3) * 4 pi * R^2 / 2 = R^2
    assert ball_kernel_integral(3, 1.0, (0, 0, 0), (0, 0, 0), 1.0) == pytest.approx(1.0, rel=1e-10)
    assert ball_kernel_integral(3, 1.0, (0, 0, 0), (0, 0, 0), 0.8) == pytest.approx(0.64, rel=1e-10)
    # exterior source at distance 2: C(3) * vol(B) / 2 = 1/3
    assert ball_kernel_integral(3, 1.0, (0, 0, 0), (2, 0, 0), 1.0) == pytest.approx(
        1.0 / 3.0, rel=1e-10
    )


def test_ball_integral_squared_kernel_exact_value():
    # spherical-cap slicing gives the squared kernel in closed form:
    # (1 - (3/4) log 3) / (2 pi) for a unit ball at distance 2
    assert ball_kernel_integral(3, 2.0, (0, 0, 0), (2, 0, 0), 1.0) == pytest.approx(
        (1 - 0.75 * math.log(3)) / (2 * math.pi), rel=1e-14
    )


# |B_1| in closed form
BALL_VOLUMES = {3: 4 * math.pi / 3, 4: math.pi**2 / 2, 5: 8 * math.pi**2 / 15}


@pytest.mark.parametrize(
    "d, betas", [(3, (1.0, 1.5, 2.0, 2.5)), (4, (1.0, 1.3, 1.6)), (5, (1.0, 1.3, 1.6))]
)
def test_exterior_ball_power_integral_matches_quadrature(d, betas):
    for beta in betas:
        s = beta * (d - 2)
        for a in (2, 2.001, 3, 5, 10, 20, 100):
            assert _ball_power_integral(d, s, a, 1.0, 1e-8) == pytest.approx(
                _polar_quadrature(d, s, a, 1.0, 1e-11), rel=1e-10
            ), (beta, a)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_exterior_ball_power_integral_is_newton_at_beta_one(d):
    # the 2F1 is exactly 1 at s = d - 2: volume / a^(d-2)
    for r, a in [(1.0, 2.0), (1.0, 7.5), (0.3, 0.6), (2.0, 1e3)]:
        assert _ball_power_integral(d, d - 2.0, a, r, 1e-8) == pytest.approx(
            BALL_VOLUMES[d] * r**d * a ** (2.0 - d), rel=1e-15
        )


@pytest.mark.parametrize("d", [3, 4, 5])
def test_ball_power_integral_is_continuous_at_twice_the_radius(d):
    # a = 2r switches to the 2F1 from the quadrature
    below = math.nextafter(2.0, 0.0)
    for beta in (1.0, 1.3, 1.6):
        s = beta * (d - 2)
        assert _ball_power_integral(d, s, 2.0, 1.0, 1e-11) == pytest.approx(
            _ball_power_integral(d, s, below, 1.0, 1e-11), rel=1e-13
        )


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 2.5, 2.9])
def test_ball_integral_with_the_source_on_the_sphere(beta):
    # shells about x on the sphere |x - center| = r: pi/r (2r)^(4-s) / ((3-s)(4-s));
    # r^2 - a^2 (1 - mu^2) lost the chord's digits here and failed at beta = 2.9
    for r in (1.0, 0.3):
        exact = math.pi / r * (2 * r) ** (4 - beta) / ((3 - beta) * (4 - beta))
        assert ball_kernel_integral(3, beta, (r, 0, 0), (0, 0, 0), r) == pytest.approx(
            green_constant(3) ** beta * exact, rel=1e-10
        )


def _brute_ball_integral(d, beta, x, center, r, m=60):
    """Midpoint cubature over the bounding box, for cross-checks only."""
    axes = [np.linspace(c - r, c + r, m, endpoint=False) + r / m for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.reshape(-1) for a in mesh], axis=1)
    inside = np.linalg.norm(pts - np.asarray(center), axis=1) < r
    vals = [free_green(d, x, p) ** beta for p in pts[inside]]
    return float(np.sum(vals)) * (2 * r / m) ** d


def test_ball_integral_matches_brute_cubature_free():
    x, center, r = (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0
    ref = _brute_ball_integral(3, 1.5, x, center, r, m=48)
    got = ball_kernel_integral(3, 1.5, x, center, r)
    assert got == pytest.approx(ref, rel=5e-3)


def test_ball_integral_centered_source_singular_but_integrable():
    val = ball_kernel_integral(3, 2.9, (0, 0, 0), (0, 0, 0), 1.0)
    # closed form: C^beta * S(3) * R^p / p with p = 3 - 2.9
    c = green_constant(3)
    assert val == pytest.approx(c ** 2.9 * 4 * math.pi / 0.1, rel=1e-10)


def test_ball_integral_monotone_in_radius():
    vals = [ball_kernel_integral(3, 1.2, (0, 0, 0), (2, 0, 0), r) for r in (0.3, 0.6, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_ball_integral_rejects_transforms_outside_the_free_range():
    for d, beta in [(3, 3.0), (3, math.nextafter(3.0, 4.0)), (4, 2.0), (4, 2.5), (2, 1.0), (1, 1.0)]:
        with pytest.raises(ValueError):
            ball_kernel_integral(d, beta, (0.0,) * d, (1.0,) + (0.0,) * (d - 1), 0.5)
    for r in (0.0, math.nan):
        with pytest.raises(ValueError, match="ball radius must be positive"):
            ball_kernel_integral(3, 1.0, (0, 0, 0), (2, 0, 0), r)


def test_volume_bound_closed_forms():
    assert volume_bound(3, 2.0, 1.0) == pytest.approx(1 / math.pi, rel=1e-13)
    assert volume_bound(3, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_volume_bound_dominates_ball_integrals():
    # any ball of the given diameter, any source in it
    bound = volume_bound(3, 2.0, 2.0)
    for x in [(0, 0, 0), (0.5, 0, 0), (0.9, 0.3, 0)]:
        val = ball_kernel_integral(3, 2.0, x, (0, 0, 0), 1.0)
        assert val <= bound * (1 + 1e-9)


def test_volume_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        volume_bound(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        volume_bound(3, 0.9, 1.0)
    with pytest.raises(ValueError):
        volume_bound(3, 1.0, -1.0)
