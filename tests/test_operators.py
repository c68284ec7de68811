"""Tests for discretized kernel operators.

The entry formulas are checked against the lattice Green functions they
are built from (exact algebra), and operator values against the continuum
ball integrals from the kernel module (independent quadrature).
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpot import (
    Ball,
    BallIndicator,
    Box,
    ConvergenceReport,
    CubicSet,
    DiscreteOperator,
    GridSpec,
    ResourceLimitError,
    apply_operator,
    assemble,
    ball_kernel_integral,
    cmp_functional,
    converge,
    disk_green_2d,
    exterior_grid,
    free_operator_value,
    grid_points,
    killed_green_entries,
    killed_green_matrix,
    round_to_grid,
    whole_space_green,
)
from greenpot import lattice as lattice_module
from greenpot.cli import _report_from_convergence
from greenpot.kernels import check_transform
from greenpot.lattice import EXACT_RANGE

ORIGIN3 = (0.0, 0.0, 0.0)
UNIT_BALL = BallIndicator(ORIGIN3, 1.0)


def test_ball_indicator_strict_interior():
    ind = BallIndicator((0.0, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [1.5, 0.0]])
    assert np.array_equal(ind(pts), [1.0, 1.0, 0.0, 0.0])


def test_singleton_diagonal_is_one_over_n():
    # the scaling pins the one-point operator entry at 1/n for beta = 1
    for d, n, radius in [(2, 2, 0.3), (2, 50, 0.1), (3, 12, 0.4)]:
        grid = GridSpec(d=d, n=n)
        op = assemble(grid, ("power", 1.0), domain=Ball((0.0,) * d, radius))
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(1.0 / n, rel=1e-14)


def test_planar_entries_match_killed_green_algebra():
    # matrix is (2/n) ((1/2) g)^beta entrywise, with g the killed matrix
    ball = Ball((0.0, 0.0), 1.0)
    grid = GridSpec(d=2, n=8)
    g = killed_green_matrix(grid_points(ball, grid)).entries
    for beta in (1.0, 2.0, 3.7):
        op = assemble(grid, ("power", beta), domain=ball)
        assert np.allclose(op.matrix, (2.0 / 8) * (0.5 * g) ** beta, rtol=1e-14)
    op = assemble(grid, ("exp", 1.5), domain=ball)
    assert np.allclose(op.matrix, (2.0 / 8) * np.exp(1.5 * 0.5 * g), rtol=1e-14)


@functools.cache
def _old_route_terms(n: int, x: tuple):
    """Green values and samples of the earlier free-space route on the unit
    ball: the index set is ``exterior_grid`` plus ``z = round_to_grid(x)``,
    and the row at ``z`` is built from scalar `whole_space_green` values."""
    grid = GridSpec(d=3, n=n)
    z = round_to_grid(x, grid)
    lattice = exterior_grid(UNIT_BALL, grid)
    pts = lattice.points if z in lattice else np.vstack([lattice.points, z])
    keys, inverse = np.unique(np.sort(np.abs(pts - z), axis=1), axis=0, return_inverse=True)
    green = np.array([whole_space_green(3, k) for k in keys])[inverse.ravel()]
    return green, UNIT_BALL(pts * grid.h + (np.asarray(x) - grid.h * z))


def _old_route_value(n: int, x: tuple, beta: float) -> float:
    grid = GridSpec(d=3, n=n)
    green, samples = _old_route_terms(n, x)
    return float(grid.h**3 * (green * grid.green_scale) ** beta @ samples)


def _point_mass(grid, k, x):
    """A `BallIndicator` that is 1 at lattice point `k` of the grid shifted
    by ``x - h round_to_grid(x)`` and 0 at every other point of it."""
    shift = np.asarray(x, dtype=float) - grid.h * round_to_grid(x, grid)
    return BallIndicator(tuple(np.asarray(k) * grid.h + shift), grid.h / 4)


def test_free_entries_match_whole_space_green():
    # a point mass at k reads the one entry h^d (scale g(k - z))^beta
    grid = GridSpec(d=3, n=12)
    scale = 12 ** 0.5 / 3 ** 1.5
    w = grid.h ** 3
    for a, b in [((0, 0, 0), (1, -1, 2)), ((2, 0, 1), (-1, 3, 0)), ((1, 1, 1), (1, 1, 1))]:
        xa, xb = (tuple(grid.h * c for c in p) for p in (a, b))
        entry = free_operator_value(grid, ("power", 1.2), _point_mass(grid, b, xa), xa)
        g = whole_space_green(3, np.subtract(b, a))
        assert entry == pytest.approx(w * (scale * g) ** 1.2, rel=1e-12)
        assert entry == free_operator_value(grid, ("power", 1.2), _point_mass(grid, a, xb), xb)


def test_killed_entries_below_free_entries():
    region = Ball(ORIGIN3, 0.9)
    grid = GridSpec(d=3, n=20)
    killed_op = assemble(grid, ("power", 1.0), domain=region)
    pts = killed_op.lattice.points
    for i in (0, len(pts) // 2):
        x = tuple(grid.h * pts[i])
        for j, k in enumerate(pts):
            free = free_operator_value(grid, ("power", 1.0), _point_mass(grid, k, x), x)
            assert killed_op.matrix[i, j] <= free + 1e-15


def test_assemble_validation():
    grid2, grid3 = GridSpec(d=2, n=8), GridSpec(d=3, n=8)
    ball2 = Ball((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):  # free needs d >= 3
        free_operator_value(grid2, ("power", 1.0), BallIndicator((0.0, 0.0), 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):  # exp is planar only
        free_operator_value(grid3, ("exp", 1.0), UNIT_BALL, ORIGIN3)
    with pytest.raises(ValueError):  # beta >= d/(d-2)
        free_operator_value(grid3, ("power", 3.5), UNIT_BALL, ORIGIN3)
    with pytest.raises(ValueError):
        assemble(grid2, ("power", 0.8), domain=ball2)
    with pytest.raises(ValueError):
        assemble(grid2, ("power", 1.0), domain=Ball((0.25, 0.25), 0.1))  # empty grid


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


def test_kernel_spec_and_assemble_accept_the_same_transforms():
    cases = [("power", 1.0, 2, True), ("exp", 1.0, 3, True), ("exp", 1.0, 4, True),
             ("power", 2.0, 2, False), ("power", 0.99, 2, False), ("cos", 1.0, 2, False)]
    for d in (3, 4):
        top = d / (d - 2)
        cases += [("power", b, d, True)
                  for b in (0.99, 1.0, math.nextafter(top, 0.0), top, math.nan)]
    cases += [("exp", a, 2, False)
              for a in (0.0, 1e-9, 1.0, math.nextafter(2 * math.pi, 0.0), 2 * math.pi)]
    verdicts = set()
    for kind, param, d, free in cases:
        valid = _accepts(lambda: check_transform(kind, param, d, free))
        if free:
            target = BallIndicator((0.0,) * d, 0.3)
            op_ok = _accepts(lambda: free_operator_value(GridSpec(d=d, n=d), (kind, param),
                                                         target, (0.0,) * d))
            study_ok = _accepts(lambda: converge(None, (kind, param), (0.0,) * d, target, 1, d))
        else:
            op_ok = _accepts(lambda: assemble(GridSpec(d=d, n=8), (kind, param), Ball((0.0, 0.0), 1.0)))
            study_ok = _accepts(lambda: converge(Ball((0.0, 0.0), 1.0), (kind, param),
                                                 (0.2, 0.0), (-0.3, 0.1), 1, 2))
        assert valid == op_ok == study_ok, (kind, param, d, free)
        verdicts.add(valid)
    assert verdicts == {True, False}


def test_assemble_respects_point_cap(monkeypatch):
    # one byte short of the n = 8 disk's 9-point killed Green matrix; its grid's
    # 144 bytes of points fit, so the raise is the matrix's
    monkeypatch.setattr(lattice_module, "MAX_BYTES", 8 * 9**2 - 1)
    with pytest.raises(ResourceLimitError, match="killed Green matrix of 9 points"):
        assemble(GridSpec(d=2, n=8), ("power", 1.0), domain=Ball((0.0, 0.0), 1.0))


def test_free_rows_take_no_point_cap_but_the_matrix_does(monkeypatch):
    # the byte budget guards the m x m matrix of a killed operator; the free sum
    # holds one block of its row at a time
    grid = GridSpec(d=3, n=12)
    region = BallIndicator(ORIGIN3, 0.8)
    m = len(grid_points(region, grid))
    # 72 bytes is less than the 24 m bytes of the region's grid points
    monkeypatch.setattr(lattice_module, "MAX_BYTES", 8 * 3**2)
    assert 24 * m > lattice_module.MAX_BYTES
    assert free_operator_value(grid, ("power", 1.0), region, ORIGIN3) > 0
    # the grid fits one byte short of the matrix, so the raise is the matrix's
    monkeypatch.setattr(lattice_module, "MAX_BYTES", 8 * m**2 - 1)
    with pytest.raises(ResourceLimitError, match=f"killed Green matrix of {m} points"):
        assemble(grid, ("power", 1.0), domain=region)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.5])
@pytest.mark.parametrize("n", [3, 27, 243, 2187])
def test_free_row_route_matches_dense_matrix_row(n, beta):
    # the streamed sum holds the same terms as the earlier route's
    # materialised row over exterior_grid + {z}; only the order of the
    # additions differs
    for x in (ORIGIN3, (0.1, 0.0, -0.05)):
        value = free_operator_value(GridSpec(d=3, n=n), ("power", beta), UNIT_BALL, x)
        assert value == pytest.approx(_old_route_value(n, x, beta), rel=1e-13, abs=0)


def test_free_row_asymptote_equals_scalar_green_bit_for_bit():
    # past EXACT_RANGE the streamed terms take the asymptote; a point mass
    # reads one term, bit for bit the scalar value
    grid = GridSpec(d=3, n=3)
    for k in [(24, 18, 20), (EXACT_RANGE + 1, 0, 0), (-20, 5, 3), (3, -2, 1)]:
        value = free_operator_value(grid, ("power", 1.0), _point_mass(grid, k, ORIGIN3), ORIGIN3)
        assert value == grid.h ** 3 * (whole_space_green(3, k) * grid.green_scale) ** 1.0


def test_free_convergence_holds_no_dense_matrix():
    # the dense route peaked at 682 MB traced for this study
    tracemalloc.start()
    try:
        converge(None, ("power", 1.0), ORIGIN3, BallIndicator(ORIGIN3, 1.0), 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_apply_operator_two_point_exact():
    # two grid points, h = 1: row of (1/2) g against shifted samples
    dom = Ball((0.5, 0.0), 0.6)
    op = assemble(GridSpec(d=2, n=2), ("power", 1.0), domain=dom)
    assert [tuple(p) for p in op.lattice.points] == [(0, 0), (1, 0)]
    f = BallIndicator((0.0, 0.0), 0.5)
    assert apply_operator(op, f, (0.0, 0.0)) == pytest.approx(8 / 15, rel=1e-13)
    # sub-spacing shift: samples move with x, the row does not
    assert apply_operator(op, f, (0.3, 0.1)) == pytest.approx(8 / 15, rel=1e-13)
    with pytest.raises(ValueError):
        apply_operator(op, f, (5.0, 5.0))


def test_apply_operator_accepts_vector_via_grid_values():
    dom = Ball((0.0, 0.0), 1.0)
    op = assemble(GridSpec(d=2, n=8), ("power", 2.0), domain=dom)
    vec = np.ones(len(op.lattice))
    val = cmp_functional(op, vec)
    assert math.isfinite(val)
    with pytest.raises(ValueError):
        cmp_functional(op, np.ones(len(op.lattice) + 1))


class _OnBallBox:
    """A rule on points that vanishes off the bounding box of a ball, as
    the free-space sum requires."""

    def __init__(self, ball, rule):
        self.d, self.bbox, self.rule = ball.d, ball.bbox, rule

    def __call__(self, pts):
        return self.rule(pts)


def test_point_evaluation_errors_propagate():
    op = assemble(GridSpec(d=2, n=8), ("power", 1.0), domain=Ball((0.0, 0.0), 1.0))
    grid3 = GridSpec(d=3, n=12)

    def batch_bug(p):  # fails only on the vectorized call
        if np.ndim(p) == 2:
            raise ZeroDivisionError("bug on the array path")
        return 1.0

    with pytest.raises(ZeroDivisionError):
        apply_operator(op, batch_bug, (0.0, 0.0))
    with pytest.raises(ZeroDivisionError):
        cmp_functional(op, batch_bug)
    with pytest.raises(ZeroDivisionError):
        free_operator_value(grid3, ("power", 1.0), _OnBallBox(UNIT_BALL, batch_bug), ORIGIN3)
    # f is called once on the (k, d) array and must give k values
    for scalar_only in (lambda p: 1.0, lambda p: p[0] + p[1]):
        with pytest.raises(ValueError):
            apply_operator(op, scalar_only, (0.1, 0.0))
        with pytest.raises(ValueError):
            cmp_functional(op, scalar_only)
        with pytest.raises(ValueError):
            free_operator_value(grid3, ("power", 1.0), _OnBallBox(UNIT_BALL, scalar_only), ORIGIN3)


def test_free_operator_value_matches_ball_integral():
    grid = GridSpec(d=3, n=81)
    assert free_operator_value(grid, ("power", 1.0), UNIT_BALL, ORIGIN3) == pytest.approx(1.0, rel=4e-2)
    ref = ball_kernel_integral(3, 1.5, ORIGIN3, ORIGIN3, 1.0)
    assert free_operator_value(grid, ("power", 1.5), UNIT_BALL, ORIGIN3) == pytest.approx(ref, rel=4e-2)


def test_free_value_away_from_the_support():
    # x lies a unit away from the ball; the sum needs no point of the grid at x
    target = BallIndicator((2.0, 0.0, 0.0), 1.0)
    val = free_operator_value(GridSpec(d=3, n=27), ("power", 1.0), target, ORIGIN3)
    ref = ball_kernel_integral(3, 1.0, ORIGIN3, (2.0, 0.0, 0.0), 1.0)  # exactly 1/3
    assert val == pytest.approx(ref, rel=0.1)


@pytest.mark.parametrize(
    "transform,domain",
    [
        (("power", 1.0), Ball((0.0, 0.0), 1.0)),
        (("power", 2.0), Ball((0.0, 0.0), 1.0)),
        (("power", 4.0), CubicSet(8, [(0, 0), (1, 0)])),
        (("exp", 3.0), Ball((0.0, 0.0), 1.0)),
        (("exp", 6.0), CubicSet(8, [(0, 0), (1, 0)])),
    ],
)
def test_cmp_functional_nonnegative_on_killed_operators(transform, domain):
    op = assemble(GridSpec(d=2, n=32), transform, domain=domain)
    rng = np.random.default_rng(99)
    for _ in range(10):
        f = rng.standard_normal(len(op.lattice))  # sign-changing
        assert cmp_functional(op, f) >= -1e-12 * float(np.max(np.abs(f))) ** 2


def test_cmp_functional_detects_synthetic_violation():
    # a hand-built matrix outside the potential class goes negative
    grid = GridSpec(d=2, n=2)
    lattice = grid_points(Box((-0.5, -0.5), (1.5, 0.5)), grid)
    op = DiscreteOperator(
        grid=grid,
        lattice=lattice,
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),
    )
    assert cmp_functional(op, np.array([-0.2, 0.7])) == pytest.approx(-0.04, rel=1e-12)


def test_convergence_report_properties_and_serialization():
    rep = ConvergenceReport(
        d=2, levels=(2, 18), values=(0.3, 0.25), reference=0.24, provenance="test"
    )
    assert rep.abs_errors == pytest.approx((0.06, 0.01))
    assert rep.rel_errors == pytest.approx((0.25, 1 / 24))
    assert rep.rates[0] is None
    assert rep.rates[1] == pytest.approx(math.log(6.0) / math.log(9.0), rel=1e-12)
    report, (header, rows), passed = _report_from_convergence(rep, "converge-disk", None)
    assert report["levels"] == (2, 18) and report["rates"] == rep.rates and passed is None
    assert header[0] == "n" and len(rows) == 2 and rows[0][-1] == ""
    with pytest.raises(ValueError):
        ConvergenceReport(d=2, levels=(2,), values=(0.3, 0.2), reference=0.1, provenance="")


def test_converge_pointwise_disk_runs_and_improves():
    rep = converge(
        Ball((0.0, 0.0), 1.0),
        ("power", 1.0),
        x=(0.2, 0.0),
        target=(-0.3, 0.1),
        levels=3,
        base=2,
    )
    assert rep.reference == pytest.approx(disk_green_2d(1.0, (0.2, 0.0), (-0.3, 0.1)), rel=1e-12)
    assert rep.levels == (2, 18, 162)
    assert rep.abs_errors[2] < rep.abs_errors[0]


def test_converge_disk_reference_applies_the_transform():
    x, y = (0.2, 0.0), (-0.3, 0.1)
    green = disk_green_2d(1.0, x, y)
    for transform, expected in [(("exp", 3.0), math.exp(3.0 * green)), (("power", 2.5), green**2.5)]:
        assert converge(Ball((0.0, 0.0), 1.0), transform, x, y, 1, 2).reference == expected


def test_converge_free_operator_mode():
    rep = converge(
        None,
        ("power", 1.0),
        x=ORIGIN3,
        target=BallIndicator(ORIGIN3, 1.0),
        levels=2,
        base=9,
    )
    assert rep.reference == pytest.approx(1.0, rel=1e-9)
    assert abs(rep.values[1] - 1.0) < abs(rep.values[0] - 1.0)


def test_converge_free_provenance_names_the_reference_route():
    # S(d) r^p / p at the center, polar quadrature within 2r of it, the 2F1 form beyond
    for x, route in [(ORIGIN3, "closed form"), ((0.5, 0.0, 0.0), "adaptive quadrature"),
                     ((2.5, 0.0, 0.0), "closed form")]:
        rep = converge(None, ("power", 1.0), x, UNIT_BALL, 1, 3)
        assert rep.provenance == "ball kernel integral, " + route


def test_converge_validation():
    with pytest.raises(ValueError):
        converge(Ball((0.5, 0.0), 1.0), ("power", 1.0), (0.1, 0.0), (0.0, 0.0), 2, 2)
    with pytest.raises(ValueError):
        converge(Ball((0.0, 0.0), 1.0), ("power", 1.0), (0.1, 0.0), (0.0, 0.0), 0, 2)


def test_converge_has_no_killed_operator_route():
    # a disk with a BallIndicator target, and a free operator at a point
    with pytest.raises(ValueError):
        converge(Ball((0.0, 0.0), 1.0), ("power", 1.0), (0.0, 0.0),
                 BallIndicator((0.0, 0.0), 0.5), 1, 2)
    with pytest.raises(ValueError):
        converge(None, ("power", 1.0), ORIGIN3, (0.5, 0.0, 0.0), 1, 3)


UNIT_DISK = Ball((0.0, 0.0), 1.0)


def _disk_value(transform, x, y, n):
    return converge(UNIT_DISK, transform, x, y, levels=1, base=n).values[0]


@pytest.mark.parametrize("n", [18, 162, 1458])
def test_on_grid_disk_value_matches_single_entry(n):
    # on-grid points keep the unshifted lattice and read one entry: the
    # same number as the sparse single-entry route times the scale 1/2
    grid = GridSpec(d=2, n=n)
    lat = grid_points(UNIT_DISK, grid)
    pts = [tuple(int(c) for c in p) for p in lat.points]
    pairs = [(pts[len(pts) // 2], pts[0]), (pts[len(pts) // 3], pts[-1]),
             (pts[len(pts) // 2], pts[len(pts) // 2 + 1])]
    if n == 162:
        # (5, 5) is exactly on a diagonal of cells and the lattice has points
        # exactly on the circle (e.g. (9, 0)); membership must not move
        pairs.append(((5, 5), (-2, 0)))
    for kx, ky in pairs:
        x = tuple(grid.h * c for c in kx)
        y = tuple(grid.h * c for c in ky)
        expected = killed_green_entries(lat, kx, [ky])[0] * 0.5
        assert _disk_value(("power", 1.0), x, y, n) == pytest.approx(expected, rel=1e-12)


def test_off_grid_disk_value_is_bilinear_in_y_on_shifted_lattice():
    # n = 18, h = 1/3: x = (0.2, 0) is lattice point (0, 0) of the grid
    # shifted by (0.2, 0); y = (-0.3, 0.1) sits at (-1.5, 0.3) on it
    n, h = 18, 1.0 / 3.0
    phi = 0.2 / h
    lat = grid_points(Ball((-0.2, 0.0), 1.0), GridSpec(d=2, n=n))
    dense = killed_green_matrix(lat)
    t = (-0.3 / h - phi, 0.1 / h)
    base = (math.floor(t[0]), math.floor(t[1]))
    frac = (t[0] - base[0], t[1] - base[1])
    expected = 0.0
    for bx in (0, 1):
        for by in (0, 1):
            corner = (base[0] + bx, base[1] + by)
            w = (frac[0] if bx else 1 - frac[0]) * (frac[1] if by else 1 - frac[1])
            if corner in lat:
                expected += w * dense.entry((0, 0), corner)
    expected *= 0.5
    assert _disk_value(("power", 1.0), (0.2, 0.0), (-0.3, 0.1), n) == pytest.approx(
        expected, rel=1e-12)
    # the transform acts on the interpolated value
    assert _disk_value(("power", 1.5), (0.2, 0.0), (-0.3, 0.1), n) == pytest.approx(
        expected**1.5, rel=1e-12)
    assert _disk_value(("exp", 2.0), (0.2, 0.0), (-0.3, 0.1), n) == pytest.approx(
        math.exp(2.0 * expected), rel=1e-12)


@pytest.mark.parametrize("x, y", [((0.7, 0.0), (0.0, 0.7)), ((0.0, -0.7), (0.5, 0.3))])
def test_points_rounding_outside_the_grid_now_converge(x, y):
    # at n = 2 (h = 1) the nearest grid point of x is outside the disk grid
    rep = converge(UNIT_DISK, ("power", 1.0), x, y, levels=4, base=2)
    errors = rep.abs_errors
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert rep.rel_errors[-1] < 0.1
