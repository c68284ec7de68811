"""Tests for lattice Green functions and killed-walk matrices.

Independent oracles: the Fourier representation of the walk Green function
(reduced to a 2-d integral with the inner coordinate integrated in closed
form), one adaptive quadrature per key of the Bessel integrals behind the
whole-space Green function and the planar potential kernel, the Fourier
difference representation of the planar potential kernel and its
three-term expansion, and absorbing-chain linear algebra on tiny
hand-checked sets.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from greenpot import (
    POTENTIAL_KERNEL_CONSTANT,
    Ball,
    CubicSet,
    GridSpec,
    LatticeSet,
    exit_distribution,
    green_constant,
    converge,
    grid_points,
    is_inverse_m_matrix,
    killed_green_entries,
    killed_green_matrix,
    killed_green_via_kernel,
    potential_kernel_2d,
    whole_space_green,
)
from greenpot import lattice as lattice_module
from greenpot.lattice import EXACT_RANGE, POTENTIAL_EXACT_RANGE, lattice_kernel


def _fourier_green_3d(x):
    """Walk Green function in d=3 via its Fourier integral.

    The third coordinate integrates in closed form,
    int cos(k t) / (a - cos t) dt = 2 pi (a - sqrt(a^2-1))^|k| / sqrt(a^2-1),
    leaving a 2-d integral over the positive quadrant.
    """
    x1, x2, x3 = sorted(abs(int(c)) for c in x)

    def inner(t1, t2):
        a = 3.0 - math.cos(t1) - math.cos(t2)
        root = math.sqrt(a * a - 1.0)
        return math.cos(t1 * x1) * math.cos(t2 * x2) * (a - root) ** x3 / root

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(inner, 0.0, math.pi, 0.0, math.pi, epsabs=1e-11, epsrel=1e-11)
    return 3.0 * val / math.pi**2


def _fourier_potential_kernel(x):
    """Planar potential kernel via its Fourier difference integral."""
    x1, x2 = int(x[0]), int(x[1])

    def f(t1, t2):
        den = 2.0 - math.cos(t1) - math.cos(t2)
        return (1.0 - math.cos(t1 * x1) * math.cos(t2 * x2)) / den

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(f, 0.0, math.pi, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10)
    return 2.0 * val / math.pi**2


@pytest.mark.parametrize("x", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 2, 1)])
def test_whole_space_green_matches_fourier_oracle(x):
    assert whole_space_green(3, x) == pytest.approx(_fourier_green_3d(x), abs=1e-9)


def test_whole_space_green_origin_value_d3():
    # Watson's integral; value frozen from the Fourier oracle above
    assert whole_space_green(3, (0, 0, 0)) == pytest.approx(1.516386059152, abs=1e-9)


def test_whole_space_green_symmetries():
    base = whole_space_green(3, (2, 1, 0))
    for perm in [(0, 1, 2), (2, 0, 1)]:
        pt = tuple(np.array((2, 1, 0))[list(perm)])
        assert whole_space_green(3, pt) == pytest.approx(base, rel=1e-12)
    assert whole_space_green(3, (-2, 1, 0)) == pytest.approx(base, rel=1e-12)
    assert whole_space_green(4, (1, -2, 0, 1)) == pytest.approx(
        whole_space_green(4, (2, 1, 1, 0)), rel=1e-12
    )


def test_whole_space_green_is_discretely_harmonic():
    # g(0) = 1 + mean of neighbors; g(x) = mean of neighbors elsewhere
    for d in (3, 4):
        eye = np.eye(d, dtype=int)
        neighbors = [tuple(row) for row in np.vstack([eye, -eye])]
        mean0 = np.mean([whole_space_green(d, p) for p in neighbors])
        assert whole_space_green(d, tuple([0] * d)) == pytest.approx(1.0 + mean0, abs=1e-10)
        x = np.zeros(d, dtype=int)
        x[0] = 2
        x[1] = 1
        mean_x = np.mean([whole_space_green(d, tuple(x + e)) for e in np.vstack([eye, -eye])])
        assert whole_space_green(3 if d == 3 else d, tuple(x)) == pytest.approx(mean_x, abs=1e-10)


def test_whole_space_green_far_field_constant():
    # g(x) ~ d C(d) |x|^(2-d) along the axis and the diagonal
    for d in (3, 4):
        c = d * green_constant(d)
        far_axis = np.zeros(d, dtype=int)
        far_axis[0] = 20
        r = 20.0
        assert whole_space_green(d, tuple(far_axis)) * r ** (d - 2) == pytest.approx(
            c, rel=5e-3
        )
    diag = (12, 12, 12)
    r = math.sqrt(3) * 12
    assert whole_space_green(3, diag) * r == pytest.approx(3 * green_constant(3), rel=5e-3)


def test_whole_space_green_exact_range_consistency():
    # table lookups and tail asymptotics agree at the handoff radius up to
    # the O(|x|^-2) relative correction term, about 1e-3 at radius 17
    for pt in [(17, 2, 0), (20, 5, 2)]:
        a = whole_space_green(3, pt, exact_range=16)
        b = whole_space_green(3, pt, exact_range=24)
        assert a == pytest.approx(b, rel=2e-3)


def _time_integral(f, peak: float) -> float:
    """Integrate ``f`` over (0, inf) by adaptive quadrature, with an exact
    algebraic-tail substitution ``t = cut / u^2`` past ``max(30, 4 peak)``."""
    cut = max(30.0, 4.0 * peak)
    pts = [peak] if 0.0 < peak < cut else None
    head, _ = integrate.quad(f, 0.0, cut, points=pts, epsabs=1e-13, epsrel=1e-11, limit=300)
    tail, _ = integrate.quad(
        lambda u: f(cut / (u * u)) * 2.0 * cut / u**3,
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=300,
    )
    return head + tail


def _quad_green(d, key):
    """The Bessel integral of one key by adaptive quadrature, one scalar call per key."""
    from scipy.special import ive

    ns = np.asarray(key, dtype=float)
    return _time_integral(lambda t: float(np.prod(ive(ns, t / d))), float(ns @ ns))


def _quad_potential_kernel(key):
    """The compensated planar Bessel integral of one key by adaptive quadrature."""
    from scipy.special import ive

    ns = np.asarray(key, dtype=float)

    def f(t):
        z = t / 2.0
        return float(ive(0.0, z) * ive(0.0, z) - ive(ns[0], z) * ive(ns[1], z))

    return _time_integral(f, float(ns @ ns))


@pytest.mark.parametrize("d,top,ranges", [(3, 20, (EXACT_RANGE, 20)), (4, 8, (8,)), (5, 5, (5,))])
def test_bessel_table_matches_scalar_quadrature(d, top, ranges):
    # every sorted key of each table; d = 3 covers the default range and
    # the range 20 read by the acceptance tests
    keys = np.array(list(itertools.combinations_with_replacement(range(top + 1), d)))
    oracle = np.array([_quad_green(d, k) for k in keys])
    for exact_range in ranges:
        near = keys[:, -1] <= exact_range
        table = lattice_module._lattice_kernel(d, keys[near], exact_range)
        np.testing.assert_allclose(table, oracle[near], rtol=1e-11, atol=0)


def test_bessel_table_asymptotic_branch():
    # the largest nodes reach z ~ 4e9, where scipy's ive gives NaN; the
    # Hankel series there continues ive's 1/sqrt(2 pi z) decay, and ive
    # itself is kept wherever it is defined
    from scipy.special import ive

    orders = np.arange(0.0, 21.0)
    t, _ = lattice_module._time_rule()
    assert np.isnan(ive(0.0, t.max() / 3))
    assert np.all(np.isfinite(lattice_module._scaled_bessel(orders, t / 3)))
    series = lattice_module._scaled_bessel(orders, np.array([2e9]))[:, 0]
    np.testing.assert_allclose(series, ive(orders, 1e9) / math.sqrt(2.0), rtol=1e-6)
    z = np.array([1e6, 1e8, 1e9])
    np.testing.assert_array_equal(lattice_module._scaled_bessel(orders, z),
                                  ive(orders[:, None], z[None, :]))


def test_whole_space_green_exact_under_permutations_and_sign_flips():
    rng = np.random.default_rng(11)
    for d, top in [(3, 20), (4, 18)]:
        pts = rng.integers(-top, top + 1, size=(300, d))
        base = lattice_kernel(d, pts)
        for perm in itertools.permutations(range(d)):
            flipped = rng.choice([-1, 1], size=pts.shape) * pts[:, list(perm)]
            np.testing.assert_array_equal(lattice_kernel(d, flipped), base)
        assert [whole_space_green(d, p) for p in pts[:30]] == base[:30].tolist()


def test_potential_kernel_exact_small_values():
    assert potential_kernel_2d((0, 0)) == 0.0
    assert potential_kernel_2d((1, 0)) == pytest.approx(1.0, abs=1e-12)
    assert potential_kernel_2d((0, -1)) == pytest.approx(1.0, abs=1e-12)
    assert potential_kernel_2d((1, 1)) == pytest.approx(4 / math.pi, rel=1e-12)
    assert potential_kernel_2d((2, 0)) == pytest.approx(4 - 8 / math.pi, rel=1e-12)


@pytest.mark.parametrize("x", [(2, 1), (3, 2), (5, 0), (4, 4)])
def test_potential_kernel_matches_fourier_oracle(x):
    assert potential_kernel_2d(x) == pytest.approx(_fourier_potential_kernel(x), abs=1e-8)


def test_potential_kernel_is_discretely_harmonic_off_origin():
    # a(x) = mean of neighbors for x != 0, a(0) = mean of neighbors - 1
    eye = np.eye(2, dtype=int)
    steps = np.vstack([eye, -eye])
    for x in [(1, 0), (2, 1), (3, 3)]:
        mean = np.mean([potential_kernel_2d(tuple(np.add(x, e))) for e in steps])
        assert potential_kernel_2d(x) == pytest.approx(mean, abs=1e-11)
    mean0 = np.mean([potential_kernel_2d(tuple(e)) for e in steps])
    assert mean0 == pytest.approx(1.0, abs=1e-12)


def test_potential_kernel_log_asymptote():
    kappa = POTENTIAL_KERNEL_CONSTANT
    assert kappa == pytest.approx(1.0293737056545709, rel=1e-13)
    for pt in [(30, 0), (30, 40)]:
        r = math.hypot(*pt)
        expected = (2 / math.pi) * math.log(r) + kappa
        assert potential_kernel_2d(pt) == pytest.approx(expected, abs=2e-4)


def _kernel_expansion(key):
    """Three terms of a(x): (2/pi) log|x| + kappa - cos(4 phi) / (6 pi |x|^2)."""
    r = math.hypot(*key)
    phi = math.atan2(key[1], key[0])
    return ((2 / math.pi) * math.log(r) + POTENTIAL_KERNEL_CONSTANT
            - math.cos(4 * phi) / (6 * math.pi * r * r))


def test_potential_kernel_matches_scalar_quadrature():
    # every sorted key with |x|^2 < 2500; quadrature gives NaN at about
    # |x|^2 > 2600, where the shared rule keeps going
    keys = [(i, j) for j in range(50) for i in range(j + 1) if 0 < i * i + j * j < 2500]
    assert len(keys) == 1020
    oracle = np.array([_quad_potential_kernel(k) for k in keys])
    np.testing.assert_allclose(lattice_kernel(2, keys), oracle, rtol=1e-13, atol=0)


def test_potential_kernel_finite_past_quadrature_and_near_expansion():
    for key in [(36, 36), (0, 52), (256, 256)]:
        assert math.isfinite(potential_kernel_2d(key))
    for key in [(0, 100), (60, 80), (100, 100), (17, 200), (0, 256), (256, 256)]:
        assert abs(potential_kernel_2d(key) - _kernel_expansion(key)) <= 2e-9


def test_potential_kernel_array_matches_scalar_under_symmetries():
    rng = np.random.default_rng(5)
    pts = rng.integers(-300, 301, size=(400, 2))
    base = lattice_kernel(2, pts)
    flipped = rng.choice([-1, 1], size=pts.shape) * pts[:, ::-1]
    np.testing.assert_array_equal(lattice_kernel(2, flipped), base)
    assert [potential_kernel_2d(p) for p in pts[:40]] == base[:40].tolist()
    assert lattice_kernel(2, np.zeros((0, 2), dtype=int)).shape == (0,)


@pytest.mark.parametrize("d,top", [(2, POTENTIAL_EXACT_RANGE), (3, EXACT_RANGE), (4, EXACT_RANGE)])
def test_lattice_kernel_rows_are_the_scalar_kernels(d, top):
    # half the rows inside the exact range, half past it; bit for bit
    gen = np.random.default_rng(d)
    pts = gen.integers(-top, top + 1, size=(60, d))
    pts[::2, 0] = gen.choice([-1, 1], size=30) * gen.integers(top + 1, 3 * top, size=30)
    scalar = potential_kernel_2d if d == 2 else (lambda p: whole_space_green(d, p))
    assert lattice_kernel(d, pts).tolist() == [scalar(p) for p in pts]
    for low in (1, 0):
        with pytest.raises(ValueError, match="d >= 2"):
            lattice_kernel(low, [[0]])


def test_far_rows_stay_within_traced_memory():
    # far keys are summed as integers in place, never copied to floats
    gen = np.random.default_rng(3)
    pts = gen.integers(-400, 400, size=(200_000, 3))
    pts[:, 0] = gen.integers(EXACT_RANGE + 1, 400, size=len(pts))
    lattice_kernel(3, pts[:10])  # its one-time imports are not the row's memory
    tracemalloc.start()
    try:
        values = lattice_kernel(3, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(values > 0)
    assert peak < 3 * pts.nbytes


@pytest.mark.parametrize("d,top", [(2, 50), (3, 20), (4, 11)])
def test_key_sum_independent_of_batch(d, top):
    # more distinct keys than one integrand chunk holds: a key's value must
    # not depend on the other keys of the batch or on their order
    keys = np.array(list(itertools.combinations_with_replacement(range(top + 1), d)))
    assert len(keys) > lattice_module._KEY_CHUNK
    values = lattice_module._lattice_kernel(d, keys, top)
    np.testing.assert_array_equal(lattice_module._lattice_kernel(d, keys[::-1], top), values[::-1])
    # the plane's exact range 256 is past every key here
    scalar = potential_kernel_2d if d == 2 else (lambda k: whole_space_green(d, k, top))
    assert [scalar(k) for k in keys] == values.tolist()


def test_bessel_rows_cached_per_dimension(monkeypatch):
    # the plane and d = 3 read the same orders at different arguments t/d
    pts2 = np.array([(i, j) for i in range(6) for j in range(6)])
    pts3 = np.array([(i, j, k) for i in range(4) for j in range(4) for k in range(4)])

    def planar():
        return lattice_kernel(2, pts2)

    def spatial():
        return lattice_kernel(3, pts3)

    runs = []
    for order in ((planar, spatial), (spatial, planar)):
        monkeypatch.setattr(lattice_module, "_BESSEL_ROWS", {})
        runs.append({f.__name__: f() for f in order})
    for name in ("planar", "spatial"):
        np.testing.assert_array_equal(runs[0][name], runs[1][name])


def test_lattice_set_basics():
    s = LatticeSet.from_points(2, [(1, 0), (0, 0), (0, 1)])
    assert len(s) == 3
    assert (0, 0) in s and (1, 0) in s and (2, 2) not in s
    assert s.index_of((0, 0)) == 0  # lexicographic order
    assert [tuple(p) for p in s.points] == [(0, 0), (0, 1), (1, 0)]
    for point in [(5, 5), (0, 0, 0), (0,)]:  # absent, or of the wrong dimension
        with pytest.raises(KeyError, match=r"is not in the lattice set"):
            s.index_of(point)
    with pytest.raises(ValueError):
        LatticeSet.from_points(2, [(1, 0), (1, 0)])  # duplicates rejected


def _absorbing_chain_green(points, d):
    """Oracle: dense (I - P)^-1 built directly from the step kernel."""
    pts = [tuple(p) for p in points]
    index = {p: i for i, p in enumerate(pts)}
    m = len(pts)
    P = np.zeros((m, m))
    eye = np.eye(d, dtype=int)
    for i, p in enumerate(pts):
        for e in np.vstack([eye, -eye]):
            q = tuple(np.add(p, e))
            if q in index:
                P[i, index[q]] += 1.0 / (2 * d)
    return np.linalg.inv(np.eye(m) - P)


def test_killed_green_two_point_exact():
    lat = LatticeSet.from_points(2, [(0, 0), (1, 0)])
    mat = killed_green_matrix(lat)
    assert mat.entry((0, 0), (0, 0)) == pytest.approx(16 / 15, rel=1e-13)
    assert mat.entry((0, 0), (1, 0)) == pytest.approx(4 / 15, rel=1e-13)
    assert mat.entry((1, 0), (1, 0)) == pytest.approx(16 / 15, rel=1e-13)


def test_killed_green_singleton_any_dimension():
    for d in (1, 2, 3, 4):
        lat = LatticeSet.from_points(d, [tuple([0] * d)])
        mat = killed_green_matrix(lat)
        assert mat.entry(tuple([0] * d), tuple([0] * d)) == pytest.approx(1.0, rel=1e-14)


def test_killed_green_matches_absorbing_chain_oracle():
    pts = [(i, j) for i in range(-2, 3) for j in range(-2, 3) if abs(i) + abs(j) <= 2]
    lat = LatticeSet.from_points(2, pts)
    mat = killed_green_matrix(lat)
    ref = _absorbing_chain_green(lat.points, 2)
    got = np.array([[mat.entry(p, q) for q in lat.points] for p in lat.points])
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-13)


def test_killed_green_sparse_dense_agree(monkeypatch):
    pts = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    lat = LatticeSet.from_points(3, pts)
    monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 1000)
    dense = killed_green_matrix(lat)
    monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 1)
    sparse = killed_green_matrix(lat)
    assert np.allclose(dense.entries, sparse.entries, rtol=1e-9, atol=1e-11)


def test_killed_green_monotone_under_set_growth():
    small = LatticeSet.from_points(2, [(0, 0), (1, 0)])
    big = LatticeSet.from_points(2, [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)])
    gs = killed_green_matrix(small)
    gb = killed_green_matrix(big)
    assert gb.entry((0, 0), (0, 0)) > gs.entry((0, 0), (0, 0))
    assert gb.entry((0, 0), (1, 0)) > gs.entry((0, 0), (1, 0))


def test_killed_green_bounded_by_whole_space_d3():
    pts = [(i, j, k) for i in range(-1, 2) for j in range(-1, 2) for k in range(-1, 2)]
    lat = LatticeSet.from_points(3, pts)
    mat = killed_green_matrix(lat)
    for p in [(0, 0, 0), (1, 1, 0)]:
        for q in [(0, 0, 0), (1, 0, -1)]:
            assert mat.entry(p, q) <= whole_space_green(3, np.subtract(p, q)) + 1e-12


def test_exit_distribution_two_point():
    # from (0,0) in {(0,0),(1,0)}: each of the three non-(1,0) neighbors
    # gets mass U(x,0)/4, and the neighbors of (1,0) get U(x,(1,0))/4
    lat = LatticeSet.from_points(2, [(0, 0), (1, 0)])
    law = exit_distribution(lat, (0, 0))
    u00, u01 = 16 / 15, 4 / 15
    assert law[(0, 1)] == pytest.approx(u00 / 4, rel=1e-12)
    assert law[(-1, 0)] == pytest.approx(u00 / 4, rel=1e-12)
    assert law[(2, 0)] == pytest.approx(u01 / 4, rel=1e-12)
    assert sum(law.values()) == pytest.approx(1.0, rel=1e-12)
    assert set(law) == {(-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (2, 0)}


def test_exit_law_reconstructs_killed_green_2d():
    pts = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    lat = LatticeSet.from_points(2, pts)
    mat = killed_green_matrix(lat)
    for x in [(0, 0), (1, -1)]:
        law = exit_distribution(lat, x, green=mat)
        for y in [(0, 0), (2, 1), (-1, 2)]:
            via = killed_green_via_kernel(lat, x, y, law)
            assert via == pytest.approx(mat.entry(x, y), abs=1e-10)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_killed_green_random_sets_match_oracle(seed, m):
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(-3, 4, size=(m, 2)), axis=0)
    lat = LatticeSet.from_points(2, pts)
    mat = killed_green_matrix(lat)
    ref = _absorbing_chain_green(lat.points, 2)
    got = np.asarray(mat.entries)
    assert np.allclose(got, ref, rtol=1e-11, atol=1e-12)
    # symmetric positive matrix with positive diagonal
    assert np.allclose(got, got.T, rtol=0, atol=1e-12)
    assert np.all(np.diag(got) >= 1.0 - 1e-12)


def _killed_laplacian(lat):
    """Oracle: the sparse CSC ``I - P``, unit diagonal and ``-1/(2d)`` between neighbours."""
    from scipy import sparse

    rows, cols = lattice_module._transition_coo(lat)
    m = len(lat)
    data = np.concatenate([np.ones(m), np.full(len(rows), -1.0 / (2 * lat.d))])
    r = np.concatenate([np.arange(m), rows])
    c = np.concatenate([np.arange(m), cols])
    return sparse.csc_matrix((data, (r, c)), shape=(m, m))


def _splu_column(lat, x):
    """Oracle: the column of ``G`` at `x` by one sparse LU solve of ``(I - P) u = e_x``."""
    from scipy.sparse.linalg import splu

    rhs = np.zeros(len(lat))
    rhs[lat.index_of(x)] = 1.0
    return splu(_killed_laplacian(lat)).solve(rhs)


def _random_set(d, m, seed, lo=-4, hi=4):
    rng = np.random.default_rng(seed)
    return LatticeSet.from_points(d, np.unique(rng.integers(lo, hi + 1, size=(m, d)), axis=0))


def _loop_neighbour_pairs(lat):
    """Oracle: every ordered pair of set points at l1 distance 1, by brute force."""
    pts = lat.points
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(dist == 1))}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neighbour_pairs_match_brute_force(d, seed):
    lat = _random_set(d, 60, seed)
    assert np.any(lat.points < 0)
    rows, cols = lattice_module._transition_coo(lat)
    assert len(rows) == len(_loop_neighbour_pairs(lat))
    assert set(zip(rows.tolist(), cols.tolist())) == _loop_neighbour_pairs(lat)
    system = _killed_laplacian(lat).tocoo()
    off = system.row != system.col
    assert np.all(system.data[off] == -1.0 / (2 * d))
    assert np.all(system.data[~off] == 1.0) and np.sum(~off) == len(lat)


def test_exit_distribution_matches_loop():
    lat = _random_set(3, 30, 9)
    mat = killed_green_matrix(lat)
    start = tuple(lat.points[4])
    row = mat.entries[lat.index_of(start)]
    members = {tuple(p) for p in lat.points}
    ref = {}
    for i, p in enumerate(lat.points):
        for s in lattice_module.unit_steps(3):
            out = tuple(int(c) for c in p + s)
            if out not in members:
                ref[out] = ref.get(out, 0.0) + row[i] / 6
    law = exit_distribution(lat, start, green=mat)
    assert list(law) == list(ref)  # same keys in the same order
    assert all(law[k] == ref[k] for k in ref)  # same sums, same order of addition


def test_membership_far_outside_and_wrong_dimension():
    s = LatticeSet.from_points(2, [(0, 0), (1, 0), (-3, 2)])
    far = [(10**6, 0), (-10**6, 2), (0, 10**9), (-5, 0), (1, -7)]
    assert not any(p in s for p in far)
    assert np.array_equal(s.rows_of(far + [(-3, 2), (1, 0)]), [-1] * 5 + [0, 2])
    assert (0, 0, 0) not in s
    assert np.array_equal(LatticeSet.from_points(2, []).rows_of([(0, 0)]), [-1])
    with pytest.raises(ValueError):
        LatticeSet.from_points(2, [(0, 0), (2**40, 0)])  # packed keys would overflow


def test_far_field_is_the_kernel_past_the_exact_range():
    gen = np.random.default_rng(5)
    for d, top in [(2, POTENTIAL_EXACT_RANGE), (3, EXACT_RANGE), (5, EXACT_RANGE)]:
        pts = gen.integers(-3 * top, 3 * top, size=(200, d))
        pts[:, 0] = gen.choice([-1, 1], size=200) * gen.integers(top + 1, 3 * top, size=200)
        np.testing.assert_array_equal(lattice_kernel(d, pts), lattice_module.far_field(d, pts))
    r = math.hypot(3, 4)
    assert lattice_module.far_field(2, [(3, 4)])[0] == pytest.approx(
        2 / math.pi * math.log(r) + POTENTIAL_KERNEL_CONSTANT, rel=1e-15)
    assert lattice_module.far_field(3, [(0, 3, -4)])[0] == pytest.approx(
        3 * green_constant(3) / r, rel=1e-15)


def test_exit_law_reconstructs_killed_green_3d():
    # the whole-space branch: g(x - y) - sum_z g(z - y) P_x(exit at z)
    lat = grid_points(Ball(center=(0.0, 0.0, 0.0), radius=1.0), GridSpec(d=3, n=27))
    mat = killed_green_matrix(lat)
    assert 20 < len(lat) < 200
    for x in [(0, 0, 0), (1, -1, 0)]:
        law = exit_distribution(lat, x, green=mat)
        for y in [(0, 0, 0), (1, 1, 1), (-2, 0, 1)]:
            via = killed_green_via_kernel(lat, x, y, law)
            assert via == pytest.approx(mat.entry(x, y), abs=1e-10)


def _disk(n):
    return grid_points(Ball(center=(0.0, 0.0), radius=1.0), GridSpec(d=2, n=n))


@pytest.mark.parametrize("n", [2, 18, 162, 1458, None], ids=lambda n: f"disk{n}" if n else "random3d")
def test_single_entry_matches_dense_matrix(n):
    lat = _disk(n) if n else _random_set(3, 80, 3)
    dense = killed_green_matrix(lat)
    pts = [tuple(p) for p in lat.points]
    pairs = [(pts[0], pts[0]), (pts[len(pts) // 2], pts[len(pts) // 2]),
             (pts[0], pts[-1]), (pts[len(pts) // 3], pts[len(pts) // 2])]
    for x, y in pairs:
        assert killed_green_entries(lat, x, [y])[0] == pytest.approx(dense.entry(x, y), rel=1e-12)
    x, ys = pts[len(pts) // 2], [pts[0], pts[-1], pts[len(pts) // 2], pts[len(pts) // 3]]
    expected = [dense.entry(x, y) for y in ys]
    assert killed_green_entries(lat, x, ys) == pytest.approx(expected, rel=1e-12)


def test_symmetry_check_raises_named_error(monkeypatch):
    # the full matrix is checked for symmetry; a single column by its residual certificate;
    # both fail as numerical failures, LinAlgError
    lat = _disk(18)
    x = tuple(lat.points[0])
    monkeypatch.setattr(lattice_module, "SYMMETRY_TOL", -1.0)
    with pytest.raises(np.linalg.LinAlgError, match="asymmetric beyond tolerance"):
        killed_green_matrix(lat)
    assert killed_green_entries(lat, x, [x])[0] >= 1.0
    monkeypatch.setattr(lattice_module, "CG_TOL", -1.0)
    with pytest.raises(np.linalg.LinAlgError, match="not certified"):
        killed_green_entries(lat, x, [x])
    with pytest.raises(np.linalg.LinAlgError, match="not certified"):  # off-grid disk value, several targets
        converge(Ball((0.0, 0.0), 1.0), ("power", 1.0), (0.2, 0.0), (-0.3, 0.1), 1, 18)


def _posv_green(lat):
    """The former dense route: LAPACK's positive-definite solve of ``(I - P) G = I``."""
    from scipy.linalg import solve

    m = len(lat)
    rows, cols = lattice_module._transition_coo(lat)
    a = np.eye(m)
    a[rows, cols] = -1.0 / (2 * lat.d)
    return solve(a, np.eye(m), assume_a="pos")


@pytest.mark.parametrize("n", [18, 162, None], ids=lambda n: f"disk{n}" if n else "random3d")
def test_dense_route_matches_sparse_posv_and_entries(n, monkeypatch):
    lat = _disk(n) if n else _random_set(3, 80, 3)
    assert len(lat) <= lattice_module.DENSE_LIMIT
    dense = killed_green_matrix(lat).entries
    pts = [tuple(p) for p in lat.points]
    x = pts[len(pts) // 2]
    row = killed_green_entries(lat, x, pts)
    monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 0)
    for ref in (killed_green_matrix(lat).entries, _posv_green(lat)):
        np.testing.assert_allclose(dense, ref, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(dense[lat.index_of(x)], row, rtol=1e-12, atol=1e-300)


def test_banded_route_on_narrow_bands(monkeypatch):
    """Half-bandwidths 0 (LAPACK ``pbsv`` on a diagonal) and 1 (``ptsv``)."""
    sets = [LatticeSet.from_points(d, [(0,) * d]) for d in (1, 2, 3)]
    sets.append(LatticeSet.from_points(1, [(i,) for i in range(-6, 7)]))
    sets.append(LatticeSet.from_points(2, [(0, j) for j in range(5)]))
    monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 0)
    for lat in sets:
        got = killed_green_matrix(lat).entries
        np.testing.assert_allclose(got, _absorbing_chain_green(lat.points, lat.d), rtol=1e-12)


def test_large_solve_and_inverse_stay_within_traced_memory():
    lat = _disk(1458)
    m = len(lat)
    assert m > lattice_module.DENSE_LIMIT
    import scipy.linalg  # noqa: F401  (its one-time import is not the solve's memory)
    unit = 8 * m * m
    tracemalloc.start()
    try:
        green = killed_green_matrix(lat).entries
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        report = is_inverse_m_matrix(green)
        inverse_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert report.is_potential is True
    assert solve_peak <= 1.3 * unit
    assert inverse_peak <= 1.2 * unit


# a U of seven unit squares: not convex, and a third of its bounding box is not in it
U_SHAPE = CubicSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)])


@pytest.mark.parametrize("domain, n", [(Ball((0.0, 0.0), 1.0), 13122),
                                       (Ball((0.0, 0.0, 0.0), 1.0), 243),
                                       (U_SHAPE, 800)], ids=["disk13122", "ball243", "u_shape"])
def test_cg_column_matches_sparse_lu(domain, n):
    # the whole column at two points, one of them next to the boundary, against splu: to
    # 1e-11 relative, or to roundoff of the largest entry where the far arm of the U is 1e-7
    lat = grid_points(domain, GridSpec(d=domain.d, n=n))
    pts = [tuple(p) for p in lat.points]
    for x in (pts[len(pts) // 2], pts[0]):
        got, ref = killed_green_entries(lat, x, pts), _splu_column(lat, x)
        assert np.all(got > 0)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-14 * ref.max())


def test_cg_column_is_exactly_zero_off_the_component_of_x():
    # two squares joined at a corner only: no walk crosses, G[x, y] = 0 exactly
    lat = grid_points(CubicSet(2, [(0, 0), (1, 1)]), GridSpec(d=2, n=2 * 16**2))
    pts = [tuple(p) for p in lat.points]
    got = killed_green_entries(lat, pts[0], pts)
    np.testing.assert_array_equal(got == 0.0, _splu_column(lat, pts[0]) == 0.0)
    assert 0 < np.count_nonzero(got) < len(pts)


def test_cg_box_over_budget_is_resource_stop_before_allocating(monkeypatch):
    lat = _disk(162)
    x = tuple(lat.points[0])

    def never(*args):
        raise AssertionError("allocated past the byte budget")

    # the n = 162 disk spans a 17 x 17 box, counted with a margin of one cell
    need = lattice_module._CG_ARRAYS * 8 * 19**2
    monkeypatch.setattr(lattice_module, "MAX_BYTES", need - 1)
    monkeypatch.setattr(lattice_module, "_component", never)  # the first box array
    with pytest.raises(lattice_module.ResourceLimitError,
                       match=f"a killed Green column on a 17x17 box needs {need} bytes, "
                             f"over the budget of {need - 1}"):
        killed_green_entries(lat, x, [x])
    monkeypatch.setattr(lattice_module, "MAX_BYTES", need)
    with pytest.raises(AssertionError, match="allocated"):
        killed_green_entries(lat, x, [x])


@pytest.mark.parametrize("dense_limit", [None, 0], ids=["numpy", "banded"])
def test_killed_green_matrix_budget_counts_g_before_allocating(monkeypatch, dense_limit):
    lat = _disk(18)  # m = 25: G takes 8 * 25**2 bytes
    if dense_limit is not None:
        monkeypatch.setattr(lattice_module, "DENSE_LIMIT", dense_limit)
    monkeypatch.setattr(lattice_module, "MAX_BYTES", 8 * 25**2)
    assert killed_green_matrix(lat).entries.shape == (25, 25)

    def never(lattice):
        raise AssertionError("allocated past the byte budget")

    monkeypatch.setattr(lattice_module, "MAX_BYTES", 8 * 25**2 - 1)
    monkeypatch.setattr(lattice_module, "_transition_coo", never)  # the first array built
    with pytest.raises(lattice_module.ResourceLimitError,
                       match="a killed Green matrix of 25 points needs 5000 bytes, "
                             "over the budget of 4999"):
        killed_green_matrix(lat)


def test_cg_column_reads_every_target_through_the_set_index():
    lat = _disk(162)
    dense = killed_green_matrix(lat).entries
    targets = [tuple(p) for p in lat.points]
    for i in (0, len(lat) // 2):
        np.testing.assert_allclose(killed_green_entries(lat, targets[i], targets), dense[i], rtol=1e-12)
    with pytest.raises(KeyError, match=r"\(100, 0\) is not in the lattice set"):
        killed_green_entries(lat, targets[0], targets[:3] + [(100, 0)] + targets[3:])


@pytest.mark.parametrize("domain, n", [(Ball((0.0, 0.0), 1.0), 13122),
                                       (Ball((0.0, 0.0, 0.0), 1.0), 2187)], ids=["disk", "ball"])
def test_cg_column_stays_within_its_byte_budget(domain, n):
    # the budget counts _CG_ARRAYS float64 arrays over the box widened by one cell per side,
    # against the one byte budget MAX_BYTES
    lat = grid_points(domain, GridSpec(d=domain.d, n=n))
    x = tuple(lat.points[len(lat) // 2])
    box = 8 * math.prod(int(s) + 3 for s in lat.points.max(axis=0) - lat.points.min(axis=0))
    assert lattice_module._CG_ARRAYS * box <= lattice_module.MAX_BYTES
    killed_green_entries(lat, x, [x])  # one-time imports are not the solve's memory
    tracemalloc.start()
    try:
        killed_green_entries(lat, x, [x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= lattice_module._CG_ARRAYS * box
