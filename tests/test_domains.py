"""Tests for domain geometry, grids, and discretization.

Tiny grids are enumerated by hand; distance helpers are checked against
closed-form sup-norm distances and against brute minimization over a fine
sample of the domain.  The array methods are checked bit for bit against
per-point references: the breakpoint loop for a ball, and the orthant
loop and ring search for a cubic set.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpot import (
    Ball,
    Box,
    CubicSet,
    GridSpec,
    Intersection,
    domain_from_json,
    exterior_grid,
    grid_points,
    interior_grid,
    round_to_grid,
)
from greenpot.domains import TIE_TOL, split_ties


def test_grid_spec_spacing():
    assert GridSpec(d=2, n=2).h == pytest.approx(1.0, rel=1e-15)
    assert GridSpec(d=3, n=3).h == pytest.approx(1.0, rel=1e-15)
    assert GridSpec(d=2, n=8).h == pytest.approx(0.5, rel=1e-15)
    seq = GridSpec.level_sequence(2, 2, 4)
    assert [g.n for g in seq] == [2, 18, 162, 1458]
    with pytest.raises(ValueError):
        GridSpec(d=0, n=1)


def test_unit_ball_coarse_grid_is_origin_only():
    pts = grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=2))
    assert [tuple(p) for p in pts.points] == [(0, 0)]


def test_unit_ball_half_spacing_grid():
    # h = 1/2: indices with |k| < 2, so the 3x3 block minus the four
    # points at distance exactly 1
    pts = grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=8))
    got = {tuple(p) for p in pts.points}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_open_box_grid_excludes_boundary():
    box = Box((-1.5, -1.5), (1.5, 1.5))
    pts = grid_points(box, GridSpec(d=2, n=2))
    assert len(pts) == 9
    closed_edge = Box((-1.0, -1.0), (1.0, 1.0))
    pts2 = grid_points(closed_edge, GridSpec(d=2, n=2))
    assert [tuple(p) for p in pts2.points] == [(0, 0)]  # corners lie on the boundary


def test_ball_distance_helpers_exact():
    ball = Ball((0.0, 0.0), 1.0)
    assert ball.dist_inf_to_complement((0, 0)) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert ball.dist_inf_to_complement((2, 0)) == 0.0
    assert ball.dist_inf_to_set((2, 0)) == pytest.approx(1.0, rel=1e-12)
    assert ball.dist_inf_to_set((2, 2)) == pytest.approx(2 - math.sqrt(0.5), rel=1e-12)
    assert ball.dist_inf_to_set((0.3, 0.2)) == 0.0


@given(
    x=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    r=st.floats(0.2, 2.0),
)
@settings(max_examples=60)
def test_ball_distances_validated_by_cube_probe(x, r):
    # t = dist to complement means the sup cube of half-width t fits inside;
    # probe with the worst corner
    ball = Ball((0.0, 0.0), r)
    t = ball.dist_inf_to_complement(x)
    if t > 0:
        corner = np.abs(np.asarray(x)) + t * (1 - 1e-9)
        assert float(corner @ corner) <= r * r * (1 + 1e-7)
    s = ball.dist_inf_to_set(x)
    if s > 0:
        shrunk = np.maximum(np.abs(np.asarray(x)) - s * (1 + 1e-9), 0.0)
        assert float(shrunk @ shrunk) <= r * r * (1 + 1e-7)
        nearly = np.maximum(np.abs(np.asarray(x)) - s * (1 - 1e-6), 0.0)
        assert float(nearly @ nearly) >= r * r * (1 - 1e-5)


def test_box_distance_helpers():
    box = Box((0.0, 0.0), (2.0, 1.0))
    assert box.dist_inf_to_complement((1.0, 0.5)) == pytest.approx(0.5)
    assert box.dist_inf_to_complement((0.2, 0.5)) == pytest.approx(0.2)
    assert box.dist_inf_to_set((3.0, 0.5)) == pytest.approx(1.0)
    assert box.dist_inf_to_set((1.0, 0.5)) == 0.0
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (0.0, 1.0))


def test_cubic_set_shared_face_is_interior():
    dom = CubicSet(2, [(0, 0), (1, 0)])  # side 1, two cubes in a row
    assert dom.side == pytest.approx(1.0, rel=1e-15)
    assert dom.contains((0.5, 0.0))  # center of the shared face
    assert dom.contains((0.5, 0.49))
    assert not dom.contains((0.5, 0.5))  # edge of the shared face
    assert not dom.contains((0.0, 0.5))  # exposed face
    assert not dom.contains((-0.5, 0.0))
    assert dom.contains((1.0, 0.0))
    assert not dom.contains((1.5, 0.0))


def test_cubic_set_diagonal_corner_is_not_interior():
    dom = CubicSet(2, [(0, 0), (1, 1)])
    assert not dom.contains((0.5, 0.5))  # touching only at the corner
    assert dom.contains((0.0, 0.0))
    assert dom.contains((1.0, 1.0))


def test_cubic_set_distance_helpers():
    dom = CubicSet(2, [(0, 0), (1, 0)])
    assert dom.dist_inf_to_complement((0.5, 0.0)) == pytest.approx(0.5, rel=1e-12)
    assert dom.dist_inf_to_complement((0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)
    assert dom.dist_inf_to_complement((0.5, 0.5)) == 0.0
    assert dom.dist_inf_to_set((2.5, 0.0)) == pytest.approx(1.0, rel=1e-12)
    assert dom.dist_inf_to_set((0.25, 0.1)) == 0.0


def test_cubic_set_validation():
    with pytest.raises(ValueError):
        CubicSet(0, [(0, 0)])
    with pytest.raises(ValueError):
        CubicSet(2, [])
    with pytest.raises(ValueError):
        CubicSet(2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        CubicSet(2, [(0, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="basis"):
        CubicSet(2, [(0, 0), (2**63, 0)])


def test_intersection_truncates():
    strip = Box((-10.0, -0.6), (10.0, 0.6))
    trunc = Intersection(strip, Ball((0.0, 0.0), 2.0))
    assert trunc.contains((1.5, 0.0))
    assert not trunc.contains((3.0, 0.0))  # cut off by the ball
    assert not trunc.contains((0.0, 0.7))  # cut off by the strip
    assert trunc.dist_inf_to_complement((0.0, 0.0)) == pytest.approx(0.6, rel=1e-12)
    with pytest.raises(ValueError):
        Intersection(strip, Ball((0.0, 0.0, 0.0), 1.0))


def test_round_to_grid_basics_and_ties():
    g = GridSpec(d=2, n=2)  # h = 1
    assert tuple(round_to_grid((0.49, -0.49), g)) == (0, 0)
    assert tuple(round_to_grid((0.51, 0.0), g)) == (1, 0)
    # midpoints resolve to the smaller index in each coordinate
    assert tuple(round_to_grid((0.5, -0.5), g)) == (0, -1)
    assert tuple(round_to_grid((1.5, 2.5), g)) == (1, 2)
    with pytest.raises(ValueError):
        round_to_grid((0.1, 0.2, 0.3), g)


@given(
    x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    n=st.sampled_from([2, 8, 18, 50]),
)
def test_round_to_grid_is_nearest(x, n):
    g = GridSpec(d=2, n=n)
    k = round_to_grid(x, g)
    err = np.max(np.abs(np.asarray(x) - g.h * k))
    assert err <= g.h / 2 * (1 + 1e-9)


DOMAINS = [
    Ball((0.0, 0.0), 1.0),
    Box((-1.0, -0.5), (1.0, 0.8)),
    CubicSet(2, [(0, 0), (1, 0), (1, 1)]),
    Intersection(Box((-5.0, -0.7), (5.0, 0.7)), Ball((0.0, 0.0), 1.5)),
]


@pytest.mark.parametrize("domain", DOMAINS, ids=[type(d).__name__ for d in DOMAINS])
def test_grid_sandwich(domain):
    grid = GridSpec(d=2, n=32)
    inner = {tuple(p) for p in interior_grid(domain, grid).points}
    mid = {tuple(p) for p in grid_points(domain, grid).points}
    outer = {tuple(p) for p in exterior_grid(domain, grid).points}
    assert inner <= mid <= outer
    assert inner < outer  # strict at this resolution


def test_exterior_grid_of_coarse_ball():
    # h = 1: every index of the closed square [-1,1]^2 is within one
    # spacing of the ball, the axis points at distance exactly 1 are not
    outer = exterior_grid(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=2))
    got = {tuple(p) for p in outer.points}
    assert got == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_refinement_nests_scaled_points():
    ball = Ball((0.0, 0.0), 1.0)
    g = GridSpec(d=2, n=18)
    fine = {tuple(p) for p in grid_points(ball, GridSpec(d=2, n=9 * 18)).points}
    for p in grid_points(ball, g).points:
        assert tuple(3 * p) in fine


def test_domain_from_json_documents():
    documents = [
        ('{"d":2,"shape":{"ball":{"center":[0,0],"radius":1}}}', Ball((0.0, 0.0), 1.0)),
        ('{"d":2,"shape":{"box":{"lo":[-1,-0.5],"hi":[1,0.8]}}}',
         Box((-1.0, -0.5), (1.0, 0.8))),
        ('{"d":2,"shape":{"cubic":{"height":2,"basis":[[1,1],[0,0],[1,0]]}}}',
         CubicSet(2, [(0, 0), (1, 0), (1, 1)])),
        ('{"d":2,"shape":{"intersect_ball":{"inner":{"box":{"lo":[-5,-0.7],"hi":[5,0.7]}},'
         '"center":[0,0],"radius":1.5}}}',
         Intersection(Box((-5.0, -0.7), (5.0, 0.7)), Ball((0.0, 0.0), 1.5))),
        ('{"d":3,"shape":{"intersect_ball":{"inner":{"intersect_ball":{"inner":'
         '{"cubic":{"height":3,"basis":[[0,0,0]]}},"center":[0.5,0,0],"radius":2}},'
         '"center":[0,0,0.25],"radius":0.75}}}',
         Intersection(Intersection(CubicSet(3, [(0, 0, 0)]), Ball((0.5, 0.0, 0.0), 2.0)),
                      Ball((0.0, 0.0, 0.25), 0.75))),
    ]
    for text, domain in documents:
        assert domain_from_json(text) == domain
    with pytest.raises(ValueError):
        domain_from_json('{"d":2,"shape":{"pyramid":{}}}')


# ---------------------------------------------------------------------------
# per-point references for the array methods


def _ball_contains(ball, p):
    # the open ball; within TIE_TOL (relative) of the sphere counts as on it
    q = sum((float(a) - c) ** 2 for a, c in zip(p, ball.center))
    return q < ball.radius**2 * (1.0 - TIE_TOL)


def _ball_dist_inf_to_complement(ball, p):
    a = np.abs(p - ball.center)
    gap = ball.radius**2 - float(a @ a)
    if gap <= 0:
        return 0.0
    s, d = float(a.sum()), len(a)
    return (math.sqrt(s * s + d * gap) - s) / d


def _ball_dist_inf_to_set(ball, p):
    a = np.sort(np.abs(p - ball.center))[::-1]
    if float(a @ a) < ball.radius**2:
        return 0.0
    r2 = ball.radius**2
    d = len(a)
    for k in range(d):  # active coordinates a[0..k]
        hi = a[k + 1] if k + 1 < d else 0.0
        m, s, q = k + 1, float(a[: k + 1].sum()), float(a[: k + 1] @ a[: k + 1])
        disc = s * s - m * (q - r2)
        if disc < 0:
            continue
        t = (s - math.sqrt(disc)) / m
        if hi <= t <= a[k] + 1e-12:
            return max(t, 0.0)
    return 0.0


def _box_dist(p, lo, hi):
    return max(float(np.max(np.maximum(lo - p, p - hi))), 0.0)


def _cube_bounds(dom, k):
    c = np.asarray(k, dtype=float) * dom.side
    return c - dom.side / 2, c + dom.side / 2


def _cubic_contains(dom, p):
    # every orthant of an infinitesimal cube at p lies in a basis cube
    cell, tie = split_ties(p / dom.side + 0.5)
    slabs = [(int(c) - 1, int(c)) if t else (int(c),) for c, t in zip(cell, tie)]
    return all(k in dom.basis for k in itertools.product(*slabs))


def _index_ring(home, ring, d):
    if ring == 0:
        yield tuple(int(c) for c in home)
        return
    for offset in np.ndindex(*([2 * ring + 1] * d)):
        off = np.asarray(offset) - ring
        if np.max(np.abs(off)) == ring:
            yield tuple(int(c) for c in home + off)


def _cubic_dist_inf_to_complement(dom, p):
    # cells one ring further are at least (ring - 1/2) * side away
    home = np.round(p / dom.side).astype(np.int64)
    best, ring = math.inf, 0
    while best > (ring - 0.5) * dom.side:
        for k in _index_ring(home, ring, dom.d):
            if k not in dom.basis:
                best = min(best, _box_dist(p, *_cube_bounds(dom, k)))
        ring += 1
    return best


def _cubic_dist_inf_to_set(dom, p):
    return min(_box_dist(p, *_cube_bounds(dom, k)) for k in dom.basis)


REFERENCES = {
    (Ball, "contains"): _ball_contains,
    (Ball, "dist_inf_to_complement"): _ball_dist_inf_to_complement,
    (Ball, "dist_inf_to_set"): _ball_dist_inf_to_set,
    (Box, "contains"): lambda b, p: bool(np.all(p > b.lo) and np.all(p < b.hi)),
    (Box, "dist_inf_to_complement"):
        lambda b, p: max(float(np.min(np.minimum(p - b.lo, b.hi - p))), 0.0),
    (Box, "dist_inf_to_set"): lambda b, p: _box_dist(p, np.asarray(b.lo), np.asarray(b.hi)),
    (CubicSet, "contains"): _cubic_contains,
    (CubicSet, "dist_inf_to_complement"): _cubic_dist_inf_to_complement,
    (CubicSet, "dist_inf_to_set"): _cubic_dist_inf_to_set,
}


def _reference(domain, method, p):
    if isinstance(domain, Intersection):
        a, b = _reference(domain.ball, method, p), _reference(domain.inner, method, p)
        return {"contains": a and b, "dist_inf_to_complement": min(a, b),
                "dist_inf_to_set": max(a, b)}[method]
    return REFERENCES[type(domain), method](domain, p)


ORACLE_DOMAINS = [
    Ball((0.0, 0.0), 1.0),
    Ball((0.3, -0.2), 1.3),
    Ball((0.0, 0.0, 0.0), 1.0),
    Ball((2.0, 0.0, 0.0), 1.0),
    Box((-1.0, -0.5), (1.0, 0.8)),
    Box((-1.0, -0.5, 0.0), (1.0, 0.8, 0.9)),
    CubicSet(2, [(0, 0), (1, 0), (1, 1), (3, 3), (2, 2)]),
    CubicSet(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (3, 0, 0)]),
    Intersection(Box((-5.0, -0.7), (5.0, 0.7)), Ball((0.0, 0.0), 1.5)),
    Intersection(CubicSet(3, [(0, 0, 0), (1, 0, 0), (1, 1, 0)]), Ball((0.5, 0.0, 0.0), 1.2)),
]
METHODS = ("contains", "dist_inf_to_complement", "dist_inf_to_set")


def _probe_points(domain, n, seed):
    """Lattice points of spacing sqrt(d/n) around the domain, where
    corners, faces and sphere crossings tie, plus uniform random points."""
    h = math.sqrt(domain.d / n)
    lo, hi = domain.bbox()
    axes = [np.arange(math.floor(a / h) - 2, math.ceil(b / h) + 3) * h for a, b in zip(lo, hi)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, domain.d)
    rng = np.random.default_rng(seed)
    return np.vstack([lattice, rng.uniform(lo - 0.5, hi + 0.5, size=(200, domain.d))])


@pytest.mark.parametrize("domain", ORACLE_DOMAINS,
                         ids=[f"{type(d).__name__}{d.d}-{i}" for i, d in enumerate(ORACLE_DOMAINS)])
@pytest.mark.parametrize("method", METHODS)
def test_array_methods_match_point_references(domain, method):
    for seed, n in enumerate((18, 27, 72)):
        pts = _probe_points(domain, n, seed)
        got = getattr(domain, method)(pts)
        want = np.array([_reference(domain, method, p) for p in pts], dtype=got.dtype)
        assert got.shape == (len(pts),)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("domain", ORACLE_DOMAINS[::3], ids=lambda d: type(d).__name__)
def test_one_point_is_the_row_of_the_array_call(domain):
    pts = _probe_points(domain, 18, 0)[::7]
    for method in METHODS:
        rows = getattr(domain, method)(pts)
        for p, row in zip(pts, rows):
            value = getattr(domain, method)(tuple(p))
            assert type(value) is (bool if method == "contains" else float)
            assert value == row
        empty = getattr(domain, method)(np.empty((0, domain.d)))
        assert empty.shape == (0,) and empty.dtype == rows.dtype


def test_open_ball_leaves_out_lattice_points_on_its_sphere():
    # at n = 72 in d = 3, h^2 = 1/24: the 24 index permutations of
    # (+-2, +-2, +-4) have |x| = 1, and roundoff kept 8 of them before
    ball, grid = Ball((0.0, 0.0, 0.0), 1.0), GridSpec(d=3, n=72)
    sphere = {p for q in itertools.permutations((2, 2, 4))
              for p in itertools.product(*[(c, -c) for c in q])}
    assert len(sphere) == 24
    kept = {tuple(int(c) for c in p) for p in grid_points(ball, grid).points}
    assert not kept & sphere
    assert not ball.contains(np.array(sorted(sphere), dtype=float) * grid.h).any()


def test_ball_contains_does_not_depend_on_memory_order():
    # the wrapped method takes the array as given, bypassing the C-order copy
    ball, grid = Ball((0.0, 0.0, 0.0), 1.0), GridSpec(d=3, n=72)
    axis = np.arange(-6, 7) * grid.h
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    c_order = Ball.contains.__wrapped__(ball, np.ascontiguousarray(pts))
    f_order = Ball.contains.__wrapped__(ball, np.asfortranarray(pts))
    np.testing.assert_array_equal(c_order, f_order)
    assert c_order.sum() == len(grid_points(ball, grid))


def test_cubic_basis_too_wide_to_index_is_rejected():
    with pytest.raises(ValueError, match="too wide"):
        CubicSet(2, [(0, 0), (2**32, 0)])


@pytest.mark.parametrize("domain,n,interior,exterior", [
    # candidates at sup distance exactly one spacing sit on both grids' tie
    (Ball((0.0, 0.0, 0.0), 1.0), 27, 7, 311),
    (Ball((2.0, 0.0, 0.0), 1.0), 27, 7, 311),  # a lattice shift of the same grids
    (Ball((0.0, 0.0, 0.0), 1.0), 243, 1695, 4675),
    (CubicSet(2, [(0, 0), (1, 0), (1, 1), (3, 3), (2, 2)]), 72, 63, 229),
])
def test_one_spacing_ties_are_on_neither_grid(domain, n, interior, exterior):
    grid = GridSpec(d=domain.d, n=n)
    assert len(interior_grid(domain, grid)) == interior
    assert len(exterior_grid(domain, grid)) == exterior


def test_exterior_grid_evaluates_candidates_in_blocks():
    # 59^3 = 205379 candidates; one pass over all of them at once peaked
    # at 43.7 MB traced, the blocks of the box walk at 8.8 MB
    grid = GridSpec(d=3, n=2187)
    tracemalloc.start()
    try:
        outer = exterior_grid(Ball((0.0, 0.0, 0.0), 1.0), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outer) > 0
    assert peak < 20 * 2**20
