"""Tests for the Monte Carlo estimators.

Every randomized check runs with a fixed seed, so outcomes are
deterministic; tolerances are multiples of the reported standard error
plus any rigorous truncation bound.  Linear-algebra results from the
lattice module give exact targets for the walk estimators.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from greenpot import (
    Ball,
    BallIndicator,
    GridSpec,
    LatticeSet,
    McEstimate,
    RngStream,
    StepBudgetError,
    cubic_open_set,
    disk_green_2d,
    estimate_boundary_term,
    estimate_riesz_potential,
    exit_distribution,
    exit_statistics,
    grid_points,
    killed_green_matrix,
    outer_boundary,
    riesz_params,
    riesz_tail_bound,
    round_to_grid,
    sample_exit,
    sample_half_stable,
    sample_stable_increment,
    whole_space_green,
)
from greenpot import mc

TWO_POINT = LatticeSet.from_points(2, [(0, 0), (1, 0)])


def test_rng_stream_reproducible_and_stream_separated():
    a = RngStream(2024).generator().integers(0, 2**32, 8)
    b = RngStream(2024).generator().integers(0, 2**32, 8)
    c = RngStream(2024, stream=1).generator().integers(0, 2**32, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = RngStream(2024).child(3).integers(0, 2**32, 8)
    e = RngStream(2024).child(4).integers(0, 2**32, 8)
    assert not np.array_equal(d, e)


def test_mc_estimate_validation_and_json():
    est = McEstimate(mean=1.0, stderr=0.1, trials=100, seed=7, tail_bound=0.01)
    obj = json.loads(est.to_json())
    assert obj == {"mean": 1.0, "stderr": 0.1, "trials": 100, "seed": 7, "tail_bound": 0.01}
    bare = McEstimate(mean=1.0, stderr=0.1, trials=100, seed=7)
    assert "tail_bound" not in json.loads(bare.to_json())
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, stderr=0.0, trials=1, seed=0)


def test_sample_exit_leaves_through_boundary():
    bnd = {tuple(p) for p in outer_boundary(TWO_POINT).points}
    for k in range(20):
        exit_pt, visits = sample_exit(TWO_POINT, (0, 0), RngStream(100 + k))
        assert exit_pt in bnd
        assert visits[TWO_POINT.index_of((0, 0))] >= 1
        assert visits.sum() >= 1
    with pytest.raises(ValueError):
        sample_exit(TWO_POINT, (5, 5), RngStream(0))


def test_exit_statistics_match_green_matrix():
    # mean visit counts are the killed Green row: 16/15 and 4/15
    mean, stderr, law = exit_statistics(TWO_POINT, (0, 0), trials=20_000, rng=RngStream(1))
    i0, i1 = TWO_POINT.index_of((0, 0)), TWO_POINT.index_of((1, 0))
    assert abs(mean[i0] - 16 / 15) <= 4 * stderr[i0]
    assert abs(mean[i1] - 4 / 15) <= 4 * stderr[i1]
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    exact_law = exit_distribution(TWO_POINT, (0, 0))
    for pt, p in exact_law.items():
        se = math.sqrt(p * (1 - p) / 20_000)
        assert abs(law.get(pt, 0.0) - p) <= 5 * se + 1e-12


def _loop_walk(lattice, start, trials, gen):
    """Oracle for the vectorized walk: the same draws, membership by Python set."""
    members = {tuple(p): i for i, p in enumerate(lattice.points)}
    steps = np.vstack([[(1 if k == j else 0) * s for k in range(lattice.d)]
                       for j in range(lattice.d) for s in (1, -1)])
    pos = [np.array(start) for _ in range(trials)]
    active = list(range(trials))
    exits = [None] * trials
    counts = np.zeros((trials, len(lattice)), dtype=np.int64)
    counts[:, members[tuple(start)]] += 1
    while active:
        draws = gen.integers(0, len(steps), size=len(active))
        still = []
        for t, k in zip(active, draws):
            pos[t] = pos[t] + steps[k]
            row = members.get(tuple(int(c) for c in pos[t]))
            if row is None:
                exits[t] = tuple(int(c) for c in pos[t])
            else:
                counts[t, row] += 1
                still.append(t)
        active = still
    return exits, counts


def test_vectorized_walk_matches_loop():
    # a 3-d ball, a planar disk and an L of three unit squares
    cases = [(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 12, (0.2, -0.1, 0.0)),
             (Ball(center=(0.0, 0.0), radius=1.0), 162, (0.1, 0.05)),
             (cubic_open_set(2, [(0, 0), (1, 0), (1, 1)]), 18, (0.5, 0.0))]
    for domain, n, x in cases:
        grid = GridSpec(d=domain.d, n=n)
        lat = grid_points(domain, grid)
        start = round_to_grid(x, grid)
        counts = np.zeros((300, len(lat)), dtype=np.int64)
        exits = mc._walk_block(lat, start, 300, RngStream(11).child(0), 10**6, counts)
        ref_exits, ref_counts = _loop_walk(lat, tuple(start), 300, RngStream(11).child(0))
        assert [tuple(int(c) for c in e) for e in exits] == ref_exits
        assert np.array_equal(counts, ref_counts)


def test_exit_statistics_bit_reproducible(monkeypatch):
    args = dict(trials=3_000, rng=RngStream(9))
    m1, s1, l1 = exit_statistics(TWO_POINT, (0, 0), **args)
    m2, s2, l2 = exit_statistics(TWO_POINT, (0, 0), **args)
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2) and l1 == l2
    # the fixed chunking makes the reduction independent of the thread count
    monkeypatch.setenv("GREENPOT_THREADS", "4")
    m3, s3, l3 = exit_statistics(TWO_POINT, (0, 0), **args)
    assert np.array_equal(m1, m3) and np.array_equal(s1, s3) and l1 == l3


def test_step_budget_enforced():
    pts = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
    lat = LatticeSet.from_points(2, pts)
    with pytest.raises(StepBudgetError):
        sample_exit(lat, (0, 0), RngStream(3), step_budget=3)


def test_boundary_term_matches_dense_solve_planar():
    # the estimator's expectation is exactly (1/2) g_E at the rounded
    # points, by the exit-law identity; compare against the dense solve
    dom = Ball((0.0, 0.0), 1.0)
    grid = GridSpec(d=2, n=162)
    x, y = (1 / 9, 0.0), (-1 / 9, 1 / 27)
    est = estimate_boundary_term(dom, grid, x, y, trials=4_000, rng=RngStream(5))
    mat = killed_green_matrix(grid_points(dom, grid))
    exact = 0.5 * mat.entry(round_to_grid(x, grid), round_to_grid(y, grid))
    assert abs(est.mean - exact) <= 4 * est.stderr
    assert est.trials == 4_000 and est.seed == 5


def test_boundary_term_approaches_disk_kernel():
    # finer grid: the same estimator lands near the continuum kernel
    dom = Ball((0.0, 0.0), 1.0)
    grid = GridSpec(d=2, n=1458)
    x, y = (1 / 9, 0.0), (-1 / 9, 1 / 27)
    est = estimate_boundary_term(dom, grid, x, y, trials=2_000, rng=RngStream(7))
    ref = disk_green_2d(1.0, x, y)
    assert abs(est.mean - ref) <= max(4 * est.stderr, 0.05 * ref)


def test_boundary_term_matches_dense_solve_3d():
    # killed value = scaled free kernel minus the boundary term
    dom = Ball((0.0, 0.0, 0.0), 0.8)
    grid = GridSpec(d=3, n=12)
    x, y = (0.1, 0.0, 0.0), (-0.5, 0.0, 0.0)
    est = estimate_boundary_term(dom, grid, x, y, trials=4_000, rng=RngStream(11))
    u, v = round_to_grid(x, grid), round_to_grid(y, grid)
    scale = 12**0.5 / 3**1.5
    exact = scale * killed_green_matrix(grid_points(dom, grid)).entry(u, v)
    via_mc = scale * whole_space_green(3, u - v) - est.mean
    assert abs(via_mc - exact) <= 4 * est.stderr


def test_boundary_term_preconditions():
    dom = Ball((0.0, 0.0), 1.0)
    grid = GridSpec(d=2, n=162)
    with pytest.raises(ValueError):
        estimate_boundary_term(dom, grid, (0.1, 0.0), (0.1, 0.0), 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_boundary_term(dom, grid, (0.99, 0.0), (0.0, 0.0), 100, RngStream(0))
    with pytest.raises(ValueError):
        estimate_boundary_term(dom, grid, (0.1, 0.0), (0.2, 0.0), 1, RngStream(0))


def test_half_stable_laplace_transform():
    eta = sample_half_stable(1.0, RngStream(31).generator(), 200_000)
    for lam in (0.5, 1.0, 2.0):
        vals = np.exp(-lam * eta)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(-math.sqrt(lam))) <= 4 * se
    with pytest.raises(ValueError):
        sample_half_stable(0.0, RngStream(0).generator())


def test_half_stable_time_scaling():
    # eta_t has the law of t^2 eta_1
    a = sample_half_stable(2.0, RngStream(41).generator(), 20_000)
    b = 4.0 * sample_half_stable(1.0, RngStream(42).generator(), 20_000)
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_stable_increment_alpha_one_matches_half_stable():
    # Laplace exponent sqrt(lambda) two ways: Kanter draw at alpha = 1
    # versus the normal-quotient passage time
    a = sample_stable_increment(1.0, 1.0, RngStream(12).generator(), 20_000)
    b = sample_half_stable(1.0, RngStream(13).generator(), 20_000)
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_stable_increment_additivity():
    gen = RngStream(21).generator()
    s = sample_stable_increment(1.2, 0.4, gen, 20_000) + sample_stable_increment(
        1.2, 0.6, gen, 20_000
    )
    w = sample_stable_increment(1.2, 1.0, RngStream(22).generator(), 20_000)
    assert stats.ks_2samp(s, w).pvalue > 0.01


def test_stable_increment_validation():
    gen = RngStream(0).generator()
    with pytest.raises(ValueError):
        sample_stable_increment(2.0, 1.0, gen)
    with pytest.raises(ValueError):
        sample_stable_increment(0.0, 1.0, gen)
    with pytest.raises(ValueError):
        sample_stable_increment(1.0, -0.1, gen)


def test_riesz_tail_bound_closed_form_alpha_two():
    # alpha = 2 (beta = 1): D = 1 and the bound is
    # vol(B) (2 pi)^(-3/2) * 2 * T^(-1/2)
    T = 40.0
    expected = (4 * math.pi / 3) * (2 * math.pi) ** -1.5 * 2.0 / math.sqrt(T)
    assert riesz_tail_bound(3, 1.0, 1.0, T) == pytest.approx(expected, rel=1e-12)


def test_riesz_tail_bound_monotone():
    assert riesz_tail_bound(3, 2.0, 1.0, 20.0) < riesz_tail_bound(3, 2.0, 1.0, 10.0)
    assert riesz_tail_bound(3, 2.0, 0.5, 10.0) < riesz_tail_bound(3, 2.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        riesz_tail_bound(3, 2.0, 1.0, 0.0)


def test_riesz_estimate_matches_closed_form_target():
    # target (1 - (3/4) log 3) / (2 pi), the exact squared-kernel mass
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    est = estimate_riesz_potential(
        3, 2.0, ind, (0.0, 0.0, 0.0), time_step=0.1, horizon=8.0,
        trials=20_000, rng=RngStream(77),
    )
    oracle = 0.02801776087962292
    assert abs(est.mean - oracle) <= 3 * est.stderr + est.tail_bound
    assert est.tail_bound == pytest.approx(riesz_tail_bound(3, 2.0, 1.0, 8.0), rel=1e-12)


def test_riesz_estimate_deterministic_times_at_beta_one():
    # beta = 1 runs Brownian motion on a fixed time grid; same target as
    # the Newton value 1/3 up to the (large) tail at this short horizon
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    est = estimate_riesz_potential(
        3, 1.0, ind, (0.0, 0.0, 0.0), time_step=0.1, horizon=20.0,
        trials=10_000, rng=RngStream(80),
    )
    assert abs(est.mean - 1.0 / 3.0) <= 3 * est.stderr + est.tail_bound


def test_riesz_estimate_horizon_guard():
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="horizon too small"):
        estimate_riesz_potential(
            3, 2.0, ind, (0.0, 0.0, 0.0), time_step=0.1, horizon=2.0,
            trials=100, rng=RngStream(0), tail_tolerance=1e-4,
        )
    with pytest.raises(ValueError):
        estimate_riesz_potential(
            3, 2.0, ind, (0.0, 0.0, 0.0), time_step=0.0, horizon=2.0,
            trials=100, rng=RngStream(0),
        )


def test_riesz_estimate_bit_reproducible(monkeypatch):
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    kwargs = dict(time_step=0.2, horizon=4.0, trials=10_000, rng=RngStream(5))
    a = estimate_riesz_potential(3, 2.0, ind, (0.0, 0.0, 0.0), **kwargs)
    monkeypatch.setenv("GREENPOT_THREADS", "3")
    b = estimate_riesz_potential(3, 2.0, ind, (0.0, 0.0, 0.0), **kwargs)
    assert a == b


def _whole_block_riesz(d, beta, indicator, x, time_step, horizon, trials, rng):
    """Oracle for the chunked worker: each block draws all its uniforms,
    then all its exponentials, then all its normals, and holds them at once."""
    params = riesz_params(d, beta)
    nsteps = int(round(horizon / time_step))
    x_arr = np.asarray(x, dtype=float)
    total = total_sq = 0.0
    for b, n in enumerate(mc._block_sizes(trials)):
        gen = rng.child(b)
        shape = (n, nsteps)
        if params.alpha == 2.0:
            eta = np.full(shape, time_step)
        else:
            rho = params.alpha / 2.0
            theta = gen.uniform(0.0, math.pi, shape)
            assert not np.any(theta == 0.0)
            w = gen.exponential(1.0, shape)
            a = (np.sin(rho * theta) ** rho * np.sin((1.0 - rho) * theta) ** (1.0 - rho)
                 / np.sin(theta)) ** (1.0 / (1.0 - rho))
            eta = time_step ** (2.0 / params.alpha) * (a / w) ** ((1.0 - rho) / rho)
        moves = gen.standard_normal(shape + (d,)) * np.sqrt(eta)[..., None]
        paths = np.cumsum(moves, axis=1) + x_arr
        hits = np.asarray(indicator(paths.reshape(-1, d)), dtype=float).reshape(shape)
        vals = params.coefficient * time_step * hits.sum(axis=1)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    bound = riesz_tail_bound(d, beta, indicator.radius, nsteps * time_step)
    return mc._estimate(total, total_sq, trials, rng.seed, tail_bound=bound)


@pytest.mark.parametrize("chunk_bytes", [1, 2**40], ids=["row", "block"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 2.7])
def test_chunked_riesz_worker_matches_whole_block_oracle(monkeypatch, beta, chunk_bytes):
    # a short last block and, at one row per chunk or one chunk per
    # block, a short last chunk; two threads share the blocks
    ind = BallIndicator((1.0, 0.0, 0.0), 1.0)
    args = (3, beta, ind, (0.0, 0.0, 0.0), 0.25, 3.0, mc.TRIAL_CHUNK + 37, RngStream(19))
    monkeypatch.setattr(mc, "RIESZ_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setenv("GREENPOT_THREADS", "2")
    assert estimate_riesz_potential(*args).to_json() == _whole_block_riesz(*args).to_json()


def test_riesz_worker_memory_stays_within_the_chunk():
    # one block of 200 trials x 12000 steps held whole is about 200 MiB
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    args = (3, 2.0, ind, (0.0, 0.0, 0.0), 0.001, 12.0)
    estimate_riesz_potential(*args, trials=2, rng=RngStream(3))  # warm-up
    tracemalloc.start()
    try:
        estimate_riesz_potential(*args, trials=200, rng=RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class _ZeroFirstUniform:
    """Generator stub whose first uniform draw is exactly 0.0."""

    def __init__(self):
        self.gen = RngStream(4).generator()
        self.calls = 0

    def uniform(self, low, high, size):
        out = self.gen.uniform(low, high, size)
        if self.calls == 0:
            out.flat[0] = 0.0
        self.calls += 1
        return out


def test_uniform_angles_redraw_an_exact_zero():
    stub = _ZeroFirstUniform()
    theta = mc._uniform_angles(stub, (3, 4))
    assert stub.calls == 2
    assert np.all(theta > 0.0) and np.all(theta < math.pi)
    first = RngStream(4).generator().uniform(0.0, math.pi, (3, 4))
    assert np.array_equal(theta.flat[1:], first.flat[1:])
