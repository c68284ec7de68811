"""Tests for the Monte Carlo estimators.

Every randomized check runs with a fixed seed, so outcomes are
deterministic; tolerances are multiples of the reported standard error
plus any rigorous truncation bound.  Linear-algebra results from the
lattice module give exact targets for the walk estimators.
"""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import chndtr, gamma

from greenpot import (
    Ball,
    BallIndicator,
    CubicSet,
    GridSpec,
    LatticeSet,
    McEstimate,
    RieszEstimate,
    RngStream,
    ball_kernel_integral,
    disk_green_2d,
    estimate_boundary_term,
    estimate_riesz_potential,
    exit_distribution,
    grid_points,
    killed_green_matrix,
    riesz_params,
    round_to_grid,
    sample_half_stable,
    sample_stable_increment,
    whole_space_green,
)
from greenpot import lattice as lattice_module
from greenpot import mc
from greenpot.lattice import ResourceLimitError, _neighbours, lattice_kernel, potential_kernel_2d

TWO_POINT = LatticeSet.from_points(2, [(0, 0), (1, 0)])


def test_rng_stream_reproducible_and_stream_separated():
    a = RngStream(2024).generator().integers(0, 2**32, 8)
    b = RngStream(2024).generator().integers(0, 2**32, 8)
    c = RngStream(2024, stream=1).generator().integers(0, 2**32, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = mc.generator(2024, 0, 3).integers(0, 2**32, 8)
    e = mc.generator(2024, 0, 4).integers(0, 2**32, 8)
    assert not np.array_equal(d, e)


def test_mc_estimate_validation_and_json():
    # a report's "estimate" object is the estimate's fields
    bare = McEstimate(mean=1.0, stderr=0.1, trials=100, seed=7)
    assert asdict(bare) == {"mean": 1.0, "stderr": 0.1, "trials": 100, "seed": 7}
    est = RieszEstimate(mean=1.0, stderr=0.1, trials=100, seed=7, step_error=0.01,
                        window_share=0.2, subordination_oracle=0.9)
    assert asdict(est) == {"mean": 1.0, "stderr": 0.1, "trials": 100, "seed": 7,
                                         "step_error": 0.01, "window_share": 0.2,
                                         "subordination_oracle": 0.9}
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, stderr=0.0, trials=1, seed=0)


def test_walk_exit_law_matches_exit_distribution():
    trials = 20_000
    exits = mc._walk_block(TWO_POINT, np.array([0, 0]), trials, mc.generator(1, 0, 0),
                           _neighbours(TWO_POINT)[1])
    points, counts = np.unique(exits, axis=0, return_counts=True)
    law = {tuple(int(c) for c in p): k / trials for p, k in zip(points, counts)}
    exact_law = exit_distribution(TWO_POINT, (0, 0))
    assert set(law) <= set(exact_law)
    for pt, p in exact_law.items():
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(law.get(pt, 0.0) - p) <= 5 * se + 1e-12


def _loop_walk(lattice, start, trials, gen):
    """Oracle for the vectorized walk: the same draws, membership by Python set."""
    members = {tuple(p) for p in lattice.points}
    steps = np.vstack([[(1 if k == j else 0) * s for k in range(lattice.d)]
                       for j in range(lattice.d) for s in (1, -1)])
    pos = [np.array(start) for _ in range(trials)]
    active = list(range(trials))
    exits = [None] * trials
    while active:
        draws = gen.integers(0, len(steps), size=len(active))
        still = []
        for t, k in zip(active, draws):
            pos[t] = pos[t] + steps[k]
            if tuple(int(c) for c in pos[t]) in members:
                still.append(t)
            else:
                exits[t] = tuple(int(c) for c in pos[t])
        active = still
    return exits


def test_vectorized_walk_matches_loop(monkeypatch):
    # a 3-d ball, a planar disk and an L of three unit squares
    cases = [(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 12, (0.2, -0.1, 0.0)),
             (Ball(center=(0.0, 0.0), radius=1.0), 162, (0.1, 0.05)),
             (CubicSet(2, [(0, 0), (1, 0), (1, 1)]), 18, (0.5, 0.0))]
    monkeypatch.setattr(mc, "STEP_BUDGET", 10**6)  # read when each block runs
    for domain, n, x in cases:
        grid = GridSpec(d=domain.d, n=n)
        lat = grid_points(domain, grid)
        start = round_to_grid(x, grid)
        exits = mc._walk_block(lat, start, 300, mc.generator(11, 0, 0), _neighbours(lat)[1])
        ref_exits = _loop_walk(lat, tuple(start), 300, mc.generator(11, 0, 0))
        assert [tuple(int(c) for c in e) for e in exits] == ref_exits


def test_boundary_term_bit_reproducible():
    # three blocks, the last one short: block b walks on generator(seed,
    # stream, b), and the blocks' sums are added in block order
    domain, grid = Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=18)
    trials = 2 * mc.TRIAL_CHUNK + 5
    args = (domain, grid, (1 / 3, 0.0), (-1 / 3, 0.0), trials, RngStream(9, stream=2))
    first = estimate_boundary_term(*args)
    assert estimate_boundary_term(*args) == first
    lat = grid_points(domain, grid)
    u, v = round_to_grid((1 / 3, 0.0), grid), round_to_grid((-1 / 3, 0.0), grid)
    total = 0.0
    for b, size in enumerate((mc.TRIAL_CHUNK, mc.TRIAL_CHUNK, 5)):
        exits = mc._walk_block(lat, u, size, mc.generator(9, 2, b), _neighbours(lat)[1])
        total += float((0.5 * (lattice_kernel(2, exits - v)
                               - potential_kernel_2d(u - v))).sum())
    assert first.mean == total / trials


def test_step_budget_enforced(monkeypatch):
    # from the centre of the n = 162 disk no walk exits within 3 steps; the budget
    # is read when the block runs, so patching the module constant reaches it
    monkeypatch.setattr(mc, "STEP_BUDGET", 3)
    with pytest.raises(ResourceLimitError, match="step budget"):
        estimate_boundary_term(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=162), (0.0, 0.0),
                               (1 / 9, 0.0), 10, RngStream(3))


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


def riesz_tail_bound(d: int, beta: float, radius: float, horizon: float) -> float:
    """Oracle bound on D * integral_T^inf P(X_t in ball) dt.

    Uses the uniform density cap ``(2 pi)^(-d/2) E[eta_t^(-d/2)]`` of the
    subordinated process, so it holds for every start point and ball
    position; the exact tail ``D E[h(S_T)]`` must lie below it.
    """
    alpha, coefficient = riesz_params(d, beta)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    vol = math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0) * radius**d
    inv_moment = gamma(d / alpha) / ((alpha / 2.0) * gamma(d / 2.0))
    time_integral = (alpha / (d - alpha)) * horizon ** (-(d - alpha) / alpha)
    return coefficient * vol * (2.0 * math.pi) ** (-d / 2.0) * inv_moment * time_integral


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


@pytest.mark.parametrize("beta,horizon",
                         [(1.0, 1.0), (1.5, 1.0), (2.0, 1.0), (2.0, 4.0), (2.7, 1.0)])
def test_exact_riesz_tail_lies_below_the_density_cap_bound(beta, horizon):
    ind = Ball((2.0, 0.0, 0.0), 1.0)
    est = estimate_riesz_potential(3, beta, ind, (0.0, 0.0, 0.0), time_step=0.05,
                                   horizon=horizon, trials=2_000, rng=RngStream(6))
    tail = est.mean * (1.0 - est.window_share)  # D E[h(S_T)]
    assert 0.0 < tail <= riesz_tail_bound(3, beta, 1.0, horizon)


# (m, r): the default geometry, a start inside, nearly at the center, and a small far ball
GEOMETRIES = [(2.0, 1.0), (0.5, 1.0), (1e-3, 1.0), (3.0, 0.1)]


@pytest.mark.parametrize("m,r", GEOMETRIES)
def test_ball_chance_agrees_with_chndtr_from_small_to_huge_times(m, r):
    s = np.geomspace(1e-3, 1e14, 400)
    ref = chndtr(r * r / s, 3, m * m / s)
    p = mc._ball_chance(3, m, r, s)
    # chndtr returns 0 for chances below about 1e-60; the closed form does not
    tiny = ref < 1e-30
    np.testing.assert_allclose(p[~tiny], ref[~tiny], rtol=1e-12)
    assert np.all((p[tiny] >= 0.0) & (p[tiny] < 1e-30))


def test_ball_chance_matches_sampling_and_stays_finite():
    z = RngStream(14).generator().standard_normal((400_000, 3))
    for s in (0.3, 1.0, 4.0):
        p = float(mc._ball_chance(3, 2.0, 1.0, np.array([s]))[0])
        assert p == pytest.approx(float(chndtr(1.0 / s, 3, 4.0 / s)), rel=1e-12)
        pts = math.sqrt(s) * z
        pts[:, 0] += 2.0
        hits = np.einsum("ij,ij->i", pts, pts) < 1.0
        assert abs(hits.mean() - p) <= 4.0 * math.sqrt(p * (1 - p) / len(z))
    # the d = 3 closed form alone cancels to -6.6e-13 at s = 1e10
    far = mc._ball_chance(3, 2.0, 1.0, np.array([1e10, 1e14]))
    assert np.all(np.isfinite(far)) and np.all(far >= 0.0)
    np.testing.assert_allclose(far, chndtr(1.0 / np.array([1e10, 1e14]), 3,
                                           4.0 / np.array([1e10, 1e14])), rtol=1e-12)


@pytest.mark.parametrize("d,beta", [(3, 1.5), (3, 2.0), (3, 2.7), (4, 1.5)])
def test_subordination_oracle_matches_ball_integral(d, beta):
    # D h(0) is the whole expected occupation, by the Bochner integral alone
    x, center = (0.0,) * d, (2.0,) + (0.0,) * (d - 1)
    alpha, coefficient = riesz_params(d, beta)
    h0, _ = mc._tail_table(d, alpha, 2.0, 1.0)
    ref = ball_kernel_integral(d, beta, x, center, 1.0)
    assert coefficient * h0 == pytest.approx(ref, rel=1e-9)


def _tail_by_quad(d, alpha, m, r, s0):
    """Oracle for one tail value: adaptive quadrature in log s, the ends in closed form."""
    a = alpha / 2.0
    scale = (m + r) ** 2
    lo, hi = math.log(1e-16 * scale), math.log(1e16 * max(scale, s0))

    def chance(s):
        return float(chndtr(r * r / s, d, m * m / s))

    inner = integrate.quad(lambda v: chance(s0 + math.exp(v)) * math.exp(a * v), lo, hi,
                           points=sorted({math.log(scale), math.log(max(s0, 1e-16 * scale))}),
                           epsabs=0.0, epsrel=1e-12, limit=500)[0]
    below = (chance(s0) if s0 > 0 else float(m < r)) * math.exp(a * lo) / a
    above = (r**d / (2 ** (d / 2) * gamma(d / 2 + 1)) * math.exp((a - d / 2) * hi)
             / (d / 2 - a))
    return (inner + below + above) / gamma(a)


@pytest.mark.parametrize("d,alpha,m", [(3, 1.0, 2.0), (3, 0.3, 2.0), (3, 2.0, 0.5), (4, 1.0, 2.0)])
def test_tail_table_interpolation_matches_quad(d, alpha, m):
    _, tail = mc._tail_table(d, alpha, m, 1.0)
    s0 = np.geomspace(1e-4, 1e12, 50)
    ref = np.array([_tail_by_quad(d, alpha, m, 1.0, s) for s in s0])
    np.testing.assert_allclose(tail(s0), ref, rtol=1e-6)


def test_riesz_estimate_matches_closed_form_target():
    # target (1 - (3/4) log 3) / (2 pi), the exact squared-kernel mass
    ind = Ball((2.0, 0.0, 0.0), 1.0)
    est = estimate_riesz_potential(
        3, 2.0, ind, (0.0, 0.0, 0.0), time_step=0.1, horizon=8.0,
        trials=20_000, rng=RngStream(77),
    )
    oracle = 0.02801776087962292
    assert abs(est.mean - oracle) <= 3 * est.stderr + est.step_error
    assert est.subordination_oracle == pytest.approx(oracle, rel=1e-12)
    assert 0.0 < est.window_share < 1.0


def test_riesz_estimate_deterministic_times_at_beta_one():
    # beta = 1 runs on a fixed clock: no noise, the window is exactly
    # h(0) - h(T), so step_error is the trapezoid's measured error plus
    # the table's TAIL_RTOL, and the gate holds with that margin even
    # where trap(dt) and trap(2 dt) agree by accident (dt 0.05, T 1, the
    # defaults); the Newton value is 1/3
    ball = Ball((2.0, 0.0, 0.0), 1.0)
    for time_step, horizon in ((0.1, 1.0), (0.05, 1.0), (0.05, 4.0), (0.02, 4.0), (0.01, 12.0)):
        est = estimate_riesz_potential(3, 1.0, ball, (0.0, 0.0, 0.0), time_step, horizon,
                                       trials=10_000, rng=RngStream(80))
        gap = abs(est.mean - 1.0 / 3.0)
        assert est.stderr == 0.0
        assert gap <= 3 * est.stderr + est.step_error
        assert est.step_error - gap <= 2 * mc.TAIL_RTOL / 3.0
        assert est.subordination_oracle == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_riesz_estimate_horizon_guard():
    ball = Ball((2.0, 0.0, 0.0), 1.0)
    for time_step, horizon, trials in ((0.0, 2.0, 100), (0.2, 0.2, 100), (0.1, 2.0, 1)):
        with pytest.raises(ValueError):
            estimate_riesz_potential(3, 2.0, ball, (0.0, 0.0, 0.0), time_step=time_step,
                                     horizon=horizon, trials=trials, rng=RngStream(0))


@pytest.mark.parametrize("beta,trials,rows", [(1.0, 100, 100), (2.0, 100, 100), (2.0, 10**5, 204)])
def test_riesz_chunk_over_budget_is_resource_stop_before_allocating(monkeypatch, beta, trials, rows):
    # 20 steps: a chunk is min(TRIAL_CHUNK, trials, CHUNK_DRAWS // 20) rows, also on the fixed clock
    def never(*args):
        raise AssertionError("allocated past the byte budget")

    need = mc._CHUNK_ARRAYS * 8 * rows * 20
    args = (3, beta, Ball((2.0, 0.0, 0.0), 1.0), (0.0, 0.0, 0.0), 0.05, 1.0, trials, RngStream(0))
    monkeypatch.setattr(lattice_module, "MAX_BYTES", need - 1)
    monkeypatch.setattr(mc, "_tail_table", never)  # the first table built
    with pytest.raises(ResourceLimitError, match=f"a Riesz chunk of {rows} x 20 draws needs {need} "
                                                 f"bytes, over the budget of {need - 1}"):
        estimate_riesz_potential(*args)
    monkeypatch.setattr(lattice_module, "MAX_BYTES", need)
    with pytest.raises(AssertionError, match="allocated"):
        estimate_riesz_potential(*args)


def test_riesz_estimate_takes_only_a_ball_of_its_dimension():
    class Lookalike:
        center, radius = (2.0, 0.0, 0.0), 1.0

    for target in (Lookalike(), Ball((2.0, 0.0), 1.0)):
        with pytest.raises(ValueError, match="Ball"):
            estimate_riesz_potential(3, 2.0, target, (0.0, 0.0, 0.0), time_step=0.1,
                                     horizon=1.0, trials=100, rng=RngStream(0))


def test_riesz_estimate_bit_reproducible():
    ind = Ball((2.0, 0.0, 0.0), 1.0)
    kwargs = dict(time_step=0.2, horizon=4.0, trials=2 * mc.TRIAL_CHUNK + 5, rng=RngStream(5))
    a = estimate_riesz_potential(3, 2.0, ind, (0.0, 0.0, 0.0), **kwargs)
    b = estimate_riesz_potential(3, 2.0, ind, (0.0, 0.0, 0.0), **kwargs)
    assert a == b


def _clock(alpha, time_step, nsteps, rng, block, chunk, rows):
    """The clock of one chunk of the estimator: its draws, summed along each row."""
    gen = mc.generator(rng.seed, rng.stream, block, chunk)
    return np.cumsum(sample_stable_increment(alpha, time_step, gen,
                                             size=(rows, nsteps)), axis=1)


def _block_clocks(alpha, time_step, nsteps, rng, trials):
    """Each block's clocks, its chunks drawn as the estimator draws them and stacked."""
    rows = max(1, mc.CHUNK_DRAWS // nsteps)
    return [np.vstack([_clock(alpha, time_step, nsteps, rng, b, c, min(rows, n - lo))
                       for c, lo in enumerate(range(0, n, rows))])
            for b, n in enumerate(mc._block_sizes(trials))]


def _conditional_values(d, alpha, coefficient, m, r, time_step, clock):
    """Per-trial values of the conditional route, x outside the ball so P(0) = 0:
    the trapezoid of P(S_k) plus h(S_N), times D."""
    _, tail = mc._tail_table(d, alpha, m, r)
    p = chndtr(r * r / clock, d, m * m / clock)
    window = time_step * (p.sum(axis=1) - 0.5 * p[:, -1])
    return coefficient * (window + tail(clock[:, -1]))


@pytest.mark.parametrize("chunk_draws", [1, 2**40], ids=["row", "block"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 2.7])
def test_chunked_riesz_worker_matches_whole_block_oracle(monkeypatch, beta, chunk_draws):
    # a short last block and, at one row per chunk or one chunk per
    # block, a short last chunk; each block's clock is evaluated whole,
    # P by chndtr alone
    ind = Ball((1.0, 0.0, 0.0), 0.5)
    trials, time_step, horizon = mc.TRIAL_CHUNK + 37, 0.25, 3.0
    monkeypatch.setattr(mc, "CHUNK_DRAWS", chunk_draws)
    est = estimate_riesz_potential(3, beta, ind, (0.0, 0.0, 0.0), time_step, horizon,
                                   trials, RngStream(19))
    alpha, coefficient = riesz_params(3, beta)
    if beta == 1.0:
        clocks = [time_step * np.arange(1.0, 13.0)[None, :]]
    else:
        clocks = _block_clocks(alpha, time_step, 12, RngStream(19), trials)
    vals = np.concatenate([_conditional_values(3, alpha, coefficient, 1.0, 0.5, time_step, c)
                           for c in clocks])
    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
    if beta != 1.0:
        assert len(vals) == trials
        assert est.stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(trials), rel=1e-9)


def test_conditional_route_matches_path_route_at_equal_draws():
    # the old route: Brownian paths at the sampled clock, hits of the ball
    # counted with the same trapezoid weights, and the same exact tail;
    # given the clock its mean is the conditional value, so the per-trial
    # differences average to zero
    d, beta, time_step, horizon, trials = 3, 2.0, 0.1, 2.0, 3_000
    ind = BallIndicator((2.0, 0.0, 0.0), 1.0)
    rng = RngStream(23)
    est = estimate_riesz_potential(d, beta, ind, (0.0, 0.0, 0.0), time_step, horizon,
                                   trials, rng)
    alpha, coefficient = riesz_params(d, beta)
    (clock,) = _block_clocks(alpha, time_step, 20, rng, trials)
    cond = _conditional_values(d, alpha, coefficient, 2.0, 1.0, time_step, clock)
    assert est.mean == pytest.approx(cond.mean(), rel=1e-12)
    steps = np.diff(clock, axis=1, prepend=0.0)
    normals = RngStream(24).generator().standard_normal(clock.shape + (d,))
    moves = normals * np.sqrt(steps)[..., None]
    hits = ind(np.cumsum(moves, axis=1).reshape(-1, d)).reshape(clock.shape)
    _, tail = mc._tail_table(d, alpha, 2.0, 1.0)
    path = coefficient * (time_step * (hits.sum(axis=1) - 0.5 * hits[:, -1])
                          + tail(clock[:, -1]))
    diff = path - cond
    assert abs(path.mean() - est.mean) <= 3.0 * diff.std(ddof=1) / math.sqrt(trials)


def test_riesz_worker_memory_stays_within_the_chunk():
    # one block of 200 trials x 12000 steps held whole is 18 MiB an array
    ind = Ball((2.0, 0.0, 0.0), 1.0)
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
