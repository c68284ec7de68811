"""End-to-end acceptance gate.

Each test checks one numbered item of the package checklist (see README)
and prints a single ``criterion NN: PASS/FAIL`` line; the lines are
repeated in the terminal summary.  Tolerances and seeds are pinned, so a
red test here is a real regression, not noise.
"""

import math

import numpy as np
from scipy.stats import ks_2samp

from greenpot import (
    Ball,
    BallIndicator,
    Box,
    CubicSet,
    GridSpec,
    Intersection,
    RngStream,
    assemble,
    ball_kernel_integral,
    cmp_functional,
    cmp_inequality,
    converge,
    estimate_riesz_potential,
    exterior_grid,
    free_green,
    free_operator_value,
    grid_points,
    hadamard_exp,
    hadamard_power,
    interior_grid,
    is_inverse_m_matrix,
    killed_green_matrix,
    random_potential,
    sample_cmp,
    sample_half_stable,
    sample_stable_increment,
    whole_space_green,
)

_POPULATION: list = []


def _matrix_population() -> list:
    """200 killed Green matrices on random connected sets, d in {2, 3}."""
    if not _POPULATION:
        _POPULATION.extend(random_potential(2, (2, 40), seed=s).entries for s in range(100))
        _POPULATION.extend(random_potential(3, (2, 40), seed=100 + s).entries for s in range(100))
    return _POPULATION


def test_lattice_green_far_field_matches_continuum_decay(checklist):
    far = [(10, 0, 0), (6, 6, 6), (10, 5, 2), (15, 0, 0),
           (9, 9, 9), (12, 8, 5), (11, 3, 0), (14, 5, 2)]

    def dev(x):
        # exact_range=20 keeps the evaluation on the integral route, so the
        # asymptote is compared against an independent value
        exact = whole_space_green(3, x, exact_range=20)
        return abs(exact / (3.0 * free_green(3, x, (0.0, 0.0, 0.0))) - 1.0)

    worst = max(dev(x) for x in far)
    ratios = [dev(b) / dev(a) for a, b in
              [((5, 0, 0), (15, 0, 0)), ((3, 3, 3), (9, 9, 9))]]
    ok = worst <= 0.05 and max(ratios) <= 0.5
    checklist(1, ok, "far-field relative deviation %.2e (tol 0.05); "
              "decay ratios %.3f, %.3f (tol 0.5)" % (worst, ratios[0], ratios[1]))
    assert worst <= 0.05
    assert max(ratios) <= 0.5


def test_entrywise_powers_preserve_potential_matrices(checklist):
    pop = _matrix_population()
    failures = 0
    for beta in (1.0, 1.5, 2.0, 3.0, 3.7):
        for u in pop:
            report = is_inverse_m_matrix(hadamard_power(u, beta), tol=1e-8)
            if report.is_potential is not True:
                failures += 1
    total = 5 * len(pop)
    checklist(2, failures == 0,
              "%d/%d entrywise powers classified as potentials (tol 1e-08)"
              % (total - failures, total))
    assert failures == 0


def test_entrywise_exponentials_preserve_potential_matrices(checklist):
    pop = _matrix_population()
    failures = 0
    for alpha in (0.1, 0.5, 1.0):
        for u in pop:
            report = is_inverse_m_matrix(hadamard_exp(u, alpha), tol=1e-8)
            if report.is_potential is not True:
                failures += 1
    total = 3 * len(pop)
    checklist(3, failures == 0,
              "%d/%d entrywise exponentials classified as potentials (tol 1e-08)"
              % (total - failures, total))
    assert failures == 0


def test_random_search_finds_no_cmp_violation_on_potentials(checklist):
    pop = _matrix_population()
    worst = 0.0
    for i, u in enumerate(pop):
        value, _ = sample_cmp(u, trials=10_000, seed=10_000 + i)
        worst = min(worst, value / float(np.max(np.abs(u))))
    ok = worst >= -1e-10
    checklist(4, ok, "min normalized CMP value %.1e over %d matrices (floor -1e-10)"
              % (worst, len(pop)))
    assert worst >= -1e-10


def test_swapped_dominance_matrix_rejected_with_certificate(checklist):
    u = [[1.0, 2.0], [2.0, 1.0]]
    report = is_inverse_m_matrix(u)
    value, witness = sample_cmp(u, trials=10_000, seed=0, include_adversarial=False)
    confirmed = cmp_inequality(u, witness)
    ok = report.is_potential is False and value < 0.0 and confirmed < 0.0
    checklist(5, ok, "classified potential=%s; sampled CMP certificate %.4f "
              "(re-evaluated %.4f)" % (report.is_potential, value, confirmed))
    assert report.is_potential is False
    assert value < 0.0
    assert confirmed < 0.0


def test_operator_quadratic_functional_nonnegative_across_settings(checklist):
    settings = []
    for dom in (Ball((0.0, 0.0, 0.0), 1.0), CubicSet(3, [(0, 0, 0), (1, 0, 0)])):
        for beta in (1.0, 1.5, 2.0):
            settings.append((GridSpec(d=3, n=48), ("power", beta), dom))
    for dom in (Ball((0.0, 0.0), 1.0), CubicSet(2, [(0, 0), (1, 0)])):
        for beta in (1.0, 2.0, 4.0):
            settings.append((GridSpec(d=2, n=50), ("power", beta), dom))
        for alpha in (1.0, 3.0, 6.0):
            settings.append((GridSpec(d=2, n=50), ("exp", alpha), dom))
    rng = np.random.default_rng(606)
    worst = 0.0
    count = 0
    for grid, transform, dom in settings:
        op = assemble(grid, transform, domain=dom)
        m = len(op.lattice)
        vol = m * grid.h ** grid.d
        for _ in range(20):
            f = rng.standard_normal(m)
            assert np.any(f > 0) and np.any(f < 0)
            floor = -1e-8 * float(np.max(np.abs(f))) ** 2 * vol
            worst = min(worst, cmp_functional(op, f) - floor)
            count += 1
    ok = worst >= 0.0
    checklist(6, ok, "%d quadratic-form values across %d settings, worst "
              "margin over floor %.1e" % (count, len(settings), worst))
    assert worst >= 0.0


def test_disk_scheme_error_decreases_and_hits_final_tolerance(checklist):
    report = converge(Ball((0.0, 0.0), 1.0), ("power", 1.0),
                      x=(0.2, 0.0), target=(-0.3, 0.1), levels=4, base=2)
    errors = report.abs_errors
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    final_rel = report.rel_errors[-1]
    ok = decreasing and final_rel <= 0.05
    checklist(7, ok, "errors decrease at every level: %s; final relative "
              "error %.4f (tol 0.05)" % (decreasing, final_rel))
    assert decreasing
    assert final_rel <= 0.05, (
        "final relative error %.6f exceeds 0.05 at levels %s; values %s "
        "against reference %.12f" % (final_rel, report.levels, report.values,
                                     report.reference))


def test_free_operator_reproduces_newton_ball_integrals(checklist):
    indicator = BallIndicator((0.0, 0.0, 0.0), 1.0)
    grid = GridSpec(d=3, n=243)
    rels = {}
    for beta in (1.0, 1.5):
        val = free_operator_value(grid, ("power", beta), indicator, (0.0, 0.0, 0.0))
        ref = ball_kernel_integral(3, beta, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
        if beta == 1.0:
            assert ref == 1.0  # Newton: centered unit ball integrates to one
        rels[beta] = abs(val - ref) / ref
    ok = max(rels.values()) <= 0.03
    checklist(8, ok, "relative errors %.4f (beta 1), %.4f (beta 1.5) against "
              "ball integrals (tol 0.03)" % (rels[1.0], rels[1.5]))
    assert max(rels.values()) <= 0.03


def test_riesz_walk_estimate_matches_quadrature_oracle(checklist):
    # squared free kernel integrated over a unit ball at distance 2,
    # reduced to a 1d radial integral with a closed-form answer
    oracle = (1.0 - 0.75 * math.log(3.0)) / (2.0 * math.pi)
    est = estimate_riesz_potential(3, 2.0, Ball((2.0, 0.0, 0.0), 1.0),
                                   (0.0, 0.0, 0.0), time_step=0.05, horizon=12.0,
                                   trials=100_000, rng=RngStream(2024))
    gap = abs(est.mean - oracle)
    tol = 3.0 * est.stderr + est.step_error
    ok = gap <= tol and est.stderr <= 0.05 * oracle
    checklist(9, ok, "estimate %.6f vs oracle %.6f; gap %.2e <= %.2e (3 stderr + "
              "step error %.1e); stderr %.2f%% of oracle (cap 5%%); window share %.3f"
              % (est.mean, oracle, gap, tol, est.step_error, 100 * est.stderr / oracle,
                 est.window_share))
    assert gap <= tol
    assert est.stderr <= 0.05 * oracle


def test_subordinator_sampler_matches_transform_and_kanter_route(checklist):
    eta = sample_half_stable(1.0, RngStream(301).generator(), 1_000_000)
    sigmas = []
    for lam in (0.5, 1.0, 2.0):
        vals = np.exp(-lam * eta)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        sigmas.append(abs(float(vals.mean()) - math.exp(-math.sqrt(lam))) / se)
    ks = ks_2samp(
        sample_stable_increment(1.0, 1.0, RngStream(302).generator(), 50_000),
        sample_half_stable(1.0, RngStream(303).generator(), 50_000))
    ok = max(sigmas) <= 4.0 and ks.pvalue >= 0.01
    checklist(10, ok, "Laplace-transform gaps %.2f, %.2f, %.2f stderrs "
              "(cap 4); KS p=%.3f (floor 0.01)"
              % (sigmas[0], sigmas[1], sigmas[2], ks.pvalue))
    assert max(sigmas) <= 4.0
    assert ks.pvalue >= 0.01


def test_killed_green_grid_sandwich_and_domain_monotonicity(checklist):
    ball = Ball((0.0, 0.0), 1.0)
    violations = 0
    compared = 0
    for n in (8, 18, 32):
        grid = GridSpec(d=2, n=n)
        inner = killed_green_matrix(interior_grid(ball, grid))
        exact = killed_green_matrix(grid_points(ball, grid))
        outer = killed_green_matrix(exterior_grid(ball, grid))
        pts = [tuple(p) for p in inner.lattice.points]
        for x in pts:
            for y in pts:
                compared += 1
                if not (inner.entry(x, y) <= exact.entry(x, y) + 1e-10
                        and exact.entry(x, y) <= outer.entry(x, y) + 1e-10):
                    violations += 1

    strip = Box((-12.0, -0.5), (12.0, 0.5))
    grid = GridSpec(d=2, n=18)
    base_pts = None
    prev = None
    min_gap = math.inf
    for radius in (2.0, 4.0, 6.0):
        lat = grid_points(Intersection(strip, Ball((0.0, 0.0), radius)), grid)
        mat = killed_green_matrix(lat)
        if base_pts is None:
            base_pts = [tuple(p) for p in lat.points]
        cur = np.array([[mat.entry(x, y) for y in base_pts] for x in base_pts])
        if prev is not None:
            min_gap = min(min_gap, float(np.min(cur - prev)))
        prev = cur
    ok = violations == 0 and min_gap >= -1e-10
    checklist(11, ok, "grid sandwich: %d/%d pairs ordered; truncation growth "
              "min increment %.1e (floor -1e-10)" % (compared - violations,
                                                     compared, min_gap))
    assert violations == 0
    assert min_gap >= -1e-10
