"""Monte Carlo estimators: walk exits, subordinators, occupation integrals.

Walk routines simulate the simple random walk on the integer lattice and
estimate exit laws, visit counts, and the boundary term of the killed
Green decomposition.  Subordinator routines sample the one-sided stable
laws normalized to the Laplace exponent ``lambda^(alpha/2)``; the plain
Brownian case ``alpha = 2`` uses deterministic time increments.  The
Riesz occupation estimator runs Brownian motion at independent stable
time increments and accumulates a Riemann sum of indicator hits; its
truncation error carries a rigorous bound through the uniform density
cap ``(2 pi)^(-d/2) E[eta_t^(-d/2)]`` of the subordinated process.

Trials are processed in fixed-size blocks with per-block derived
generators and reduced in block order, so estimates are bit-identical
for a given (seed, stream) at any GREENPOT_THREADS setting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .domains import GridSpec, nonempty_grid_points, round_to_grid
from .kernels import canonical_json, riesz_params
from .lattice import (
    LatticeSet,
    _neighbours,
    potential_kernel_2d,
    potential_kernel_2d_array,
    unit_steps,
    whole_space_green_array,
)

__all__ = [
    "generator",
    "RngStream",
    "McEstimate",
    "StepBudgetError",
    "sample_exit",
    "exit_statistics",
    "estimate_boundary_term",
    "sample_half_stable",
    "sample_stable_increment",
    "estimate_riesz_potential",
    "riesz_tail_bound",
    "thread_count",
]

STEP_BUDGET = 10**8
TRIAL_CHUNK = 8192  # fixed so reductions are identical at any thread count
RIESZ_CHUNK_BYTES = 1 << 18  # normals held at once by one Riesz block


class StepBudgetError(RuntimeError):
    """A walk exceeded its step budget before exiting."""


def thread_count() -> int:
    """Worker cap from GREENPOT_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("GREENPOT_THREADS", "1")))
    except ValueError:
        return 1


def _map_blocks(worker, nblocks: int) -> list:
    workers = thread_count()
    if workers == 1 or nblocks == 1:
        return [worker(b) for b in range(nblocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(nblocks)))


def _block_sizes(trials: int):
    return [min(TRIAL_CHUNK, trials - b * TRIAL_CHUNK)
            for b in range((trials + TRIAL_CHUNK - 1) // TRIAL_CHUNK)]


def generator(seed: int, *key: int) -> np.random.Generator:
    """The one seeded generator: PCG64 on ``SeedSequence(seed, spawn_key=key)``.

    Distinct keys give statistically independent generators through the
    seed-sequence spawning mechanism; the empty key is the plain seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: (seed, stream) fixes every draw."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return generator(self.seed, self.stream)

    def child(self, index: int) -> np.random.Generator:
        """Independent generator for a numbered block of trials."""
        return generator(self.seed, self.stream, index)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int
    tail_bound: float | None = None

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("an estimate needs at least 2 trials")

    def to_json(self) -> str:
        obj = {"mean": self.mean, "stderr": self.stderr,
               "trials": self.trials, "seed": self.seed}
        if self.tail_bound is not None:
            obj["tail_bound"] = self.tail_bound
        return canonical_json(obj)


def _estimate(total: float, total_sq: float, trials: int, seed: int,
              tail_bound=None) -> McEstimate:
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return McEstimate(mean=mean, stderr=math.sqrt(var / trials), trials=trials,
                      seed=seed, tail_bound=tail_bound)


def _as_generator(rng) -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def _cursor(gen: np.random.Generator) -> np.random.Generator:
    """A second generator that starts where `gen` stands now."""
    bits = np.random.PCG64()
    bits.state = gen.bit_generator.state
    return np.random.Generator(bits)


# ---------------------------------------------------------------- walks

def _walk_block(lattice: LatticeSet, start: np.ndarray, trials: int, gen: np.random.Generator,
                step_budget: int, counts: np.ndarray | None = None,
                nbr: np.ndarray | None = None) -> np.ndarray:
    """Walk `trials` paths from `start` until each exits; returns exits.

    Walks move between rows of `lattice`: step ``k`` of `unit_steps` takes
    row ``i`` to ``nbr[i, k]``, the neighbour table of `lattice._neighbours`
    (built here when not given), and leaves the set where that is ``-1``.
    When `counts` (trials x set size) is given, tallies per-trial visit
    counts, start included.
    """
    steps = unit_steps(lattice.d)
    if nbr is None:
        nbr = _neighbours(lattice)[1]
    row = np.full(trials, lattice.index_of(start))
    exits = np.empty((trials, lattice.d), dtype=np.int64)
    active = np.arange(trials)
    if counts is not None:
        counts[:, row[0]] += 1
    spent = 0
    while len(active):
        if spent >= step_budget:
            raise StepBudgetError(f"{len(active)} walks still active at the step budget")
        choice = gen.integers(0, len(steps), size=len(active))
        nxt = nbr[row, choice]
        inside = nxt >= 0
        if not inside.all():
            out = ~inside
            exits[active[out]] = lattice.points[row[out]] + steps[choice[out]]
            active, nxt = active[inside], nxt[inside]
        row = nxt
        if counts is not None:
            counts[active, row] += 1  # one entry per active walk, so no repeats
        spent += 1
    return exits


def sample_exit(lattice: LatticeSet, start, rng: RngStream,
                step_budget: int = STEP_BUDGET):
    """Run one simple walk from `start` until it leaves the set.

    Returns ``(exit_point, visits)`` where `visits` counts time spent at
    each lattice point (ordered as ``lattice.points``, start included).
    """
    if start not in lattice:
        raise ValueError("start must belong to the lattice set")
    counts = np.zeros((1, len(lattice)), dtype=np.int64)
    exits = _walk_block(lattice, np.asarray(start, dtype=np.int64), 1, _as_generator(rng),
                        step_budget, counts)
    return tuple(int(c) for c in exits[0]), counts[0]


def exit_statistics(lattice: LatticeSet, start, trials: int, rng: RngStream,
                    step_budget: int = STEP_BUDGET):
    """Mean visit counts with standard errors, plus the empirical exit law.

    Returns ``(mean_visits, stderr_visits, exit_law)``; arrays align with
    ``lattice.points``; the exit law maps integer exit points to
    relative frequencies.
    """
    if start not in lattice:
        raise ValueError("start must belong to the lattice set")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    start_arr = np.asarray(start, dtype=np.int64)
    sizes = _block_sizes(trials)
    nbr = _neighbours(lattice)[1]

    def worker(b):
        counts = np.zeros((sizes[b], len(lattice)), dtype=np.int64)
        exits = _walk_block(lattice, start_arr, sizes[b], rng.child(b), step_budget, counts, nbr)
        return (counts.sum(axis=0).astype(float),
                (counts.astype(float) ** 2).sum(axis=0), exits)

    total = np.zeros(len(lattice))
    total_sq = np.zeros(len(lattice))
    exit_counts: dict = {}
    for part_sum, part_sq, exits in _map_blocks(worker, len(sizes)):
        total += part_sum
        total_sq += part_sq
        for row in exits:
            key = tuple(int(c) for c in row)
            exit_counts[key] = exit_counts.get(key, 0) + 1
    mean = total / trials
    var = np.maximum(0.0, (total_sq - trials * mean**2) / (trials - 1))
    return mean, np.sqrt(var / trials), {k: v / trials for k, v in sorted(exit_counts.items())}


def estimate_boundary_term(domain, grid: GridSpec, x, y, trials: int, rng: RngStream,
                           step_budget: int = STEP_BUDGET) -> McEstimate:
    """Walk-exit estimate of the boundary term in the killed-kernel split.

    For ``d >= 3`` this is the mean of the scaled whole-space kernel at
    (exit, y(n)), which subtracted from the scaled free kernel gives the
    killed value.  In the plane the compensated-kernel combination
    ``(a(exit - y(n)) - a(x(n) - y(n))) / 2`` is itself the estimate of
    the killed disk kernel.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    lattice = nonempty_grid_points(domain, grid)
    u = round_to_grid(x, grid)
    v = round_to_grid(y, grid)
    if u not in lattice or v not in lattice:
        raise ValueError("x and y must round to interior grid points")
    if np.array_equal(u, v):
        raise ValueError("x and y round to the same grid point")
    d = grid.d
    scale = grid.green_scale
    a_uv = potential_kernel_2d(u - v) if d == 2 else None
    sizes = _block_sizes(trials)
    nbr = _neighbours(lattice)[1]

    def worker(b):
        exits = _walk_block(lattice, u, sizes[b], rng.child(b), step_budget, nbr=nbr)
        if d == 2:
            vals = 0.5 * (potential_kernel_2d_array(exits - v) - a_uv)
        else:
            vals = scale * whole_space_green_array(d, exits - v)
        return float(vals.sum()), float((vals**2).sum())

    parts = _map_blocks(worker, len(sizes))
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    return _estimate(total, total_sq, trials, rng.seed)


# --------------------------------------------------------- subordinators

def sample_half_stable(t: float, rng, size=None):
    """Passage-time draw of the normalized 1/2-stable subordinator.

    ``eta_t = t^2 / (2 Z^2)`` with Z standard normal; the Laplace
    transform is ``exp(-t sqrt(lambda))``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    gen = _as_generator(rng)
    z = gen.standard_normal(size)
    while np.any(z == 0.0):  # probability-zero guard
        z = np.where(z == 0.0, gen.standard_normal(size), z)
    return t**2 / (2.0 * z**2)


def _uniform_angles(gen: np.random.Generator, size):
    """Uniform angles on (0, pi); an exact zero is redrawn in place."""
    theta = gen.uniform(0.0, math.pi, size)
    while np.any(theta == 0.0):
        theta = np.where(theta == 0.0, gen.uniform(0.0, math.pi, size), theta)
    return theta


def _kanter_from(rho: float, theta, w):
    """Kanter's positive rho-stable variate from angles and unit exponentials.

    At ``rho = 1/2`` (alpha = 1) the two sines of the numerator coincide
    and are computed once.
    """
    lower = np.sin(rho * theta)
    upper = lower if rho == 1.0 - rho else np.sin((1.0 - rho) * theta)
    a = (lower ** rho * upper ** (1.0 - rho) / np.sin(theta)) ** (1.0 / (1.0 - rho))
    return (a / w) ** ((1.0 - rho) / rho)


def sample_stable_increment(alpha: float, dt: float, rng, size=None):
    """Increment of the alpha/2-stable subordinator over time `dt`.

    Exponential-uniform (Kanter) draw of the positive stable law with
    Laplace exponent ``lambda^(alpha/2)``, scaled by ``dt^(2/alpha)``.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen = _as_generator(rng)
    theta = _uniform_angles(gen, size)
    return dt ** (2.0 / alpha) * _kanter_from(alpha / 2.0, theta, gen.exponential(1.0, size))


# ------------------------------------------------------ Riesz potential

def riesz_tail_bound(d: int, beta: float, radius: float, horizon: float) -> float:
    """Truncation bound D * integral_T^inf P(X_t in ball) dt.

    Uses the uniform density cap of the subordinated process, so the
    bound holds for every start point and ball position.
    """
    params = riesz_params(d, beta)
    alpha = params.alpha
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    from scipy.special import gamma

    vol = math.pi ** (d / 2.0) / gamma(d / 2.0 + 1.0) * radius**d
    inv_moment = gamma(d / alpha) / ((alpha / 2.0) * gamma(d / 2.0))
    time_integral = (alpha / (d - alpha)) * horizon ** (-(d - alpha) / alpha)
    return params.coefficient * vol * (2.0 * math.pi) ** (-d / 2.0) * inv_moment * time_integral


def estimate_riesz_potential(d: int, beta: float, indicator, x, time_step: float,
                             horizon: float, trials: int, rng: RngStream,
                             tail_tolerance: float | None = None) -> McEstimate:
    """Occupation-time estimate of the power kernel potential at `x`.

    Simulates Brownian motion at the random times of an independent
    alpha/2-stable subordinator (deterministic times when beta = 1),
    forms the Riemann sum ``D * time_step * sum_k F(X_k)`` up to the
    horizon, and reports mean, stderr, and the rigorous tail bound.

    Each block of trials runs in row chunks holding at most
    `RIESZ_CHUNK_BYTES` of normals, so memory does not grow with the
    number of steps.  Three cursors on the block's generator keep the
    draws of the whole-block order (all angles, then all waits, then all
    normals); they differ from it only where a uniform angle is exactly 0
    and is redrawn within its chunk, which has probability 2^-53 a draw.
    A block fills one wait buffer and one move buffer in place, chunk after
    chunk, and counts hits as integers; `indicator` must return 0 or 1.
    """
    params = riesz_params(d, beta)
    if time_step <= 0 or horizon < time_step:
        raise ValueError("need 0 < time_step <= horizon")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    nsteps = int(round(horizon / time_step))
    bound = riesz_tail_bound(d, beta, float(indicator.radius), nsteps * time_step)
    if tail_tolerance is not None and bound > tail_tolerance:
        raise ValueError(f"horizon too small: tail bound {bound:.3g} exceeds "
                         f"{tail_tolerance:.3g}")
    x_arr = np.asarray(x, dtype=float)
    sizes = _block_sizes(trials)
    rows = max(1, RIESZ_CHUNK_BYTES // (8 * nsteps * d))
    kanter = params.alpha < 2.0
    eta_scale = time_step ** (2.0 / params.alpha)

    def worker(b):
        n = sizes[b]
        chunks = [(lo, min(rows, n - lo)) for lo in range(0, n, rows)]
        wait = np.empty((min(rows, n), nsteps))
        move = np.empty((min(rows, n), nsteps, d))
        angles = normals = rng.child(b)
        if kanter:
            waits = _cursor(angles)
            waits.bit_generator.advance(n * nsteps)  # one word per uniform
            normals = _cursor(waits)
            for _, r in chunks:  # the ziggurat takes a variable count of words
                normals.standard_exponential(out=wait[:r])
        hits = np.empty(n, dtype=np.int64)
        for lo, r in chunks:
            paths = move[:r]
            normals.standard_normal(out=paths)
            if kanter:
                w = wait[:r]
                waits.standard_exponential(out=w)
                eta = eta_scale * _kanter_from(params.alpha / 2.0,
                                               _uniform_angles(angles, w.shape), w)
                np.sqrt(eta, out=eta)
                for k in range(d):  # one strided pass per axis, not a broadcast over d
                    paths[..., k] *= eta
            else:
                paths *= math.sqrt(time_step)
            np.cumsum(paths, axis=1, out=paths)
            for k in range(d):
                paths[..., k] += x_arr[k]
            inside = np.reshape(indicator(paths.reshape(-1, d)), (r, nsteps))
            hits[lo:lo + r] = np.count_nonzero(inside, axis=1)
        vals = params.coefficient * time_step * hits
        return float(vals.sum()), float((vals**2).sum())

    parts = _map_blocks(worker, len(sizes))
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    return _estimate(total, total_sq, trials, rng.seed, tail_bound=bound)
