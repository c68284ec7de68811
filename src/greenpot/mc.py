"""Monte Carlo estimators: walk exits, subordinators, occupation integrals.

Walk routines simulate the simple random walk on the integer lattice and
estimate the boundary term of the killed Green decomposition.
Subordinator routines sample the one-sided stable laws normalized to the
Laplace exponent ``lambda^(alpha/2)``; the plain Brownian case
``alpha = 2`` uses deterministic time increments.  The
Riesz occupation estimator samples only the stable clock: given the
clock, the Brownian position is integrated out in closed form (a
Rao-Blackwell step), and the time in the ball after the horizon is the
exact Bochner integral against the stable potential density.  What is
left is a trapezoid rule over the sampled window, whose bias a
Richardson estimate at twice the step measures; on the fixed clock of
``alpha = 2`` the window is known exactly and the bias is measured.

Trials are processed in fixed-size blocks, each drawing from its own
generator keyed by the block index, and reduced in block order, so an
estimate is fixed by (seed, stream) and the trial count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import lattice
from .domains import Ball, GridSpec, nonempty_grid_points, round_to_grid
from .kernels import riesz_params
from .lattice import (
    LatticeSet,
    ResourceLimitError,
    _neighbours,
    lattice_kernel,
    potential_kernel_2d,
    unit_steps,
)

__all__ = [
    "generator",
    "RngStream",
    "McEstimate",
    "estimate_boundary_term",
    "sample_half_stable",
    "sample_stable_increment",
    "estimate_riesz_potential",
    "RieszEstimate",
]

STEP_BUDGET = 10**8  # steps of one walk block, read when the block runs
TRIAL_CHUNK = 8192  # trials per block; a block's index keys its generator
CHUNK_DRAWS = 1 << 12  # clock increments (or tail terms) one Riesz chunk holds at once
_CHUNK_ARRAYS = 8  # float64 arrays of a Riesz chunk's shape alive at its peak (7.05 by tracemalloc)
CLOSED_FORM_LIMIT = 100.0  # the d = 3 ball chance is closed-form up to s = 100 r^2
TAIL_NODES = 800  # log-uniform points of the Bochner tail table
TAIL_STEP = 0.25  # trapezoid step in log s of each tail integral
TAIL_RTOL = 1e-9  # relative accuracy of h(0), tested against the ball integral


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


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("an estimate needs at least 2 trials")


@dataclass(frozen=True)
class RieszEstimate(McEstimate):
    """An occupation estimate with its quadrature diagnostics.

    `step_error` is the Richardson estimate of the trapezoid bias (its
    measured value on the fixed clock of beta = 1), `window_share` the part
    of the mean from the sampled window before the horizon, and
    `subordination_oracle` the exact potential ``D h(0)`` by the Bochner
    integral alone.
    """

    step_error: float
    window_share: float
    subordination_oracle: float


def _estimate(total: float, total_sq: float, trials: int, seed: int) -> McEstimate:
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return McEstimate(mean=mean, stderr=math.sqrt(var / trials), trials=trials, seed=seed)


# ---------------------------------------------------------------- walks

def _walk_block(lattice: LatticeSet, start: np.ndarray, trials: int, gen: np.random.Generator,
                nbr: np.ndarray) -> np.ndarray:
    """Walk `trials` paths from `start` until each exits; returns exits.

    Walks move between rows of `lattice`: step ``k`` of `unit_steps` takes
    row ``i`` to ``nbr[i, k]``, the neighbour table of `lattice._neighbours`,
    and leaves the set where that is ``-1``; `STEP_BUDGET` steps end the block
    with `ResourceLimitError`.
    """
    steps = unit_steps(lattice.d)
    row = np.full(trials, lattice.index_of(start))
    exits = np.empty((trials, lattice.d), dtype=np.int64)
    active = np.arange(trials)
    spent = 0
    while len(active):
        if spent >= STEP_BUDGET:
            raise ResourceLimitError(f"{len(active)} walks still active at the step budget")
        choice = gen.integers(0, len(steps), size=len(active))
        nxt = nbr[row, choice]
        inside = nxt >= 0
        if not inside.all():
            out = ~inside
            exits[active[out]] = lattice.points[row[out]] + steps[choice[out]]
            active, nxt = active[inside], nxt[inside]
        row = nxt
        spent += 1
    return exits


def estimate_boundary_term(domain, grid: GridSpec, x, y, trials: int, rng: RngStream) -> McEstimate:
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
    offset = potential_kernel_2d(u - v) if d == 2 else 0.0
    nbr = _neighbours(lattice)[1]
    total = total_sq = 0.0
    for b, size in enumerate(_block_sizes(trials)):
        exits = _walk_block(lattice, u, size, generator(rng.seed, rng.stream, b), nbr)
        vals = grid.green_scale * (lattice_kernel(d, exits - v) - offset)
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
    return _estimate(total, total_sq, trials, rng.seed)


# --------------------------------------------------------- subordinators

def sample_half_stable(t: float, gen: np.random.Generator, size=None):
    """Passage-time draw of the normalized 1/2-stable subordinator.

    ``eta_t = t^2 / (2 Z^2)`` with Z standard normal; the Laplace
    transform is ``exp(-t sqrt(lambda))``.
    """
    if t <= 0:
        raise ValueError("t must be positive")
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


def sample_stable_increment(alpha: float, dt: float, gen: np.random.Generator, size=None):
    """Increment of the alpha/2-stable subordinator over time `dt`.

    Exponential-uniform (Kanter) draw of the positive stable law with
    Laplace exponent ``lambda^(alpha/2)``, scaled by ``dt^(2/alpha)``.  At
    ``alpha = 1`` the two sines of the numerator coincide and are computed
    once.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rho, theta = alpha / 2.0, _uniform_angles(gen, size)
    lower = np.sin(rho * theta)
    upper = lower if rho == 1.0 - rho else np.sin((1.0 - rho) * theta)
    a = (lower ** rho * upper ** (1.0 - rho) / np.sin(theta)) ** (1.0 / (1.0 - rho))
    return dt ** (2.0 / alpha) * (a / gen.exponential(1.0, size)) ** ((1.0 - rho) / rho)


# ------------------------------------------------------ Riesz potential

def _ball_chance(d: int, m: float, r: float, s):
    """``P(|m e_1 + sqrt(s) Z| < r)`` for standard normal Z in R^d, per entry of s > 0.

    A noncentral chi-square distribution function.  In d = 3 it is the
    closed form ``Phi(a) - Phi(-b) + sqrt(s)/m (phi(b) - phi(a))``, with
    ``a = (r - m)/sqrt(s)``, ``b = (r + m)/sqrt(s)`` and ``phi(b) = phi(a)
    e^(-2rm/s)``, up to ``s = CLOSED_FORM_LIMIT r^2``; past that its terms
    cancel to a value of order ``(r^2/s)^(3/2)`` and `chndtr` takes over.
    `chndtr` alone costs several times more where ``m^2/s`` is large and
    returns 0 below about 1e-60.
    """
    from scipy.special import chndtr, ndtr

    s = np.asarray(s, dtype=float)
    if d != 3 or m == 0.0:
        return chndtr(r * r / s, d, m * m / s)
    root = np.sqrt(s)
    a = (r - m) / root
    out = ndtr(a)
    out -= ndtr(-(r + m) / root)
    out += root * np.exp(-0.5 * a * a) * np.expm1(-2.0 * r * m / s) / (m * math.sqrt(2 * math.pi))
    np.maximum(out, 0.0, out=out)  # a subnormal remainder may round below 0
    far = s > CLOSED_FORM_LIMIT * r * r
    if far.any():
        out[far] = chndtr(r * r / s[far], d, m * m / s[far])
    return out


def _tail_table(d: int, alpha: float, m: float, r: float):
    """The Bochner tail ``h(s0) = int_0^inf P(s0 + s) s^(a-1) / Gamma(a) ds``, a = alpha/2.

    ``s^(a-1)/Gamma(a)`` is the potential density of the alpha/2-stable
    subordinator, so ``h(S_T)`` is the mean time in the ball after T given
    the clock ``S_T``, and ``h(0)`` the whole mean occupation.  Each value
    is the trapezoid rule in ``v = log s`` at step `TAIL_STEP`, which
    converges geometrically for an integrand analytic in a strip; its ends
    are the geometric series of the limits ``P(s0) e^(a v)`` and
    ``r^d / (2^(d/2) Gamma(d/2 + 1)) e^((a - d/2) v)``.  `TAIL_NODES`
    log-uniform s0 span ``1e-6 L^2 .. 1e8 L^2``, ``L = m + r``, in chunks of
    at most `CHUNK_DRAWS` terms.  Returns ``h(0)`` and a function of an
    array of s0 that interpolates ``log h`` cubically in ``log s0``, holds h
    flat below the table and extends it by the power ``s0^(a - d/2)`` above.
    """
    from scipy.special import gamma

    a, decay = alpha / 2.0, alpha / 2.0 - d / 2.0
    scale = math.log((m + r) ** 2)
    v = np.arange(scale - 30.0, scale + 48.5, TAIL_STEP)
    ev, weight = np.exp(v), np.exp(a * v)
    grow, fall = math.exp(-a * TAIL_STEP), math.exp(decay * TAIL_STEP)
    lower = weight[0] * grow / (1.0 - grow)
    upper = r**d / (2 ** (d / 2) * gamma(d / 2 + 1)) * math.exp(decay * v[-1]) * fall / (1 - fall)
    u = np.linspace(scale - 6.0 * math.log(10.0), scale + 8.0 * math.log(10.0), TAIL_NODES)
    s0 = np.concatenate([[0.0], np.exp(u)])
    h = np.empty(len(s0))
    rows = max(1, CHUNK_DRAWS // len(v))
    for lo in range(0, len(s0), rows):
        h[lo:lo + rows] = _ball_chance(d, m, r, s0[lo:lo + rows, None] + ev) @ weight
    h += _ball_chance(d, m, r, np.maximum(s0, 1e-6 * ev[0])) * lower + upper  # P(0) at a tiny s
    h *= TAIL_STEP / gamma(a)
    logh, du = np.log(h[1:]), u[1] - u[0]

    def interp(s):
        t = (np.log(s) - u[0]) / du
        beyond = np.maximum(t - (len(u) - 1), 0.0) * du * decay
        t = np.clip(t, 0.0, len(u) - 1)
        i = np.clip(t.astype(np.int64), 1, len(u) - 3)
        f = t - i  # four-point Lagrange weights on nodes i - 1 .. i + 2
        w = (-f * (f - 1) * (f - 2) / 6, (f + 1) * (f - 1) * (f - 2) / 2,
             -(f + 1) * f * (f - 2) / 2, (f + 1) * f * (f - 1) / 6)
        return np.exp(sum(wk * logh[i + k - 1] for k, wk in enumerate(w)) + beyond)

    return float(h[0]), interp


def estimate_riesz_potential(d: int, beta: float, ball: Ball, x, time_step: float,
                             horizon: float, trials: int, rng: RngStream) -> RieszEstimate:
    """Occupation-time estimate of the power kernel potential of a ball at `x`.

    Samples only the alpha/2-stable clock S on the grid ``k * time_step``
    up to the horizon, by `sample_stable_increment` (a fixed clock when
    beta = 1).  Given S, the chance that ``x + B(S_k)`` lies in `ball` is
    ``P(S_k)`` of `_ball_chance`, and the mean time there after the horizon
    is ``h(S_N)`` of `_tail_table`, so a trial's value is ``D [time_step
    (P(0)/2 + P(S_1) + ... + P(S_N)/2) + h(S_N)]``.  The same rule at twice
    the step (its last panel the fine one when N is odd) gives the
    Richardson estimate `step_error` of the trapezoid bias.  On the fixed
    clock the window is exactly ``h(0) - h(T)``, so `step_error` is the
    trapezoid's error against it, plus `TAIL_RTOL` of ``D h(0)`` for the
    table itself.  Each 8192-trial block runs in chunks of at most
    `CHUNK_DRAWS` increments, or of one row of N, each from its own generator
    ``generator(seed, stream, block, chunk)`` (they, not the evaluation order,
    fix the draws); a chunk past `lattice.MAX_BYTES` is a `ResourceLimitError`.
    """
    if not isinstance(ball, Ball) or ball.d != d:
        raise ValueError(f"need a Ball in R^{d}")
    alpha, coefficient = riesz_params(d, beta)
    ratio = horizon / time_step if time_step > 0 else 0.0
    nsteps = int(round(ratio)) if math.isfinite(ratio) else 0
    if nsteps < 2:
        raise ValueError("need 0 < 2 time_step <= horizon")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rows = min(TRIAL_CHUNK, trials, max(1, CHUNK_DRAWS // nsteps))
    if (need := _CHUNK_ARRAYS * 8 * rows * nsteps) > lattice.MAX_BYTES:
        raise ResourceLimitError(f"a Riesz chunk of {rows} x {nsteps} draws needs {need} bytes, "
                                 f"over the budget of {lattice.MAX_BYTES}")
    offset = np.asarray(x, dtype=float) - np.asarray(ball.center)
    m, r = math.sqrt(offset @ offset), ball.radius
    h0, tail = _tail_table(d, alpha, m, r)
    start = 1.0 if m < r else 0.5 if m == r else 0.0  # P(0)
    even = nsteps - nsteps % 2
    scale = coefficient * time_step

    def values(s):
        """Per-trial values of a (trials, N) clock, and the window sums of both steps."""
        p = _ball_chance(d, m, r, s)
        fine = p.sum(axis=1) - 0.5 * p[:, -1] + 0.5 * start
        coarse = start + 2.0 * p[:, 1:even - 2:2].sum(axis=1) + p[:, even - 1]
        if even < nsteps:
            coarse += 0.5 * (p[:, -2] + p[:, -1])
        vals = scale * fine + coefficient * tail(s[:, -1])
        return vals, np.array([vals.sum(), vals @ vals, scale * fine.sum(), scale * coarse.sum()])

    if alpha == 2.0:  # every trial is the same quadrature
        clock = time_step * np.arange(1.0, nsteps + 1)[None, :]
        vals, sums = values(clock)
        est = McEstimate(float(vals[0]), 0.0, trials, rng.seed)
        window = coefficient * (h0 - tail(clock[:, -1])[0])
        step_error = abs(sums[2] - window) + TAIL_RTOL * coefficient * h0
    else:
        sums = np.zeros(4)
        for b, size in enumerate(_block_sizes(trials)):
            block = np.zeros(4)
            for c, lo in enumerate(range(0, size, rows)):
                s = sample_stable_increment(alpha, time_step,
                                            generator(rng.seed, rng.stream, b, c),
                                            size=(min(rows, size - lo), nsteps))
                block += values(np.cumsum(s, axis=1, out=s))[1]
            sums += block
        est = _estimate(sums[0], sums[1], trials, rng.seed)
        step_error = abs(sums[3] - sums[2]) / (3.0 * trials)
    return RieszEstimate(**asdict(est), step_error=step_error, window_share=sums[2] / sums[0],
                         subordination_oracle=coefficient * h0)
