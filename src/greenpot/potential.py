"""Potential-matrix tests and entrywise (Hadamard) transforms.

A nonnegative nonsingular matrix is a potential when its inverse is a
row diagonally dominant M-matrix: off-diagonal entries nonpositive and
row sums nonnegative.  The complete-maximum-principle functional
``sum_j ((Uv)_j - 1)^+ v_j`` is nonnegative for every ``v`` exactly on
potentials (for symmetric ``U``), a second route to the same class.
`sample_cmp` scores its probes in blocks of ``rows = max(COLUMN_BLOCK,
PROBE_BYTES // (8 m))`` rows (``16 rows m`` bytes past the inverse,
whatever the trial count), takes the sign probes ``+-e_i`` in closed form
from ``U >= 0`` and returns the first minimum.  Entrywise powers
``U^(beta)`` with ``beta >= 1`` and entrywise exponentials
``exp(alpha U)`` with ``alpha > 0`` stay inside the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lattice
from .kernels import check_transform, transformed
from .lattice import LatticeSet, KilledGreenMatrix, killed_green_matrix, unit_steps
from .mc import generator

__all__ = [
    "PotentialReport",
    "is_inverse_m_matrix",
    "killed_green_check",
    "cmp_inequality",
    "sample_cmp",
    "classify",
    "hadamard_power",
    "hadamard_exp",
    "random_potential",
]

DEFAULT_TOL = 1e-8
CONDITION_LIMIT = 1e12
PROBE_BYTES = 1 << 18  # bytes of one block of CMP probes, at least lattice.COLUMN_BLOCK rows


@dataclass(frozen=True)
class PotentialReport:
    """Outcome of the inverse M-matrix test, optionally with CMP sampling.

    ``is_potential`` is ``None`` when the inversion was too ill-conditioned
    to decide (``unreliable`` set).  ``cmp_inequality_min`` is ``None``
    unless CMP sampling ran.
    """

    nonsingular: bool
    max_offdiag_of_inverse: float
    min_row_sum_of_inverse: float
    is_potential: bool | None
    unreliable: bool = False
    condition: float = math.nan
    cmp_inequality_min: float | None = None
    trials: int = 0
    seed: int | None = None


def _check_square_nonneg(u) -> np.ndarray:
    a = np.asarray(u, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if np.any(a < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    return a


@np.errstate(over="ignore")  # a column sum past the largest float is the intended inf
def _norm_1(a: np.ndarray) -> float:
    """``numpy.linalg.norm(a, 1)`` of a square `a`, one column block at a time."""
    step = lattice.COLUMN_BLOCK
    return max(float(np.abs(a[:, lo:lo + step]).sum(axis=0).max()) for lo in range(0, len(a), step))


def is_inverse_m_matrix(u, tol: float = DEFAULT_TOL) -> PotentialReport:
    """Test whether a nonnegative matrix is a nonsingular potential.

    Inverts ``u`` and checks that all off-diagonal entries of the inverse
    are ``<= tol * scale`` and all row sums are ``>= -tol * scale``, where
    ``scale`` is the largest magnitude in the inverse; either extreme
    within ``tol * scale`` of 0 is reported as 0.0, so roundoff does not
    reach the report.  The reported ``condition`` is the 1-norm condition
    number ``|u|_1 |u^-1|_1``, taken from the inverse already in hand and
    reported to 12 significant digits (the last ones move with the BLAS
    threads); beyond 1e12 it marks the report unreliable instead of deciding.

    ``u`` is inverted by numpy's LU at every size and left as it was; the
    checks make no ``m x m`` temporary.
    `killed_green_check` decides a killed Green matrix without inverting it.
    """
    return _inverse_m_test(_check_square_nonneg(u), tol)[0]


def _inverse_m_test(a: np.ndarray, tol: float) -> tuple[PotentialReport, np.ndarray | None]:
    """`is_inverse_m_matrix` of a checked `a`, and the inverse it formed (``None`` if singular)."""
    norm = _norm_1(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return PotentialReport(False, math.nan, math.nan, False), None
    cond = norm * _norm_1(inv)
    if not cond <= CONDITION_LIMIT:
        return _report(cond), inv
    scale = max(float(inv.max()), -float(inv.min()))
    min_row = float(np.min(inv.sum(axis=1)))
    diagonal = inv.diagonal().copy()
    np.fill_diagonal(inv, -math.inf)
    max_off = float(np.max(inv)) if a.shape[0] > 1 else 0.0
    np.fill_diagonal(inv, diagonal)
    return _report(cond, max_off, min_row, tol * scale), inv


def _report(cond: float, max_off: float = math.nan, min_row: float = math.nan,
            cut: float = 0.0, margin: float = 0.0) -> PotentialReport:
    """The report on a nonsingular matrix whose inverse has condition `cond` and extremes
    `max_off` and `min_row`, each known to within `margin`: unreliable unless `cond` <=
    `CONDITION_LIMIT`; else an extreme within `cut` of 0 reads 0.0, and both must hold
    within `cut` after `margin`."""
    shown = float(f"{cond:.12g}")
    if not cond <= CONDITION_LIMIT:
        return PotentialReport(True, math.nan, math.nan, None, unreliable=True, condition=shown)
    return PotentialReport(True, 0.0 if abs(max_off) <= cut else max_off,
                           0.0 if abs(min_row) <= cut else min_row,
                           bool(max_off + margin <= cut and min_row - margin >= -cut), condition=shown)


def killed_green_check(green: KilledGreenMatrix, tol: float = DEFAULT_TOL) -> PotentialReport:
    """`is_inverse_m_matrix` of a killed Green matrix, certified by its residual.

    ``G^-1`` is known: ``I - P``, with off-diagonals 0 or ``-1/(2d)`` and row sums ``1 -
    deg/(2d) >= 0``.  If ``eps = |(I - P) G - I|_inf < 1``, ``G^-1 = (I + R)^-1 (I - P)``
    lies entrywise, and in each row sum, within ``delta = |I - P|_inf eps / (1 - eps)`` of
    ``I - P`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 14).
    The report reads its extremes from ``I - P`` (``scale`` 1), needs both margins to hold
    after ``delta`` and takes ``condition = |G|_1 |I - P|_1``.  ``eps`` is summed over
    gathered rows of ``G`` in two buffers of ``COLUMN_BLOCK / 2`` rows: no matrix product
    and no ``m x m`` temporary.  ``eps >= 1`` (or NaN) raises `LinAlgError`.
    """
    g, (_, nbr) = green.entries, lattice._neighbours(green.lattice)
    m, two_d = nbr.shape
    degree = np.count_nonzero(nbr >= 0, axis=1)
    norm = 1.0 + float(degree.max()) / two_d  # |I - P|_inf = |I - P|_1
    cond = _norm_1(g) * norm  # before the buffers: its column block is scratch too
    rows = min(m, max(1, lattice.COLUMN_BLOCK // 2))
    total, gathered, eps = *np.empty((2, rows, m)), 0.0
    for lo in range(0, m, rows):
        k = min(rows, m - lo)
        acc, buf = total[:k], gathered[:k]
        for step in range(two_d):  # mode "clip" takes without a buffered copy; -1 rows are zeroed
            col = nbr[lo:lo + k, step]
            np.take(g, col, axis=0, out=buf if step else acc, mode="clip")[col < 0] = 0.0
            if step:
                acc += buf
        acc *= -1.0 / two_d
        acc += g[lo:lo + k]
        acc[np.arange(k), np.arange(lo, lo + k)] -= 1.0
        eps = np.maximum(eps, np.abs(acc, out=acc).sum(axis=1).max())  # NaN stays NaN
    if not eps < 1.0:
        raise np.linalg.LinAlgError(f"killed Green matrix not certified: |(I - P) G - I| = {eps:.3e}")
    max_off = -1.0 / two_d if m > 1 and degree.sum() == m * (m - 1) else 0.0  # unless all neighbours
    return _report(cond, max_off, float(two_d - degree.max()) / two_d, tol, norm * eps / (1.0 - eps))


def cmp_inequality(u, v) -> float:
    """Complete-maximum-principle functional ``sum_j ((Uv)_j - 1)^+ v_j``."""
    a = np.asarray(u, dtype=float)
    w = np.asarray(v, dtype=float)
    excess = np.clip(a @ w - 1.0, 0.0, None)
    return float(excess @ w)


def sample_cmp(u, trials: int, seed: int, include_adversarial: bool = True):
    """Minimize the CMP functional over random and adversarial directions.

    Draws `trials` standard-normal vectors, then the natural violators:
    the signed indicator vectors ``e_i, -e_i`` and, when the inverse
    exists, its rows scaled by ``0.5, -0.5, 1, -1, 1.5, -1.5, 2, -2``.
    Returns the pair ``(min_value, argmin_vector)``, the first minimum in
    that order.  They are scored ``rows = max(lattice.COLUMN_BLOCK,
    PROBE_BYTES // (8 m))`` at a time, so past the inverse this holds
    ``2 * 8 * rows * m`` bytes of probes and products; ``U >= 0`` makes
    ``e_i`` score ``(U_ii - 1)^+`` and ``-e_i`` score 0 without a product.
    """
    a = _check_square_nonneg(u)
    if trials < 1:
        raise ValueError("trials must be positive")
    inv = _inverse_m_test(a, DEFAULT_TOL)[1] if include_adversarial else None
    return _probe_min(a, trials, seed, include_adversarial, inv)


def _probe_min(a: np.ndarray, trials: int, seed: int, signs: bool, inv: np.ndarray | None):
    """`sample_cmp`'s scan of the probes, scaled rows of `inv` included unless it is ``None``."""
    m = len(a)
    rows = max(lattice.COLUMN_BLOCK, PROBE_BYTES // (8 * m))
    buf = np.empty((min(rows, max(trials, m)), m))
    best, witness = math.inf, None

    def score(block):
        nonlocal best, witness
        ex = block @ a.T
        ex -= 1.0
        values = np.einsum("ij,ij->i", np.clip(ex, 0.0, None, out=ex), block)
        k = int(np.argmin(values))
        if witness is None or values[k] < best:
            best, witness = float(values[k]), block[k].copy()

    rng = generator(seed)
    for lo in range(0, trials, rows):
        score(rng.standard_normal(out=buf[:min(rows, trials - lo)]))
    if signs and best > 0.0:  # the first e_i with U_ii <= 1 scores 0, else -e_0 does
        i = int(np.argmax(np.diagonal(a) <= 1.0))
        best, witness = 0.0, np.zeros(m)
        witness[i] = 1.0 if a[i, i] <= 1.0 else -1.0
    for c in () if inv is None else (0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0):
        for lo in range(0, m, rows):
            score(np.multiply(inv[lo:lo + rows], c, out=buf[:min(rows, m - lo)]))
    return best, witness


def classify(u, trials: int = 0, seed: int = 0, tol: float = DEFAULT_TOL) -> PotentialReport:
    """Inverse M-matrix test plus optional CMP sampling on the same inverse, in one report."""
    a = _check_square_nonneg(u)
    report, inv = _inverse_m_test(a, tol)
    if trials <= 0:
        return report
    value, _ = _probe_min(a, trials, seed, True, inv)
    return replace(report, cmp_inequality_min=value, trials=trials, seed=seed)


def hadamard_power(u, beta: float) -> np.ndarray:
    """Entrywise ``u ** beta`` in the matrix range of `check_transform`, by `transformed`."""
    return transformed(*check_transform("power", beta, None, False), _check_square_nonneg(u))


def hadamard_exp(u, alpha: float) -> np.ndarray:
    """Entrywise ``exp(alpha * u)`` in the matrix range of `check_transform`, by `transformed`."""
    return transformed(*check_transform("exp", alpha, None, False), _check_square_nonneg(u))


def random_potential(d: int, size_range: tuple[int, int], seed: int) -> KilledGreenMatrix:
    """Killed Green matrix of a random connected lattice set.

    The set is grown by collecting the distinct points of a simple random
    walk started at the origin until the target size is reached, so it is
    connected by construction.
    """
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise ValueError("size_range must satisfy 1 <= lo <= hi")
    rng = generator(seed)
    size = int(rng.integers(lo, hi + 1))
    steps = unit_steps(d)
    pos = np.zeros(d, dtype=np.int64)
    points = {tuple(pos)}
    while len(points) < size:
        pos = pos + steps[rng.integers(0, 2 * d)]
        points.add(tuple(pos))
    return killed_green_matrix(LatticeSet.from_points(d, sorted(points)))
