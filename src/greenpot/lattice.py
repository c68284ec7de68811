"""Green functions of the simple random walk on Z^d.

Whole-space values for ``d >= 3`` and the planar potential kernel are
computed from the continuous-time representation

    g(0, x) = int_0^inf prod_j e^(-t/d) I_{x_j}(t/d) dt,

which is the lattice Fourier integral with the angular variables reduced
to modified Bessel functions.

Both kernels are one evaluator: absolute coordinates are sorted into
keys, and each distinct key with sup norm at most the exact range is
summed once on one shared-node rule: an 8-node Gauss-Legendre panel on
``[0, 1e-6]``, 30 panels of 16 nodes in ``log t`` on ``[1e-6, 1e4]``, and
40 nodes in ``u`` after ``t = 1e4/u^2``, which turns the algebraic tail
into a polynomial.  ``e^(-t/d) I_n(t/d)`` is evaluated once per
``(d, n)`` on the nodes and cached; where scipy's ``ive`` gives NaN
(argument above about 1e9) its Hankel expansion takes over.  Keys past
the exact range take the continuum asymptote.  Only the integrand
depends on d.  For ``d >= 3`` it is the product of the key's rows, and
against adaptive quadrature of the same integral it agrees to 5.2e-14
relative (d = 3, every key up to 16), 6.3e-15 (d = 4, up to 8) and
2.1e-13 (d = 5, up to 5).  The cost scales with the keys read, not with
the exact range.

The planar potential kernel is the compensated integrand
``B_0(t)^2 - B_{x_1}(t) B_{x_2}(t)`` with ``B_n(t) = e^(-t/2) I_n(t/2)``.
Against adaptive quadrature it agrees to 1e-15 relative on every key
with ``|x|^2 < 2500``, where quadrature itself still converges, and it
stays within 2e-9 of the three-term expansion
``(2/pi) log|x| + kappa - cos(4 phi) / (6 pi |x|^2)`` for ``|x| >= 100``.

Killed Green matrices on finite index sets are obtained by direct linear
solves against the one-step transition matrix (see `killed_green_matrix`).

scipy (Bessel functions, banded Cholesky, sparse LU) is imported inside the
functions that call it, so killed Green work up to `DENSE_LIMIT` points needs only numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import green_constant

__all__ = [
    "LatticeSet",
    "KilledGreenMatrix",
    "whole_space_green",
    "whole_space_green_array",
    "potential_kernel_2d",
    "potential_kernel_2d_array",
    "POTENTIAL_KERNEL_CONSTANT",
    "killed_green_matrix",
    "killed_green_entries",
    "killed_green_via_kernel",
    "AsymmetricSolveError",
    "exit_distribution",
    "EXACT_RANGE",
]

# lattice vectors with sup-norm beyond this use the continuum asymptote
EXACT_RANGE = 16

# additive constant of the planar potential-kernel asymptote
POTENTIAL_KERNEL_CONSTANT = (2.0 * np.euler_gamma + math.log(8.0)) / math.pi


class _PackedIndex:
    """Row lookup for a lexicographically sorted point set.

    Every point is shifted into a box with a two-cell margin and packed
    into one int64 key, first coordinate most significant.  Packing keeps
    lexicographic order, so the keys of the set come out sorted and the
    `searchsorted` slot of a key is the row of its point.  Query points
    are clamped into the box first; a clamped point lands on the margin,
    which holds no point of the set.
    """

    def __init__(self, points: np.ndarray):
        if len(points):
            self.lo = points.min(axis=0) - 2
            self.width = int((points.max(axis=0) - self.lo).max()) + 3
        else:
            self.lo, self.width = np.zeros(points.shape[1], dtype=np.int64), 1
        if self.width ** points.shape[1] >= 2**63:
            raise ValueError("lattice set spans too wide a box to index")
        self.keys = self._pack(points)

    def _pack(self, points: np.ndarray) -> np.ndarray:
        shifted = np.maximum(points - self.lo, 0)
        np.minimum(shifted, self.width - 1, out=shifted)
        keys = shifted[:, 0].astype(np.int64)
        for k in range(1, shifted.shape[1]):
            keys = keys * self.width + shifted[:, k]
        return keys

    def rows(self, points: np.ndarray) -> np.ndarray:
        key = self._pack(points)
        if not len(self.keys):
            return np.full(len(key), -1)
        slot = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(self.keys[slot] == key, slot, -1)


@dataclass(frozen=True)
class LatticeSet:
    """A finite subset of Z^d with lexicographically ordered points."""

    d: int
    points: np.ndarray
    _index: _PackedIndex = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must have shape (m, {self.d})")
        index = _PackedIndex(pts)
        if np.any(index.keys[1:] < index.keys[:-1]):  # packed keys sort lexicographically
            order = np.argsort(index.keys, kind="stable")
            pts, index.keys = pts[order], index.keys[order]
        if np.any(index.keys[1:] == index.keys[:-1]):
            raise ValueError("duplicate lattice points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_points(cls, d: int, points) -> "LatticeSet":
        arr = np.asarray(list(points), dtype=np.int64).reshape(-1, d)
        return cls(d=d, points=arr)

    def __len__(self) -> int:
        return len(self.points)

    def rows_of(self, points) -> np.ndarray:
        """Row of each point of a ``(k, d)`` integer array, ``-1`` where absent."""
        return self._index.rows(np.asarray(points, dtype=np.int64).reshape(-1, self.d))

    def __contains__(self, point) -> bool:
        key = tuple(int(c) for c in point)
        return len(key) == self.d and self.rows_of([key])[0] >= 0

    def index_of(self, point) -> int:
        key = tuple(int(c) for c in point)
        if key not in self:
            raise KeyError(f"{key} is not in the lattice set")
        return int(self.rows_of([key])[0])


@functools.cache
def unit_steps(d: int) -> np.ndarray:
    """The 2d signed unit vectors of Z^d."""
    steps = np.zeros((2 * d, d), dtype=np.int64)
    for j in range(d):
        steps[2 * j, j] = 1
        steps[2 * j + 1, j] = -1
    return steps


# ---------------------------------------------------------------------------
# whole-space values


# chunk of keys whose integrands are held at once (about 4 MB)
_KEY_CHUNK = 1024


@functools.cache
def _time_rule() -> tuple:
    """Shared nodes and weights for ``int_0^inf f(t) dt``; see the module docstring."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    x8, w8 = np.polynomial.legendre.leggauss(8)
    x40, w40 = np.polynomial.legendre.leggauss(40)
    nodes, weights = [(x8 + 1) * 0.5e-6], [w8 * 0.5e-6]
    edges = np.linspace(math.log(1e-6), math.log(1e4), 31)
    for a, b in zip(edges[:-1], edges[1:]):
        t = np.exp((a + b) / 2 + (b - a) / 2 * x16)
        nodes.append(t)
        weights.append(w16 * (b - a) / 2 * t)
    u = (x40 + 1) / 2
    nodes.append(1e4 / u**2)
    weights.append(w40 * 1e4 / u**3)
    return np.concatenate(nodes), np.concatenate(weights)


def _scaled_bessel(orders: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``e^(-z) I_n(z)`` for each order (rows) and argument (columns).

    scipy's ``ive`` gives NaN for very large ``z``; there three terms of
    the Hankel expansion are exact to double precision.
    """
    from scipy.special import ive

    vals = ive(orders[:, None], z[None, :])
    bad = np.isnan(vals)
    if bad.any():
        n, zz = (a[bad] for a in np.broadcast_arrays(orders[:, None], z[None, :]))
        mu, a = 4.0 * n * n, 8.0 * zz
        series = 1.0 - (mu - 1) / a * (1.0 - (mu - 9) / (2 * a) * (1.0 - (mu - 25) / (3 * a)))
        vals[bad] = series / np.sqrt(2.0 * math.pi * zz)
    return vals


# rows e^(-t/d) I_n(t/d) on the nodes of `_time_rule`, by (d, n)
_BESSEL_ROWS: dict[tuple, np.ndarray] = {}


def _lattice_kernel(d: int, points, exact_range: int, far) -> np.ndarray:
    """The Bessel key sum of the module docstring at every row of a
    ``(k, d)`` integer array, and ``far(|x|)`` past sup norm `exact_range`.

    Each distinct sorted key is summed once, so a value depends only on
    its key: permutations and sign flips leave it bit for bit unchanged.
    """
    keys = np.sort(np.abs(np.asarray(points, dtype=np.int64).reshape(-1, d)), axis=1)
    out = np.empty(len(keys))
    near = keys[:, -1] <= exact_range
    if near.any():
        uniq, inverse = np.unique(keys[near], axis=0, return_inverse=True)
        # order 0 is always present, as rows[0], for the planar integrand
        orders, slot = np.unique(np.append(uniq, 0), return_inverse=True)
        slot = slot[:-1].reshape(uniq.shape)
        t, w = _time_rule()
        missing = [n for n in orders.tolist() if (d, n) not in _BESSEL_ROWS]
        if missing:
            _BESSEL_ROWS.update(zip([(d, n) for n in missing],
                                    _scaled_bessel(np.array(missing, dtype=float), t / d)))
        rows = np.stack([_BESSEL_ROWS[d, n] for n in orders.tolist()])
        values = np.empty(len(uniq))
        for lo in range(0, len(uniq), _KEY_CHUNK):
            chunk = slot[lo:lo + _KEY_CHUNK]
            if d == 2:  # compensated: B_0^2 - B_{x_1} B_{x_2}
                integrand = (rows[0] * rows[0] - rows[chunk[:, 0]] * rows[chunk[:, 1]]) * w
            else:
                integrand = rows[chunk[:, 0]] * w
                for j in range(1, d):
                    integrand *= rows[chunk[:, j]]
            values[lo:lo + len(chunk)] = integrand.sum(axis=1)
        out[near] = values[inverse.reshape(-1)]
    far_keys = keys[~near].astype(float)
    out[~near] = far(np.sqrt(np.einsum("ij,ij->i", far_keys, far_keys)))
    return out


def whole_space_green_array(d: int, points, exact_range: int = EXACT_RANGE) -> np.ndarray:
    """`whole_space_green` at every row of a ``(k, d)`` integer array."""
    if d < 3:
        raise ValueError("whole-space Green function requires d >= 3 (transience)")
    return _lattice_kernel(d, points, exact_range, lambda r: d * green_constant(d) * r ** (2 - d))


def whole_space_green(d: int, x, exact_range: int = EXACT_RANGE) -> float:
    """Expected visits to ``x`` by the walk started at 0, for ``d >= 3``.

    Values with ``|x|_inf <= exact_range`` are the Bessel key sum of the
    module docstring, checked against adaptive quadrature to 1e-11
    relative; beyond that the asymptote ``d C(d) |x|^(2-d)`` is used.
    Values depend only on the sorted absolute coordinates, so coordinate
    permutations and sign flips leave them bit for bit unchanged.

    Parameters
    ----------
    d : int
        Dimension, at least 3.
    x : array_like of int
        Lattice point.
    exact_range : int
        Sup-norm radius of the Bessel key sum.

    Returns
    -------
    float
    """
    point = np.asarray(x, dtype=np.int64)
    if point.shape != (d,):
        raise ValueError(f"expected a lattice point of dimension {d}")
    return float(whole_space_green_array(d, point, exact_range)[0])


# beyond this sup-norm radius the planar kernel uses its log asymptote
POTENTIAL_EXACT_RANGE = 256


def potential_kernel_2d_array(points, exact_range: int = POTENTIAL_EXACT_RANGE) -> np.ndarray:
    """`potential_kernel_2d` at every row of a ``(k, 2)`` integer array."""
    return _lattice_kernel(2, points, exact_range,
                           lambda r: (2.0 / math.pi) * np.log(r) + POTENTIAL_KERNEL_CONSTANT)


def potential_kernel_2d(x, exact_range: int = POTENTIAL_EXACT_RANGE) -> float:
    """Potential kernel ``a(x)`` of the planar simple random walk.

    ``a(0) = 0``; elsewhere the compensated Bessel integral
    ``int_0^inf (e^-t I_0(t/2)^2 - e^-t I_{x_1}(t/2) I_{x_2}(t/2)) dt`` on
    the shared rule of the module docstring.  Points with
    ``|x|_inf > exact_range`` use the asymptote
    ``(2/pi) log|x| + (2 gamma + log 8)/pi``.
    """
    point = np.asarray(x, dtype=np.int64)
    if point.shape != (2,):
        raise ValueError("potential kernel is defined on Z^2")
    return float(potential_kernel_2d_array(point, exact_range)[0])


# ---------------------------------------------------------------------------
# killed Green matrices


@dataclass(frozen=True)
class KilledGreenMatrix:
    """Green matrix of the walk killed outside a finite set.

    ``entries[i, j]`` is the expected number of visits to ``lattice.points[j]``
    before leaving the set, starting from ``lattice.points[i]``.
    """

    lattice: LatticeSet
    entries: np.ndarray

    def entry(self, x, y) -> float:
        return float(self.entries[self.lattice.index_of(x), self.lattice.index_of(y)])


def _neighbours(lattice: LatticeSet):
    """Points one step from each set point, ``(m, 2d, d)``, and their rows or ``-1``."""
    cand = lattice.points[:, None, :] + unit_steps(lattice.d)[None, :, :]
    return cand, lattice.rows_of(cand.reshape(-1, lattice.d)).reshape(cand.shape[:2])


def _transition_coo(lattice: LatticeSet):
    """Rows and columns of the ordered neighbour pairs in the set; each pair once."""
    _, nbr = _neighbours(lattice)
    rows, steps = np.nonzero(nbr >= 0)
    return rows, nbr[rows, steps]


def _killed_laplacian(lattice: LatticeSet):
    """Sparse CSC ``I - P``: unit diagonal, ``-1/(2d)`` between neighbours in the set."""
    from scipy import sparse

    rows, cols = _transition_coo(lattice)
    m = len(lattice)
    data = np.concatenate([np.ones(m), np.full(len(rows), -1.0 / (2 * lattice.d))])
    r = np.concatenate([np.arange(m), rows])
    c = np.concatenate([np.arange(m), cols])
    return sparse.csc_matrix((data, (r, c)), shape=(m, m))


# numpy inverses up to here; beyond, the scipy routes are faster and lighter
# even with the scipy.linalg import (measured crossovers 1330-1480 points)
DENSE_LIMIT = 1450
SYMMETRY_TOL = 1e-10
COLUMN_BLOCK = 256  # columns per block when a full matrix is scanned


class AsymmetricSolveError(RuntimeError):
    """A killed Green solve came out asymmetric beyond `SYMMETRY_TOL`."""


def _factor(lattice: LatticeSet):
    """Sparse LU of ``I - P``; an exactly singular factor is a `LinAlgError`."""
    from scipy.sparse.linalg import splu

    try:
        return splu(_killed_laplacian(lattice))
    except RuntimeError as exc:  # splu's "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from exc


def _check_symmetric(skew: float, scale: float) -> None:
    if skew > SYMMETRY_TOL * scale:
        raise AsymmetricSolveError(
            f"killed Green solve asymmetric beyond tolerance: {skew / scale:.3e}")


def killed_green_matrix(lattice: LatticeSet) -> KilledGreenMatrix:
    """Solve ``(I - P) G = I`` for the walk restricted to `lattice`.

    ``P`` keeps probability ``1/(2d)`` on nearest-neighbor pairs inside the
    set; mass stepping outside is killed.  Up to `DENSE_LIMIT` points numpy
    inverts ``I - P``; beyond it, one banded Cholesky solve costs ``m^2``
    times the bandwidth (one grid row) and peaks at two ``m x m`` arrays.

    Returns
    -------
    KilledGreenMatrix
        Symmetric matrix with unit-dominated diagonal (every diagonal
        entry is at least 1).

    Raises
    ------
    AsymmetricSolveError
        If ``G`` and its transpose differ by more than `SYMMETRY_TOL`
        times its largest entry.
    numpy.linalg.LinAlgError
        If ``I - P`` is singular.
    """
    m = len(lattice)
    if m == 0:
        raise ValueError("lattice set is empty")
    if m <= DENSE_LIMIT:
        rows, cols = _transition_coo(lattice)
        a = np.eye(m)
        a[rows, cols] = -1.0 / (2 * lattice.d)
        g = np.linalg.inv(a)
        del a
    else:  # one Cholesky solve on the lower band of the symmetric I - P
        from scipy.linalg import solveh_banded
        lap = _killed_laplacian(lattice).tocoo()
        lower = lap.row >= lap.col
        band = np.zeros((np.max(lap.row - lap.col) + 1, m))
        band[lap.row[lower] - lap.col[lower], lap.col[lower]] = lap.data[lower]
        try:
            g = solveh_banded(band, np.eye(m, order="F"), overwrite_b=True, lower=True,
                              check_finite=False)
        except np.linalg.LinAlgError as exc:  # "k-th leading minor not positive definite"
            raise np.linalg.LinAlgError(f"I - P is singular: {exc}") from exc
    skew = max(float(np.max(np.abs(g[:, lo:lo + COLUMN_BLOCK] - g[lo:lo + COLUMN_BLOCK].T)))
               for lo in range(0, m, COLUMN_BLOCK))
    _check_symmetric(skew, max(float(g.max()), -float(g.min())))
    g = np.add(g, g.T)
    g /= 2.0
    return KilledGreenMatrix(lattice=lattice, entries=g)


def killed_green_entries(lattice: LatticeSet, x, ys) -> np.ndarray:
    """The entries ``G[x, y]`` of `killed_green_matrix` for each point of `ys`.

    Factors the sparse ``I - P`` once and solves for the column at `x`
    and the column at each `y`.  Every mirrored pair ``G[x, y]``,
    ``G[y, x]`` passes the same symmetry check as the full matrix, scaled
    by the largest solved value, and their means are returned.
    """
    i = lattice.index_of(x)
    rows = np.array([lattice.index_of(y) for y in ys], dtype=np.int64)
    rhs = np.zeros((len(lattice), len(rows) + 1))
    rhs[i, 0] = 1.0
    rhs[rows, np.arange(1, len(rows) + 1)] = 1.0
    g = _factor(lattice).solve(rhs)
    forward, backward = g[i, 1:], g[rows, 0]
    _check_symmetric(np.max(np.abs(forward - backward), initial=0.0), np.max(np.abs(g)))
    return (forward + backward) / 2.0


def exit_distribution(lattice: LatticeSet, start, green: KilledGreenMatrix | None = None) -> dict:
    """Exact law of the first point visited outside the set.

    Computed from the killed Green row: the chance of exiting at a
    boundary point is the visit count of each inner neighbor times the
    single-step probability.  Keys appear in order of first reach, scanning
    set points in order and steps within each point.
    """
    if green is None:
        green = killed_green_matrix(lattice)
    row = green.entries[lattice.index_of(start)]
    q = 1.0 / (2 * lattice.d)
    cand, nbr = _neighbours(lattice)
    out = nbr < 0
    weights = np.broadcast_to(row[:, None], out.shape)[out] * q
    exits, first, inverse = np.unique(cand[out], axis=0, return_index=True, return_inverse=True)
    mass = np.bincount(inverse.reshape(-1), weights=weights, minlength=len(exits))
    return {tuple(int(c) for c in exits[k]): float(mass[k]) for k in np.argsort(first)}


def killed_green_via_kernel(lattice: LatticeSet, x, y, exit_law: dict) -> float:
    """Killed Green value from whole-space data and an exit law.

    For ``d >= 3`` this is ``g(x - y) - sum_z g(z - y) exit_law[z]``; in
    the plane the potential kernel takes the role of ``g`` with the
    opposite sign: ``sum_z a(z - y) exit_law[z] - a(x - y)``.

    Parameters
    ----------
    lattice : LatticeSet
        Index set the walk is killed outside of.
    x, y : array_like of int
        Points of the set.
    exit_law : dict
        Map from boundary points to probabilities (exact or estimated);
        must be a sub-probability vector.
    """
    if x not in lattice or y not in lattice:
        raise ValueError("x and y must belong to the lattice set")
    total = 0.0
    for prob in exit_law.values():
        if prob < 0:
            raise ValueError("exit law has a negative weight")
        total += prob
    if total > 1 + 1e-9:
        raise ValueError("exit law weights exceed 1")
    px = np.asarray(x, dtype=np.int64)
    py = np.asarray(y, dtype=np.int64)
    d = lattice.d
    if d >= 3:
        acc = whole_space_green(d, px - py)
        for z, prob in exit_law.items():
            acc -= prob * whole_space_green(d, np.asarray(z, dtype=np.int64) - py)
        return acc
    acc = -potential_kernel_2d(px - py)
    for z, prob in exit_law.items():
        acc += prob * potential_kernel_2d(np.asarray(z, dtype=np.int64) - py)
    return acc
