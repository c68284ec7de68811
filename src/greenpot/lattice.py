"""Green functions of the simple random walk on Z^d.

Whole-space values for ``d >= 3`` and the planar potential kernel, both
read through `lattice_kernel`, come from the continuous-time representation

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
(argument above about 1e9) its Hankel expansion takes over.  Points past
the exact range take `far_field`, the one continuum asymptote.  Only the
integrand depends on d.  For ``d >= 3`` it is the product of the key's
rows, and against adaptive quadrature of the same integral it agrees to
5.2e-14 relative (d = 3, every key up to 16), 6.3e-15 (d = 4, up to 8)
and 2.1e-13 (d = 5, up to 5).  The cost scales with the keys read, not
with the exact range.

The planar potential kernel is the compensated integrand
``B_0(t)^2 - B_{x_1}(t) B_{x_2}(t)`` with ``B_n(t) = e^(-t/2) I_n(t/2)``.
Against adaptive quadrature it agrees to 1e-15 relative on every key
with ``|x|^2 < 2500``, where quadrature itself still converges, and it
stays within 2e-9 of the three-term expansion
``(2/pi) log|x| + kappa - cos(4 phi) / (6 pi |x|^2)`` for ``|x| >= 100``.

Killed Green matrices on finite index sets are obtained by direct linear
solves against the one-step transition matrix (see `killed_green_matrix`),
single columns by conjugate gradients preconditioned by the fast sine
transform of the set's bounding box (see `killed_green_entries`); both
refuse past the one byte budget `MAX_BYTES` before they allocate.

scipy (Bessel functions, banded Cholesky) is imported inside the functions that
call it: a killed Green matrix needs only numpy up to `DENSE_LIMIT` points, `scipy.linalg`
beyond, and a killed Green column needs only numpy.
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
    "lattice_kernel",
    "whole_space_green",
    "potential_kernel_2d",
    "POTENTIAL_KERNEL_CONSTANT",
    "killed_green_matrix",
    "killed_green_entries",
    "killed_green_via_kernel",
    "far_field",
    "ResourceLimitError",
    "MAX_BYTES",
    "exit_distribution",
    "EXACT_RANGE",
]

# lattice vectors with sup-norm beyond these use the continuum asymptote: d >= 3, then the plane
EXACT_RANGE = 16
POTENTIAL_EXACT_RANGE = 256

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

    def _row(self, point) -> int:
        """Row of one point, ``-1`` if it is absent or of another dimension."""
        return int(self.rows_of([point])[0]) if len(point) == self.d else -1

    def __contains__(self, point) -> bool:
        return self._row(point) >= 0

    def index_of(self, point) -> int:
        if (row := self._row(point)) < 0:
            raise KeyError(f"{tuple(int(c) for c in point)} is not in the lattice set")
        return row


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


def far_field(d: int, points) -> np.ndarray:
    """The continuum asymptote at every nonzero row of a ``(k, d)`` integer
    array: ``(2/pi) log|x| + POTENTIAL_KERNEL_CONSTANT`` for ``d = 2`` and
    ``d C(d) |x|^(2-d)`` for ``d >= 3``; the kernels' values past their
    exact range."""
    x = np.asarray(points, dtype=np.int64).reshape(-1, d)
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    if d == 2:
        return (2.0 / math.pi) * np.log(r) + POTENTIAL_KERNEL_CONSTANT
    return d * green_constant(d) * r ** (2 - d)


def _lattice_kernel(d: int, points, exact_range: int) -> np.ndarray:
    """The Bessel key sum of the module docstring at every row of a
    ``(k, d)`` integer array, and `far_field` past sup norm `exact_range`.

    Each distinct sorted key is summed once, so a value depends only on
    its key: permutations and sign flips leave it bit for bit unchanged.
    """
    x = np.asarray(points, dtype=np.int64).reshape(-1, d)
    near = np.abs(x).max(axis=1) <= exact_range
    out = np.empty(len(x))
    if near.any():
        keys = np.abs(x[near])
        keys.sort(axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
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
    out[~near] = far_field(d, x[~near])
    return out


def lattice_kernel(d: int, points) -> np.ndarray:
    """The planar potential kernel (``d = 2``) or the whole-space Green function
    (``d >= 3``) at every row of a ``(k, d)`` integer array: the Bessel key sum to
    sup norm `POTENTIAL_EXACT_RANGE` or `EXACT_RANGE`, `far_field` beyond."""
    if d < 2:
        raise ValueError("lattice kernels require d >= 2 (the potential kernel in the plane)")
    return _lattice_kernel(d, points, POTENTIAL_EXACT_RANGE if d == 2 else EXACT_RANGE)


def whole_space_green(d: int, x, exact_range: int = EXACT_RANGE) -> float:
    """Expected visits to the lattice point ``x`` by the walk started at 0, for ``d >= 3``.

    Values with ``|x|_inf <= exact_range`` are the Bessel key sum of the
    module docstring, checked against adaptive quadrature to 1e-11
    relative; beyond it `far_field`'s asymptote ``d C(d) |x|^(2-d)``.
    Values depend only on the sorted absolute coordinates, so coordinate
    permutations and sign flips leave them bit for bit unchanged.  At the
    default range this is one row of `lattice_kernel`.
    """
    if d < 3:
        raise ValueError("whole-space Green function requires d >= 3 (transience)")
    point = np.asarray(x, dtype=np.int64)
    if point.shape != (d,):
        raise ValueError(f"expected a lattice point of dimension {d}")
    return float(_lattice_kernel(d, point, exact_range)[0])


def potential_kernel_2d(x) -> float:
    """Potential kernel ``a(x)`` of the planar simple random walk.

    ``a(0) = 0``; elsewhere the compensated Bessel integral
    ``int_0^inf (e^-t I_0(t/2)^2 - e^-t I_{x_1}(t/2) I_{x_2}(t/2)) dt`` on
    the shared rule of the module docstring.  Points with
    ``|x|_inf > POTENTIAL_EXACT_RANGE`` use the asymptote
    ``(2/pi) log|x| + (2 gamma + log 8)/pi`` of `far_field`.
    """
    point = np.asarray(x, dtype=np.int64)
    if point.shape != (2,):
        raise ValueError("potential kernel is defined on Z^2")
    return float(lattice_kernel(2, point)[0])


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


MAX_BYTES = 1 << 30  # the one byte budget of the killed Green solves, read at call time
# `killed_green_matrix` inverts with numpy up to here; beyond, the banded solve is faster and lighter
# even with the scipy.linalg import (measured crossovers 1330-1480 points)
DENSE_LIMIT = 1450
SYMMETRY_TOL = 1e-10
COLUMN_BLOCK = 256  # columns per block when a full matrix is scanned
# a killed Green column (`killed_green_entries`) stops at CG_STOP and is certified to CG_TOL
CG_STOP, CG_TOL, _CG_ARRAYS = 1e-13, 1e-9, 16


class ResourceLimitError(RuntimeError):
    """A request exceeded a byte or step budget."""


def killed_green_matrix(lattice: LatticeSet) -> KilledGreenMatrix:
    """Solve ``(I - P) G = I`` for the walk restricted to `lattice`.

    ``P`` keeps probability ``1/(2d)`` on nearest-neighbor pairs inside the
    set; mass stepping outside is killed.  Up to `DENSE_LIMIT` points numpy
    inverts ``I - P``; beyond it, one banded Cholesky solve costs ``m^2``
    times the bandwidth (one grid row) and peaks at one ``m x m`` array
    plus the band.  Either way ``G`` is checked and symmetrized in place,
    `COLUMN_BLOCK` rows at a time.

    Returns
    -------
    KilledGreenMatrix
        Symmetric matrix with unit-dominated diagonal (every diagonal
        entry is at least 1).

    Raises
    ------
    ResourceLimitError
        If the ``8 m^2`` bytes of ``G`` exceed `MAX_BYTES`; checked before
        anything is allocated.  numpy's ``I - P`` (at most 16.8 MB below
        `DENSE_LIMIT`) and the band are not counted.
    numpy.linalg.LinAlgError
        If ``I - P`` is singular, or ``G`` and its transpose differ by
        more than `SYMMETRY_TOL` times its largest entry.
    """
    m = len(lattice)
    if m == 0:
        raise ValueError("lattice set is empty")
    if (need := 8 * m * m) > MAX_BYTES:
        raise ResourceLimitError(f"a killed Green matrix of {m} points needs {need} bytes, "
                                 f"over the budget of {MAX_BYTES}")
    rows, cols = _transition_coo(lattice)
    if m <= DENSE_LIMIT:
        a = np.eye(m)
        a[rows, cols] = -1.0 / (2 * lattice.d)
        g = np.linalg.inv(a)
        del a
    else:  # one Cholesky solve on the lower band of the symmetric I - P
        from scipy.linalg import solveh_banded
        lower = rows > cols
        band = np.zeros((np.max(rows - cols, initial=0) + 1, m))
        band[0] = 1.0
        band[rows[lower] - cols[lower], cols[lower]] = -1.0 / (2 * lattice.d)
        try:
            g = solveh_banded(band, np.eye(m, order="F"), overwrite_b=True, lower=True,
                              check_finite=False).T  # C-ordered, like numpy's inverse
        except np.linalg.LinAlgError as exc:  # "k-th leading minor not positive definite"
            raise np.linalg.LinAlgError(f"I - P is singular: {exc}") from exc
    scale, skew = max(float(g.max()), -float(g.min())), 0.0
    buf = np.empty(min(m, COLUMN_BLOCK) * m)
    for lo in range(0, m, COLUMN_BLOCK):  # skew of each pair, then g = (g + g.T) / 2 in place
        upper, lower = g[lo:lo + COLUMN_BLOCK, lo:], g[lo:, lo:lo + COLUMN_BLOCK].T
        part = np.subtract(upper, lower, out=buf[:upper.size].reshape(upper.shape))
        skew = max(skew, float(np.max(np.abs(part, out=part))))
        np.add(upper, lower, out=part)
        part /= 2.0
        upper[...] = part
        lower[...] = part
    if skew > SYMMETRY_TOL * scale:
        raise np.linalg.LinAlgError(
            f"killed Green solve asymmetric beyond tolerance: {skew / scale:.3e}")
    return KilledGreenMatrix(lattice=lattice, entries=g)


def _sine_transform(a: np.ndarray) -> np.ndarray:
    """``(-2)^d`` times the DST-I ``X_k = sum_j a_j sin(pi j k / (L + 1))`` of `a` along
    every axis; twice, it multiplies by ``prod(2 (L_i + 1))``.  Each pass transforms the last
    axis by an `numpy.fft.rfft` ``T`` of ``t_j = sin(pi j / N) (a_j + a_(N-j)) + (a_j -
    a_(N-j)) / 2``, ``N = L + 1``: ``X_2k = -Im T_k``, ``X_(2k+1) = X_(2k-1) + Re T_k``,
    ``X_1 = Re T_0 / 2`` (*Numerical Recipes*, 3rd ed., 12.4.1), then moves it to the front."""
    for _ in range(a.ndim):
        n, rev = a.shape[-1], a[..., ::-1]
        t = np.zeros(a.shape[:-1] + (n + 1,))
        np.multiply(a + rev, np.sin(np.pi / (n + 1) * np.arange(1, n + 1)), out=t[..., 1:])
        t[..., 1:] += 0.5 * (a - rev)
        spectrum, out = np.fft.rfft(t), np.empty(a.shape)
        np.multiply(spectrum.imag[..., 1:n // 2 + 1], 2.0, out=out[..., 1::2])
        odd = np.cumsum(spectrum.real[..., :(n + 1) // 2], axis=-1) - 0.5 * spectrum.real[..., :1]
        np.multiply(odd, -2.0, out=out[..., 0::2])
        a = np.moveaxis(out, -1, 0)
    return a


def _box_laplacian(u: np.ndarray, inside: np.ndarray, q: float) -> np.ndarray:
    """``(I - P) u`` by array shifts, for `u` on a box and 0 off the set where `inside` is 1."""
    total = np.zeros_like(u)
    for axis in range(u.ndim):
        head, tail = [slice(None)] * u.ndim, [slice(None)] * u.ndim
        head[axis], tail[axis] = slice(None, -1), slice(1, None)
        total[tuple(tail)] += u[tuple(head)]
        total[tuple(head)] += u[tuple(tail)]
    return (u - q * total) * inside


def _component(local: np.ndarray, start: int, sides: tuple) -> np.ndarray:
    """1.0 on the box `sides` where the points `local` connect to ``local[start]``, else 0.0:
    breadth first on flat indices of the box widened by a cell, so no step wraps."""
    shape = tuple(s + 2 for s in sides)
    flat = np.ravel_multi_index(tuple(local.T + 1), shape)
    unseen, mask = np.zeros(math.prod(shape), dtype=bool), np.zeros(math.prod(shape))
    unseen[flat] = True
    steps = np.array([math.prod(shape[k + 1:]) for k in range(len(shape))])
    front = flat[start:start + 1]
    while len(front):
        mask[front], unseen[front] = 1.0, False
        ahead = np.unique((front[:, None] + np.concatenate([steps, -steps])).ravel())
        front = ahead[unseen[ahead]]
    return np.ascontiguousarray(mask.reshape(shape)[(slice(1, -1),) * len(shape)])


def killed_green_entries(lattice: LatticeSet, x, ys) -> np.ndarray:
    """The entries ``G[x, y]`` of `killed_green_matrix` for each point of `ys`.

    Solves for the one column at `x`, which holds every ``G[x, y]`` by symmetry, by
    conjugate gradients on the set's bounding box, preconditioned by the box's Dirichlet
    inverse through `_sine_transform`, on numpy alone.  ``I - P`` on the set is at least
    ``lam = 1 - (1/d) sum_i cos(pi / (L_i + 1))`` (interlacing), so the run stops at
    ``|r|_2 <= CG_STOP lam |u|_2``, and one recomputed residual must certify ``|e_x - (I -
    P) u|_2 / lam <= CG_TOL |u|_2`` or this raises `LinAlgError`.  Off the component of `x`
    the column is exactly 0.  Sums are numpy sums, not BLAS dots, so values do not depend on
    the thread count.  A box past `MAX_BYTES` is a `ResourceLimitError` before allocating.
    """
    i, rows = lattice.index_of(x), lattice.rows_of(ys)
    if (rows < 0).any():  # index_of's KeyError for the first absent target
        lattice.index_of(np.reshape(ys, (-1, lattice.d))[np.argmax(rows < 0)])
    local = lattice.points - lattice.points.min(axis=0)
    sides = tuple(int(s) + 1 for s in local.max(axis=0))
    if (need := _CG_ARRAYS * 8 * math.prod(s + 2 for s in sides)) > MAX_BYTES:
        raise ResourceLimitError(f"a killed Green column on a {'x'.join(map(str, sides))} box needs "
                                 f"{need} bytes, over the budget of {MAX_BYTES}")
    q, inside = 0.5 / lattice.d, _component(local, i, sides)
    # the box's eigenvalues 1 - (1/d) sum_i cos(pi j_i / (L_i + 1)), in sin^2 for small ones
    waves = [np.sin(np.pi * np.arange(1, s + 1) / (2 * s + 2)) ** 2 * (2.0 / lattice.d) for s in sides]
    lam = sum(w[0] for w in waves)
    inverse = 1.0 / (functools.reduce(np.add.outer, waves) * math.prod(2.0 * (s + 1) for s in sides))

    def precondition(r):
        return _sine_transform(_sine_transform(r) * inverse) * inside

    def norm(a):
        return math.sqrt(float(np.sum(a * a)))

    u, r = np.zeros(sides), np.zeros(sides)
    r[tuple(local[i])] = 1.0
    p = precondition(r)
    rz = float(np.sum(r * p))
    for _ in range(len(lattice)):
        ap = _box_laplacian(p, inside, q)
        alpha = rz / float(np.sum(p * ap))
        u += alpha * p
        r -= alpha * ap
        if norm(r) <= CG_STOP * lam * norm(u):
            break
        z = precondition(r)
        rz, last = float(np.sum(r * z)), rz
        p = z + (rz / last) * p
    r = -_box_laplacian(u, inside, q)
    r[tuple(local[i])] += 1.0
    if not norm(r) / lam <= CG_TOL * norm(u):
        raise np.linalg.LinAlgError(f"killed Green column not certified: residual bound "
                                    f"{norm(r) / lam / norm(u):.3e} relative")
    return u[tuple(local[rows].T)]


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
    d = lattice.d
    probs = np.fromiter(exit_law.values(), dtype=float, count=len(exit_law))
    if np.any(probs < 0):
        raise ValueError("exit law has a negative weight")
    if probs.sum() > 1 + 1e-9:
        raise ValueError("exit law weights exceed 1")
    # x - y, then each exit point minus y, in one kernel call
    points = np.array([x, *exit_law], dtype=np.int64) - np.asarray(y, dtype=np.int64)
    g = lattice_kernel(d, points)
    value = float(g[0] - probs @ g[1:])
    return -value if d == 2 else value
