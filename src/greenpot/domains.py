"""Open continuum domains and their lattice approximations.

Domains are described exactly (balls, axis boxes, glued unions of closed
cubes, intersections with balls) so membership and sup-norm distances to
the set and its complement are computed in closed form rather than from
sampled distance fields.  Each is written once, as a method on a ``(k, d)``
float array of points that also takes one point.  Grids use the scaling
``h = sqrt(d / n)``; a refinement step multiplies ``n`` by 9, which divides
the spacing by 3 so successive grids nest.  A sup distance within
``TIE_TOL`` of one spacing is on neither the interior nor the exterior
grid, so a domain shifted by a lattice vector has the shifted grids.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import lattice

__all__ = [
    "Ball",
    "Box",
    "CubicSet",
    "Intersection",
    "GridSpec",
    "domain_from_json",
    "grid_points",
    "interior_grid",
    "exterior_grid",
    "round_to_grid",
]

# snapping tolerance for exact-tie detection in cube-index space
TIE_TOL = 1e-9
# candidate points per evaluation of a grid's membership test; bounds the
# float temporaries of the distance methods to a few MB at any grid size
_ROW_BLOCK = 1 << 14


def _pointwise(method):
    """Let a method written for a ``(k, d)`` float array of points also take
    one point, returning the Python ``bool`` or ``float`` of its row.  Points
    arrive in C order: the rounding of a row's sum of squares in `einsum`
    and BLAS depends on the memory layout."""

    @functools.wraps(method)
    def call(self, x):
        pts = np.asarray(x, dtype=float, order="C")
        if pts.ndim == 2:
            return method(self, pts)
        return method(self, pts.reshape(1, -1))[0].item()

    return call


def _box_dist_inf(x: np.ndarray, lo, hi) -> np.ndarray:
    return np.maximum(np.max(np.maximum(lo - x, x - hi), axis=1), 0.0)


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def d(self) -> int:
        return len(self.center)

    @_pointwise
    def contains(self, x):
        # |x - c|^2 summed axis by axis, one strided pass each, in a fixed
        # order; a point within TIE_TOL (relative) of the sphere is outside
        q = np.zeros(len(x))
        for k, c in enumerate(self.center):
            t = x[:, k] - c
            q += t * t
        return q < self.radius**2 * (1.0 - TIE_TOL)

    def bbox(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    @_pointwise
    def dist_inf_to_complement(self, x):
        # largest t with sum_i (|x_i - c_i| + t)^2 <= r^2: the worst corner
        # of the sup-norm cube of half-width t must stay inside the ball
        a = np.abs(x - np.asarray(self.center))
        gap = self.radius**2 - (a[:, None, :] @ a[:, :, None])[:, 0, 0]  # a BLAS dot per row
        s, d = a.sum(axis=1), x.shape[1]
        t = (np.sqrt(s * s + d * np.maximum(gap, 0.0)) - s) / d
        return np.where(gap > 0, t, 0.0)

    @_pointwise
    def dist_inf_to_set(self, x):
        # smallest t with sum_i max(|x_i - c_i| - t, 0)^2 <= r^2, solved on
        # the sorted breakpoints where coordinates saturate
        a = np.sort(np.abs(x - np.asarray(self.center)), axis=1)[:, ::-1]
        m = np.arange(1, x.shape[1] + 1)
        s, q = np.cumsum(a, axis=1), np.cumsum(a * a, axis=1)
        disc = s * s - m * (q - self.radius**2)
        t = (s - np.sqrt(np.maximum(disc, 0.0))) / m
        nxt = np.concatenate([a[:, 1:], np.zeros((len(a), 1))], axis=1)
        ok = (disc >= 0) & (nxt <= t) & (t <= a + 1e-12)
        first = np.take_along_axis(t, ok.argmax(axis=1)[:, None], axis=1)[:, 0]
        return np.where(ok.any(axis=1) & (q[:, -1] >= self.radius**2), np.maximum(first, 0.0), 0.0)


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(c) for c in self.lo)
        hi = tuple(float(c) for c in self.hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box corners must satisfy lo < hi coordinatewise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    @_pointwise
    def contains(self, x):
        return np.all(x > self.lo, axis=1) & np.all(x < self.hi, axis=1)

    def bbox(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    @_pointwise
    def dist_inf_to_complement(self, x):
        return np.maximum(np.min(np.minimum(x - self.lo, self.hi - x), axis=1), 0.0)

    @_pointwise
    def dist_inf_to_set(self, x):
        return _box_dist_inf(x, np.asarray(self.lo), np.asarray(self.hi))


@dataclass(frozen=True)
class CubicSet:
    """Interior of a union of closed lattice cubes of side ``sqrt(d/height)``.

    Cubes are centered at ``side * k`` for index vectors ``k`` in `basis`.
    Points on a face shared by two basis cubes are interior; points only
    on corners or exposed faces are not.  A basis too wide for one packed
    lattice index, or an index of magnitude ``2^53`` or more (beyond the
    exact floats, so no cube centre can be placed), is a ValueError.
    """

    height: int
    basis: tuple

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be a positive integer")
        basis = tuple(sorted(tuple(int(c) for c in k) for k in self.basis))
        if not basis:
            raise ValueError("basis must be nonempty")
        if len({len(k) for k in basis}) != 1:
            raise ValueError("basis cubes must share one dimension")
        if any(abs(c) >= 2**53 for k in basis for c in k):
            raise ValueError("basis indices must have magnitude below 2^53")
        object.__setattr__(self, "basis", basis)
        cells = lattice.LatticeSet.from_points(len(basis[0]), basis)
        # the cells outside the basis that touch it, where every interior
        # point's nearest complement point lies
        near = cells.points[:, None, :] - 1 + np.indices((3,) * cells.d).reshape(cells.d, -1).T
        near = np.unique(near.reshape(-1, cells.d), axis=0)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_frontier", near[cells.rows_of(near) < 0])

    @property
    def d(self) -> int:
        return len(self.basis[0])

    @property
    def side(self) -> float:
        return math.sqrt(self.d / self.height)

    @_pointwise
    def contains(self, x):
        # interior point iff every orthant of an infinitesimal cube at x
        # is covered by a basis cube; on a face plane (a tie) the slab
        # below the plane covers the lower orthants
        cell, tie = split_ties(x / self.side + 0.5)
        inside = np.ones(len(x), dtype=bool)
        for below in itertools.product((0, 1), repeat=self.d):
            inside &= self._cells.rows_of(cell - np.asarray(below) * tie) >= 0
        return inside

    def bbox(self):
        arr = np.asarray(self.basis, dtype=float) * self.side
        return arr.min(axis=0) - self.side / 2, arr.max(axis=0) + self.side / 2

    def _min_cube_dist(self, x: np.ndarray, cells: np.ndarray) -> np.ndarray:
        best = np.full(len(x), np.inf)
        for c in np.asarray(cells, dtype=float) * self.side:
            np.minimum(best, _box_dist_inf(x, c - self.side / 2, c + self.side / 2), out=best)
        return best

    @_pointwise
    def dist_inf_to_set(self, x):
        return self._min_cube_dist(x, self._cells.points)

    @_pointwise
    def dist_inf_to_complement(self, x):
        return np.where(self.contains(x), self._min_cube_dist(x, self._frontier), 0.0)


@dataclass(frozen=True)
class Intersection:
    """Intersection of a domain with an open ball (truncation)."""

    inner: object
    ball: Ball

    def __post_init__(self):
        if self.inner.d != self.ball.d:
            raise ValueError("dimension mismatch")

    @property
    def d(self) -> int:
        return self.ball.d

    @_pointwise
    def contains(self, x):
        return self.ball.contains(x) & self.inner.contains(x)

    def bbox(self):
        lo1, hi1 = self.inner.bbox()
        lo2, hi2 = self.ball.bbox()
        return np.maximum(lo1, lo2), np.minimum(hi1, hi2)

    @_pointwise
    def dist_inf_to_complement(self, x):
        return np.minimum(self.inner.dist_inf_to_complement(x), self.ball.dist_inf_to_complement(x))

    @_pointwise
    def dist_inf_to_set(self, x):
        # lower bound (exact when one constraint is slack); errs on the
        # inclusive side, which keeps exterior grids supersets
        return np.maximum(self.inner.dist_inf_to_set(x), self.ball.dist_inf_to_set(x))


def _vector(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError("not an array")
    return tuple(float(c) for c in value)


def _basis(value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(k, list) for k in value):
        raise TypeError("not an array of arrays")
    return tuple(tuple(int(c) for c in k) for k in value)


def _field(owner: str, body: dict, name: str, parse=None):
    """``parse(body[name])``; a missing or ill-typed field is a ValueError naming it."""
    if name not in body:
        raise ValueError(f"{owner} is missing field {name!r}")
    if parse is None:
        return body[name]
    try:
        return parse(body[name])
    except (TypeError, ValueError):
        raise ValueError(f"{owner} field {name!r} is ill-typed: {body[name]!r}") from None


def _shape_from_obj(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"a shape is a JSON object with one key, its kind; got {obj!r}")
    (kind, body), = obj.items()
    if kind not in ("ball", "box", "cubic", "intersect_ball"):
        raise ValueError(f"unknown shape kind {kind!r}")
    if not isinstance(body, dict):
        raise ValueError(f"{kind} shape must be a JSON object of fields; got {body!r}")
    owner = f"{kind} shape"
    if kind == "box":
        return Box(lo=_field(owner, body, "lo", _vector), hi=_field(owner, body, "hi", _vector))
    if kind == "cubic":
        return CubicSet(height=_field(owner, body, "height", int),
                        basis=_field(owner, body, "basis", _basis))
    ball = Ball(center=_field(owner, body, "center", _vector),
                radius=_field(owner, body, "radius", float))
    if kind == "ball":
        return ball
    return Intersection(inner=_shape_from_obj(_field(owner, body, "inner")), ball=ball)


def domain_from_json(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a domain is a JSON object")
    d = _field("domain", obj, "d", int)
    domain = _shape_from_obj(_field("domain", obj, "shape"))
    if domain.d != d:
        raise ValueError("declared dimension does not match the shape")
    return domain


@dataclass(frozen=True)
class GridSpec:
    """Lattice ``sqrt(d/n) Z^d``; each step of `level_sequence` divides the spacing by 3."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive integers")

    @property
    def h(self) -> float:
        return math.sqrt(self.d / self.n)

    @property
    def green_scale(self) -> float:
        """Factor taking walk Green values to the continuum kernel's scale."""
        return self.n ** (self.d / 2.0 - 1.0) / self.d ** (self.d / 2.0)

    @classmethod
    def level_sequence(cls, d: int, base: int, count: int) -> list["GridSpec"]:
        return [cls(d=d, n=base * 9**k) for k in range(count)]


def _bbox_blocks(region, grid: GridSpec, pad: float = 0.0):
    """Integer points of the region's bounding box widened by `pad`, in
    lexicographic order, as int64 ``(k, d)`` blocks of `_ROW_BLOCK` rows."""
    if region.d != grid.d:
        raise ValueError("domain and grid dimensions differ")
    lo, hi = region.bbox()
    first = np.floor((lo - pad) / grid.h).astype(np.int64)
    shape = np.ceil((hi + pad) / grid.h).astype(np.int64) - first + 1
    size = math.prod(int(s) for s in shape)
    for start in range(0, size, _ROW_BLOCK):
        flat = np.arange(start, min(start + _ROW_BLOCK, size))
        yield first + np.stack(np.unravel_index(flat, shape), axis=1)


def _grid_where(domain, grid: GridSpec, keep, pad: float = 0.0) -> lattice.LatticeSet:
    """Indices of the bounding box widened by `pad` whose scaled points
    satisfy `keep`, evaluated on one block at a time.  Kept int64 points past
    `lattice.MAX_BYTES` are a `ResourceLimitError` before they are joined."""
    kept, need = [], 0
    for cand in _bbox_blocks(domain, grid, pad):
        kept.append(cand[keep(cand * grid.h)])
        if (need := need + kept[-1].nbytes) > lattice.MAX_BYTES:
            raise lattice.ResourceLimitError(f"the grid's kept points pass {need} bytes, "
                                     f"over the budget of {lattice.MAX_BYTES}")
    return lattice.LatticeSet(d=grid.d, points=np.concatenate(kept))


def grid_points(domain, grid: GridSpec) -> lattice.LatticeSet:
    """Integer points whose scaled positions lie strictly inside the domain.

    Boundary points are excluded (open-set membership).  The result may
    be empty; `nonempty_grid_points` is the variant that refuses that.
    """
    return _grid_where(domain, grid, domain.contains)


def nonempty_grid_points(domain, grid: GridSpec) -> lattice.LatticeSet:
    """`grid_points` for a caller that needs at least one point: an empty
    grid is a ValueError."""
    pts = grid_points(domain, grid)
    if len(pts) == 0:
        raise ValueError("domain grid is empty at this resolution")
    return pts


def interior_grid(domain, grid: GridSpec) -> lattice.LatticeSet:
    """Points further than one spacing from the complement (in sup norm);
    a distance within ``TIE_TOL`` of one spacing is a tie, left out."""
    return _grid_where(domain, grid, lambda x: domain.dist_inf_to_complement(x) / grid.h > 1 + TIE_TOL)


def exterior_grid(domain, grid: GridSpec) -> lattice.LatticeSet:
    """Points within one spacing of the domain (in sup norm); a distance
    within ``TIE_TOL`` of one spacing is a tie, left out."""
    return _grid_where(domain, grid, lambda x: domain.dist_inf_to_set(x) / grid.h < 1 - TIE_TOL,
                       pad=2.0 * grid.h)


def round_to_grid(x, grid: GridSpec) -> np.ndarray:
    """Nearest grid index in sup norm, lexicographically smallest on ties."""
    p = np.asarray(x, dtype=float)
    if p.shape != (grid.d,):
        raise ValueError(f"expected a point of dimension {grid.d}")
    cell, tie = split_ties(p / grid.h + 0.5)
    return cell - tie  # an exact midpoint goes to the lower index


def split_ties(t) -> tuple:
    """Integer cells of `t` and where `t` sits on a cell corner.

    An entry within ``TIE_TOL`` (relative) of an integer is a tie: its cell
    is that integer.  Any other entry lies in cell ``floor(t)``.  Returns
    the int64 cells and the boolean tie mask.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("a non-finite coordinate has no grid cell")
    near = np.round(t)
    tie = np.abs(t - near) <= TIE_TOL * np.maximum(1.0, np.abs(t))
    return np.where(tie, near, np.floor(t)).astype(np.int64), tie
