"""Open continuum domains and their lattice approximations.

Domains are described exactly (balls, axis boxes, glued unions of closed
cubes, intersections with balls) so membership and sup-norm distances to
the set and its complement are computed in closed form rather than from
sampled distance fields.  Grids use the scaling ``h = sqrt(d / n)``; a
refinement step multiplies ``n`` by 9, which halves nothing but divides
the spacing by 3 so successive grids nest.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .kernels import canonical_json
from .lattice import LatticeSet

__all__ = [
    "Ball",
    "Box",
    "CubicSet",
    "Intersection",
    "GridSpec",
    "domain_from_json",
    "domain_to_json",
    "grid_points",
    "interior_grid",
    "exterior_grid",
    "round_to_grid",
    "cubic_open_set",
]

logger = logging.getLogger(__name__)

# snapping tolerance for exact-tie detection in cube-index space
TIE_TOL = 1e-9


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

    def contains(self, x) -> bool:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center)) < self.radius

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        delta = pts - np.asarray(self.center)
        return np.einsum("ij,ij->i", delta, delta) < self.radius**2

    def bbox(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def dist_inf_to_complement(self, x) -> float:
        # largest t with sum_i (|x_i - c_i| + t)^2 <= r^2: the worst corner
        # of the sup-norm cube of half-width t must stay inside the ball
        a = np.abs(np.asarray(x, dtype=float) - self.center)
        gap = self.radius**2 - float(a @ a)
        if gap <= 0:
            return 0.0
        s, d = float(a.sum()), len(a)
        return (math.sqrt(s * s + d * gap) - s) / d

    def dist_inf_to_set(self, x) -> float:
        # smallest t with sum_i max(|x_i - c_i| - t, 0)^2 <= r^2, solved on
        # the sorted breakpoints where coordinates saturate
        a = np.sort(np.abs(np.asarray(x, dtype=float) - self.center))[::-1]
        if float(a @ a) < self.radius**2:
            return 0.0
        r2 = self.radius**2
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

    def contains(self, x) -> bool:
        p = np.asarray(x, dtype=float)
        return bool(np.all(p > self.lo) and np.all(p < self.hi))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return np.all(pts > self.lo, axis=1) & np.all(pts < self.hi, axis=1)

    def bbox(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    def dist_inf_to_complement(self, x) -> float:
        p = np.asarray(x, dtype=float)
        margin = float(np.min(np.minimum(p - self.lo, self.hi - p)))
        return max(margin, 0.0)

    def dist_inf_to_set(self, x) -> float:
        return _box_dist_inf(np.asarray(x, dtype=float), np.asarray(self.lo), np.asarray(self.hi))


def _box_dist_inf(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    return max(float(np.max(np.maximum(lo - x, x - hi))), 0.0)


@dataclass(frozen=True)
class CubicSet:
    """Interior of a union of closed lattice cubes of side ``sqrt(d/height)``.

    Cubes are centered at ``side * k`` for index vectors ``k`` in `basis`.
    Points on a face shared by two basis cubes are interior; points only
    on corners or exposed faces are not.
    """

    height: int
    basis: tuple

    def __post_init__(self):
        if self.height < 1:
            raise ValueError("height must be a positive integer")
        basis = tuple(sorted(tuple(int(c) for c in k) for k in self.basis))
        if not basis:
            raise ValueError("basis must be nonempty")
        if len(set(basis)) != len(basis):
            raise ValueError("duplicate basis cubes")
        if len({len(k) for k in basis}) != 1:
            raise ValueError("basis cubes must share one dimension")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_basis_set", set(basis))

    @property
    def d(self) -> int:
        return len(self.basis[0])

    @property
    def side(self) -> float:
        return math.sqrt(self.d / self.height)

    def _slabs(self, x: np.ndarray):
        """Per coordinate, the cube indices whose closed slab contains x."""
        cell, tie = split_ties(x / self.side + 0.5)  # integer exactly on a face plane
        return [(int(c) - 1, int(c)) if t else (int(c),) for c, t in zip(cell, tie)]

    def contains(self, x) -> bool:
        # interior point iff every orthant of an infinitesimal cube at x
        # is covered by a basis cube
        slabs = self._slabs(np.asarray(x, dtype=float))
        idx = [0] * self.d
        while True:
            if tuple(s[i] for s, i in zip(slabs, idx)) not in self._basis_set:
                return False
            for j in range(self.d):
                if idx[j] + 1 < len(slabs[j]):
                    idx[j] += 1
                    break
                idx[j] = 0
            else:
                return True

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return np.fromiter((self.contains(p) for p in pts), dtype=bool, count=len(pts))

    def bbox(self):
        arr = np.asarray(self.basis, dtype=float) * self.side
        return arr.min(axis=0) - self.side / 2, arr.max(axis=0) + self.side / 2

    def _cube_bounds(self, k):
        c = np.asarray(k, dtype=float) * self.side
        return c - self.side / 2, c + self.side / 2

    def dist_inf_to_set(self, x) -> float:
        p = np.asarray(x, dtype=float)
        best = math.inf
        for k in self.basis:
            lo, hi = self._cube_bounds(k)
            best = min(best, _box_dist_inf(p, lo, hi))
            if best == 0.0:
                return 0.0
        return best

    def dist_inf_to_complement(self, x) -> float:
        # distance to the nearest cell not in the basis, searched ring by
        # ring around the containing cell; cells one ring further are at
        # least (ring - 1/2) * side away so the scan terminates early
        p = np.asarray(x, dtype=float)
        home = np.round(p / self.side).astype(np.int64)
        best = math.inf
        ring = 0
        while True:
            if best <= (ring - 0.5) * self.side:
                return best
            for k in _index_ring(home, ring, self.d):
                if k not in self._basis_set:
                    lo, hi = self._cube_bounds(k)
                    best = min(best, _box_dist_inf(p, lo, hi))
            ring += 1


def _index_ring(home: np.ndarray, ring: int, d: int):
    if ring == 0:
        yield tuple(int(c) for c in home)
        return
    for offset in np.ndindex(*([2 * ring + 1] * d)):
        off = np.asarray(offset) - ring
        if np.max(np.abs(off)) == ring:
            yield tuple(int(c) for c in home + off)


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

    def contains(self, x) -> bool:
        return self.ball.contains(x) and self.inner.contains(x)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        return self.ball.contains_many(pts) & self.inner.contains_many(pts)

    def bbox(self):
        lo1, hi1 = self.inner.bbox()
        lo2, hi2 = self.ball.bbox()
        return np.maximum(lo1, lo2), np.minimum(hi1, hi2)

    def dist_inf_to_complement(self, x) -> float:
        return min(self.inner.dist_inf_to_complement(x), self.ball.dist_inf_to_complement(x))

    def dist_inf_to_set(self, x) -> float:
        # lower bound (exact when one constraint is slack); errs on the
        # inclusive side, which keeps exterior grids supersets
        return max(self.inner.dist_inf_to_set(x), self.ball.dist_inf_to_set(x))


def cubic_open_set(height: int, basis) -> CubicSet:
    """Glued interior of the closed cubes indexed by `basis` at `height`."""
    return CubicSet(height=height, basis=tuple(tuple(k) for k in basis))


def domain_to_json(domain) -> str:
    return canonical_json({"d": domain.d, "shape": _shape_obj(domain)})


def _shape_obj(domain):
    if isinstance(domain, Ball):
        return {"ball": {"center": list(domain.center), "radius": domain.radius}}
    if isinstance(domain, Box):
        return {"box": {"lo": list(domain.lo), "hi": list(domain.hi)}}
    if isinstance(domain, CubicSet):
        return {"cubic": {"height": domain.height, "basis": [list(k) for k in domain.basis]}}
    if isinstance(domain, Intersection):
        return {"intersect_ball": {"inner": _shape_obj(domain.inner), "radius": domain.ball.radius,
                                   "center": list(domain.ball.center)}}
    raise TypeError(f"not a domain: {domain!r}")


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
    """Lattice ``sqrt(d/n) Z^d``; `refine` divides the spacing by 3."""

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

    def refine(self, levels: int = 1) -> "GridSpec":
        if levels < 0:
            raise ValueError("levels must be nonnegative")
        return GridSpec(d=self.d, n=self.n * 9**levels)

    @classmethod
    def level_sequence(cls, d: int, base: int, count: int) -> list["GridSpec"]:
        return [cls(d=d, n=base * 9**k) for k in range(count)]


def _candidate_indices(domain, grid: GridSpec, pad: float = 0.0) -> np.ndarray:
    lo, hi = domain.bbox()
    h = grid.h
    lo_idx = np.floor((lo - pad) / h).astype(np.int64)
    hi_idx = np.ceil((hi + pad) / h).astype(np.int64)
    axes = [np.arange(a, b + 1) for a, b in zip(lo_idx, hi_idx)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_points(domain, grid: GridSpec) -> LatticeSet:
    """Integer points whose scaled positions lie strictly inside the domain.

    Boundary points are excluded (open-set membership).  An empty result
    is reported but not fatal.
    """
    if domain.d != grid.d:
        raise ValueError("domain and grid dimensions differ")
    cand = _candidate_indices(domain, grid)
    keep = domain.contains_many(cand * grid.h)
    pts = cand[keep]
    if len(pts) == 0:
        logger.warning("grid has no points inside the domain at n=%d", grid.n)
    return LatticeSet(d=grid.d, points=pts.reshape(-1, grid.d))


def interior_grid(domain, grid: GridSpec) -> LatticeSet:
    """Points further than one spacing from the complement (in sup norm)."""
    if domain.d != grid.d:
        raise ValueError("domain and grid dimensions differ")
    h = grid.h
    cand = _candidate_indices(domain, grid)
    keep = [domain.dist_inf_to_complement(p) > h for p in cand * h]
    return LatticeSet(d=grid.d, points=cand[np.asarray(keep, dtype=bool)].reshape(-1, grid.d))


def exterior_grid(domain, grid: GridSpec) -> LatticeSet:
    """Points within one spacing of the domain (in sup norm)."""
    if domain.d != grid.d:
        raise ValueError("domain and grid dimensions differ")
    h = grid.h
    cand = _candidate_indices(domain, grid, pad=2.0 * h)
    keep = [domain.dist_inf_to_set(p) < h for p in cand * h]
    return LatticeSet(d=grid.d, points=cand[np.asarray(keep, dtype=bool)].reshape(-1, grid.d))


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
