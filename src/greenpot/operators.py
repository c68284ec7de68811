"""Discretized Green operators on grid-approximated domains.

The operator matrix over a grid set carries entries

    h^d * (scale * g_E(z_i, z_j))^beta    with scale = n^(d/2-1) / d^(d/2)

(or ``h^d exp(alpha * scale * g_E)`` in the plane), where ``g_E`` is the
killed Green matrix of the integer grid set and ``h = sqrt(d/n)``.  With
the whole-space Green function in place of ``g_E`` the same weights give
the free-space operator.  Applying the matrix row at the rounded grid
point to shifted samples of ``F`` discretizes the continuum kernel
integral; the grid functional ``sum_x (op F(x) - 1)^+ F(x) h^d`` is
nonnegative because the entry matrix is a symmetric potential.

Pointwise disk kernel values are not rounded: the lattice is shifted so
that ``x`` is a grid point, the walk's start, and the killed Green column
at ``x`` is bilinearly interpolated at ``y``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .domains import (
    Ball,
    GridSpec,
    _pointwise,
    exterior_grid,
    grid_points,
    nonempty_grid_points,
    round_to_grid,
    split_ties,
)
from .kernels import KernelSpec, ball_kernel_integral, check_transform
from .lattice import (
    LatticeSet,
    killed_green_entries,
    killed_green_matrix,
    whole_space_green,  # noqa: F401  unused; perfbench/selftest.py and tests pin this binding
    whole_space_green_array,
)

__all__ = [
    "DiscreteOperator",
    "ConvergenceReport",
    "BallIndicator",
    "ResourceLimitError",
    "assemble",
    "apply_operator",
    "cmp_functional",
    "converge",
]

# points of a killed operator, whose m x m matrix is formed
MAX_POINTS = 20000


class ResourceLimitError(RuntimeError):
    """A request exceeded the configured storage limits."""


class BallIndicator(Ball):
    """Indicator function of an open Euclidean ball."""

    @_pointwise
    def __call__(self, pts):
        # unlike `Ball.contains`, a point on the sphere still falls on either
        # side by the rounding of this sum; the operator tests pin the sums it
        # gives, and 0, 1/2 or 1 on the sphere each breaks one of them
        delta = pts - np.asarray(self.center)
        return (np.einsum("ij,ij->i", delta, delta) < self.radius**2).astype(float)


def is_origin_disk(domain) -> bool:
    """Whether `domain` is a planar disk about 0, whose killed kernel has a closed form."""
    return isinstance(domain, Ball) and domain.d == 2 and not any(domain.center)


@dataclass(frozen=True)
class DiscreteOperator:
    """Grid Green operator: index set, entry transform and, if killed, its matrix.

    A killed operator holds its entry matrix.  A free-space operator
    (`matrix` None) holds no entries: row ``i`` is formed in O(m) from the
    whole-space Green values at the differences to point ``i``.
    """

    grid: GridSpec
    lattice: LatticeSet
    transform: tuple
    matrix: np.ndarray | None = None

    def row(self, i: int) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix[i]
        pts = self.lattice.points
        return _weighted(whole_space_green_array(self.grid.d, pts - pts[i]), self.grid,
                         *self.transform)


def check_points(m: int) -> None:
    if m > MAX_POINTS:
        raise ResourceLimitError(f"{m} grid points exceed the cap of {MAX_POINTS}")


def _weighted(green: np.ndarray, grid: GridSpec, kind: str, param: float) -> np.ndarray:
    """Operator entries ``h^d T(scale * green)`` of Green values."""
    scaled = green * grid.green_scale
    weight = grid.h**grid.d
    if kind == "power":
        return weight * scaled**param
    return weight * np.exp(param * scaled)


def assemble(
    grid: GridSpec,
    transform,
    domain=None,
    free_region=None,
    include_points=(),
) -> DiscreteOperator:
    """Build the operator over a domain grid or a free-space window.

    Parameters
    ----------
    grid : GridSpec
    transform : tuple
        ``("power", beta)`` with ``beta >= 1`` or ``("exp", alpha)`` with
        ``0 < alpha < 2*pi`` (plane only).  Free-space powers must stay
        below ``d/(d-2)``.
    domain : optional
        Killed operator over ``grid_points(domain, grid)``; must produce a
        nonempty set.
    free_region : optional
        Free-space operator (``d >= 3``) over the exterior grid of the
        region, which covers every support point of functions living in
        the region even after sub-spacing shifts.
    include_points : iterable, optional
        Extra continuum points whose rounded grid points join the index
        set of a free-space operator, so rows at query points away from
        the support exist.

    A killed operator over more than `MAX_POINTS` points raises
    ResourceLimitError.  A free-space operator forms one row at a time and
    takes no cap.
    """
    if (domain is None) == (free_region is None):
        raise ValueError("exactly one of domain and free_region is required")
    free = domain is None
    kind, param = check_transform(*transform, grid.d, free)
    if free:
        lattice = exterior_grid(free_region, grid)
        extra = [round_to_grid(p, grid) for p in include_points]
        extra = [z for z in extra if z not in lattice]
        if extra:
            lattice = LatticeSet.from_points(grid.d, np.vstack([lattice.points, extra]))
    else:
        if include_points:
            raise ValueError("include_points applies to free-space operators only")
        lattice = nonempty_grid_points(domain, grid)
    if free:
        return DiscreteOperator(grid=grid, lattice=lattice, transform=(kind, param))
    check_points(len(lattice))
    entries = _weighted(killed_green_matrix(lattice).entries, grid, kind, param)
    return DiscreteOperator(grid=grid, lattice=lattice, transform=(kind, param), matrix=entries)


def _eval_on_points(f, pts: np.ndarray) -> np.ndarray:
    if isinstance(f, np.ndarray):
        raise TypeError("expected a callable; got an array")
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError(f"f maps a ({len(pts)}, d) array of points to shape {vals.shape}, "
                         f"not to {len(pts)} values")
    return vals


def apply_operator(op: DiscreteOperator, f, x) -> float:
    """Operator value at ``x``: the matrix row at the rounded grid point
    applied to ``F`` sampled on the grid shifted by the rounding offset."""
    z = round_to_grid(x, op.grid)
    if z not in op.lattice:
        raise ValueError("x rounds to a grid point outside the operator's index set")
    h = op.grid.h
    shift = np.asarray(x, dtype=float) - h * z
    samples = _eval_on_points(f, op.lattice.points * h + shift)
    return float(op.row(op.lattice.index_of(z)) @ samples)


def _grid_values(op: DiscreteOperator, f) -> np.ndarray:
    if isinstance(f, np.ndarray):
        if f.shape != (len(op.lattice),):
            raise ValueError("grid function has the wrong length")
        return np.asarray(f, dtype=float)
    return _eval_on_points(f, op.lattice.points * op.grid.h)


def cmp_functional(op: DiscreteOperator, f) -> float:
    """Discrete CMP functional ``h^d sum_x (opF(x) - 1)^+ F(x)``.

    `f` may be a callable on continuum points or a vector over the grid.
    Nonnegative whenever the entry matrix is a potential, which holds for
    every operator assembled from true walk Green data.  A free-space
    operator forms no matrix and is a ValueError.
    """
    if op.matrix is None:
        raise ValueError("the CMP functional needs a killed operator's matrix")
    values = _grid_values(op, f)
    excess = np.clip(op.matrix @ values - 1.0, 0.0, None)
    return float((excess @ values) * op.grid.h**op.grid.d)


@dataclass(frozen=True)
class ConvergenceReport:
    """Discrete values along a refinement sequence against a reference."""

    d: int
    levels: tuple  # grid sizes n
    values: tuple
    reference: float
    provenance: str

    def __post_init__(self):
        if len(self.levels) != len(self.values) or len(self.levels) < 1:
            raise ValueError("levels and values must align and be nonempty")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must increase strictly")

    @property
    def abs_errors(self) -> tuple:
        return tuple(abs(v - self.reference) for v in self.values)

    @property
    def rel_errors(self) -> tuple:
        ref = abs(self.reference)
        return tuple(e / ref for e in self.abs_errors)

    @property
    def rates(self) -> tuple:
        """Log-ratio of successive errors per log-refinement (None on first level)."""
        errs = self.abs_errors
        out = [None]
        for k in range(1, len(errs)):
            if errs[k] > 0 and errs[k - 1] > 0:
                out.append(math.log(errs[k - 1] / errs[k]) / math.log(self.levels[k] / self.levels[k - 1]))
            else:
                out.append(None)
        return tuple(out)


def _split_cells(t: np.ndarray):
    """Integer cells and in-cell fractions of `t`; a tie snaps to its
    cell corner with fraction 0."""
    cell, tie = split_ties(t)
    return cell, np.where(tie, 0.0, t - cell)


def _disk_point_value(domain, transform, x, y, grid: GridSpec) -> float:
    """Transformed, scaled killed Green value at continuum points (x, y).

    The lattice is shifted so that `x` is one of its points, the walk's
    start; `y` is read by bilinear interpolation over the corners of its
    cell, where corners outside the set carry the value 0.
    """
    h = grid.h
    kx, phi = _split_cells(np.asarray(x, dtype=float) / h)
    shifted = Ball(center=tuple(np.asarray(domain.center) - h * phi), radius=domain.radius)
    lattice = grid_points(shifted, grid)
    if kx not in lattice:
        raise ValueError("x lies outside the domain grid")
    ky, psi = _split_cells(np.asarray(y, dtype=float) / h - phi)
    corners, weights = [], []
    for bits in itertools.product((0, 1), repeat=grid.d):
        w = math.prod(f if b else 1.0 - f for b, f in zip(bits, psi))
        if w > 0 and ky + bits in lattice:
            corners.append(ky + bits)
            weights.append(w)
    green = float(np.dot(weights, killed_green_entries(lattice, kx, corners)))
    value = green * grid.green_scale
    kind, param = transform
    return value**param if kind == "power" else math.exp(param * value)


def converge(domain, transform, x, target, levels: int, base: int) -> ConvergenceReport:
    """Refinement study of a discrete kernel value or operator value.

    Parameters
    ----------
    domain
        A planar disk about 0 for pointwise killed kernel values, or
        ``None`` for the free-space operator.
    transform : tuple
        ``("power", beta)`` or ``("exp", alpha)``.
    x : array_like
        Evaluation point.  For pointwise kernel values it is the walk's
        start, a point of a lattice shifted by the fractional part of
        ``x/h``; for operator values it is rounded to the grid.
    target
        A point ``y`` for pointwise kernel values on the disk, read by
        bilinear interpolation over the shifted lattice, or a
        `BallIndicator` for free-space operator values; the continuum
        reference is the transformed disk kernel or the ball kernel
        integral.
    levels : int
        Number of grids ``n = base * 9^k``, ``k = 0 .. levels-1``.
    base : int
        Coarsest grid size.
    """
    if levels < 1 or base < 1:
        raise ValueError("levels and base must be positive")
    kind, param = transform
    if domain is None and isinstance(target, BallIndicator):
        d = len(np.asarray(x, dtype=float))
        spec = KernelSpec(d=d, base="free", transform=kind, param=param)
        reference = ball_kernel_integral(spec, x, target.center, target.radius)
        provenance = "ball kernel integral, adaptive quadrature"

        def value(grid):
            op = assemble(grid, transform, free_region=target, include_points=[x])
            return apply_operator(op, target, x)
    elif is_origin_disk(domain) and not isinstance(target, BallIndicator):
        d = 2
        spec = KernelSpec(d=2, base="disk", transform=kind, param=param, radius=domain.radius)
        reference = kernels.kernel_eval(spec, x, target)
        provenance = "disk kernel, reflected-point formula"

        def value(grid):
            return _disk_point_value(domain, transform, x, target, grid)
    else:
        raise ValueError("references exist for free-space operator values on a BallIndicator "
                         "and pointwise kernel values on a planar disk about 0")
    grids = GridSpec.level_sequence(d, base, levels)
    return ConvergenceReport(d=d, levels=tuple(g.n for g in grids),
                             values=tuple(value(g) for g in grids),
                             reference=reference, provenance=provenance)
