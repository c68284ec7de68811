"""Discretized Green operators on grid-approximated domains.

The operator matrix over a grid set carries entries

    h^d * (scale * g_E(z_i, z_j))^beta    with scale = n^(d/2-1) / d^(d/2)

(or ``h^d exp(alpha * scale * g_E)`` in the plane), where ``g_E`` is the
killed Green matrix of the integer grid set and ``h = sqrt(d/n)``.  Applying
the matrix row at the rounded grid point to shifted samples of ``F``
discretizes the continuum kernel integral; the grid functional
``sum_x (op F(x) - 1)^+ F(x) h^d`` is nonnegative because the entry matrix
is a symmetric potential.  With the whole-space Green function in place of
``g_E`` the same weights give the free-space operator, which is never
formed: its value at ``x`` is one sum streamed over the support of ``F``.

Pointwise disk kernel values are not rounded: the lattice is shifted so
that ``x`` is a grid point, the walk's start, and the killed Green column
at ``x`` is bilinearly interpolated at ``y``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    Ball,
    GridSpec,
    _bbox_blocks,
    _pointwise,
    grid_points,
    nonempty_grid_points,
    round_to_grid,
    split_ties,
)
from .kernels import ball_integral_route, ball_kernel_integral, check_transform, disk_green_2d, transformed
from .lattice import (
    LatticeSet,
    killed_green_entries,
    killed_green_matrix,
    lattice_kernel,
    whole_space_green,  # noqa: F401  unused; perfbench/selftest.py and tests pin this binding
)
from .potential import cmp_inequality

__all__ = [
    "DiscreteOperator",
    "ConvergenceReport",
    "BallIndicator",
    "assemble",
    "apply_operator",
    "free_operator_value",
    "cmp_functional",
    "converge",
]

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
    """Killed grid Green operator: its grid, index set and entry matrix."""

    grid: GridSpec
    lattice: LatticeSet
    matrix: np.ndarray


def _weighted(green: np.ndarray, grid: GridSpec, kind: str, param: float) -> np.ndarray:
    """Operator entries ``h^d T(scale * green)`` of Green values."""
    return grid.h**grid.d * transformed(kind, param, green * grid.green_scale)


def assemble(grid: GridSpec, transform, domain) -> DiscreteOperator:
    """Killed operator over ``grid_points(domain, grid)``, which must be nonempty.

    `transform` is ``("power", beta)`` with ``beta >= 1`` or ``("exp",
    alpha)`` with ``0 < alpha < 2*pi`` (plane only).  The operator holds its
    m x m matrix: a killed Green matrix past `lattice.MAX_BYTES` raises
    ResourceLimitError, but the weighted copy of it is not counted.
    """
    kind, param = check_transform(*transform, grid.d, False)
    lattice = nonempty_grid_points(domain, grid)
    entries = _weighted(killed_green_matrix(lattice).entries, grid, kind, param)
    return DiscreteOperator(grid=grid, lattice=lattice, matrix=entries)


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
    return float(op.matrix[op.lattice.index_of(z)] @ samples)


def free_operator_value(grid: GridSpec, transform, f, x) -> float:
    """Free-space operator value ``sum_k h^d T(scale g(k - z)) F(hk + shift)``
    at ``x``, with ``z = round_to_grid(x)`` and ``shift = x - hz``.

    `f` is a callable on ``(k, d)`` arrays of points with a ``bbox()``
    outside of which it vanishes, such as a `BallIndicator`.  The lattice
    points of that box, padded by two spacings as the exterior grid pads,
    are walked in blocks; each block's products where ``F != 0`` are summed
    by ``np.sum``, and the block sums are added in order.  Nothing of size
    beyond one block is held, so no point cap applies.  The transform must
    lie in the free-space range: ``d >= 3`` and ``1 <= beta < d/(d-2)``.
    """
    kind, param = check_transform(*transform, grid.d, True)
    z = round_to_grid(x, grid)
    shift = np.asarray(x, dtype=float) - grid.h * z
    total = 0.0
    for k in _bbox_blocks(f, grid, pad=2.0 * grid.h):
        samples = _eval_on_points(f, k * grid.h + shift)
        support = samples != 0
        weights = _weighted(lattice_kernel(grid.d, k[support] - z), grid, kind, param)
        total += float(np.sum(weights * samples[support]))
    return total


def _grid_values(op: DiscreteOperator, f) -> np.ndarray:
    if isinstance(f, np.ndarray):
        if f.shape != (len(op.lattice),):
            raise ValueError("grid function has the wrong length")
        return np.asarray(f, dtype=float)
    return _eval_on_points(f, op.lattice.points * op.grid.h)


def cmp_functional(op: DiscreteOperator, f) -> float:
    """Discrete CMP functional ``h^d sum_x (opF(x) - 1)^+ F(x)`` of a killed operator.

    `f` may be a callable on continuum points or a vector over the grid.
    Nonnegative whenever the entry matrix is a potential, which holds for
    every operator assembled from true walk Green data.
    """
    return cmp_inequality(op.matrix, _grid_values(op, f)) * op.grid.h**op.grid.d


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
    return transformed(*transform, green * grid.green_scale)


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
    if domain is None and isinstance(target, BallIndicator):
        d = len(np.asarray(x, dtype=float))
        _, param = check_transform(*transform, d, True)
        reference = ball_kernel_integral(d, param, x, target.center, target.radius)
        a = float(np.linalg.norm(np.asarray(x, dtype=float) - target.center))
        provenance = f"ball kernel integral, {ball_integral_route(a, target.radius)}"

        def value(grid):
            return free_operator_value(grid, transform, target, x)
    elif is_origin_disk(domain) and not isinstance(target, BallIndicator):
        d = 2
        kind, param = check_transform(*transform, d, False)
        if np.array_equal(np.asarray(x, dtype=float), np.asarray(target, dtype=float)):
            raise ValueError("x and y coincide, at the pole of the disk kernel")
        reference = transformed(kind, param, disk_green_2d(domain.radius, x, target))
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
