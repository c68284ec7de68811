"""Continuum Green kernels and their entrywise transforms.

Free-space kernel of Brownian motion in dimension ``d >= 3``, the killed
kernel of a planar disk, the one validator of the paper's transform range
(`check_transform`), the normalization constants of the equivalent Riesz
representation, and integrals of free-space kernel powers over Euclidean
balls, in closed form where one exists and by adaptive quadrature otherwise.
scipy is imported inside the functions that call it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "green_constant",
    "sphere_surface",
    "free_green",
    "disk_green_2d",
    "riesz_params",
    "ball_kernel_integral",
    "ball_integral_route",
    "volume_bound",
    "check_transform",
    "transformed",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def green_constant(d: int) -> float:
    """Normalization ``Gamma(d/2 - 1) / (2 pi^(d/2))`` of the free-space kernel."""
    if d < 3:
        raise ValueError("free-space kernel requires d >= 3")
    from scipy.special import gamma  # not math.gamma: they differ by an ulp at 1.5

    return gamma(d / 2.0 - 1.0) / (2.0 * math.pi ** (d / 2.0))


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    if d < 1:
        raise ValueError("d must be positive")
    from scipy.special import gamma

    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)


def _as_point(x, d: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (d,):
        raise ValueError(f"expected a point of dimension {d}, got shape {p.shape}")
    return p


def free_green(d: int, x, y) -> float:
    """Free-space kernel ``C(d) |x - y|^(2-d)`` for ``d >= 3``.

    Returns ``inf`` on the diagonal, and where ``|x - y|^(2-d)`` overflows.
    """
    px, py = _as_point(x, d), _as_point(y, d)
    r = float(np.linalg.norm(px - py))
    if r == 0.0:
        return math.inf
    try:
        return green_constant(d) * r ** (2 - d)
    except OverflowError:
        return math.inf


def disk_green_2d(radius: float, x, y) -> float:
    """Killed Brownian kernel of the open disk of given radius about 0.

    Uses the reflected-point formula; the pole at ``x = 0`` is replaced by
    its analytic limit ``(1/pi) log(radius / |y|)``.  Both arguments must
    lie strictly inside the disk.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    px, py = _as_point(x, 2), _as_point(y, 2)
    # hypot rescales, so norms below 1e-154 keep full precision where the
    # squared entries of np.linalg.norm would go subnormal
    rx, ry = math.hypot(*px), math.hypot(*py)
    if rx >= radius or ry >= radius:
        raise ValueError("both points must lie strictly inside the disk")
    if np.array_equal(px, py):
        return math.inf
    # exchange so the analytic x=0 limit also covers y=0
    if rx == 0.0:
        px, py, rx, ry = py, px, ry, rx
    if ry == 0.0:
        return math.log(radius / rx) / math.pi
    # |y| |x - y*| with y* = R^2 y / |y|^2, folded so tiny |y| cannot overflow;
    # a subnormal |y| keeps too few digits to divide by, so the direction of
    # y is taken after an exact power-of-two rescaling
    q = py * 2.0**1000 if ry < 2.0**-1000 else py
    scaled = ry * px - radius**2 * (q / math.hypot(*q))
    return (
        -math.log(math.hypot(*(px - py)))
        + math.log(math.hypot(*scaled))
        - math.log(radius)
    ) / math.pi


def check_transform(kind: str, param: float, d: int, free: bool) -> tuple:
    """Validate a transform against the paper's range; returns ``(kind, float(param))``.

    ``param`` must be finite.  Powers need ``param >= 1``, and on the free-space
    kernel (``free``, which needs ``d >= 3``) also ``param < d/(d-2)``.  The
    exponential is defined in the plane only, with ``0 < param < 2*pi``.
    """
    if free and d < 3:
        raise ValueError("free-space kernels require d >= 3")
    if kind not in ("power", "exp"):
        raise ValueError(f"unknown transform {kind!r}")
    if not math.isfinite(param):
        raise ValueError(f"{kind} transform requires a finite param")
    if kind == "power":
        if not param >= 1:
            raise ValueError("power transform requires param >= 1")
        if free and not param < d / (d - 2):
            raise ValueError("power transform of the free-space kernel requires param < d/(d-2)")
    elif d != 2:
        raise ValueError("exp transform is only defined in the plane")
    elif not 0 < param < 2 * math.pi:
        raise ValueError("exp transform requires 0 < param < 2*pi")
    return kind, float(param)


def transformed(kind: str, param: float, u):
    """``u**param`` or ``exp(param u)`` of a kernel value or array ``u >= 0``; a numerical
    failure (`numpy.linalg.LinAlgError`) if it takes a positive entry to 0 or past the
    largest float.  Only the extremes are checked, before the array: the largest entry
    bounds the rest from above, and for a power the smallest positive one from below."""
    top = float(np.max(u, initial=-math.inf))
    low = float(np.min(u, where=np.greater(u, 0), initial=top)) if kind == "power" else top
    for value in (top, low):
        try:
            image = value**param if kind == "power" else math.exp(param * value)
        except OverflowError:
            image = math.inf
        if value > 0 and not 0 < image < math.inf:
            raise np.linalg.LinAlgError(f"{kind}:{param:g} takes the kernel value "
                                        f"{value:.6g} out of the float range")
    if np.ndim(u) == 0:
        return image  # a single value is its own smallest positive entry
    return u**param if kind == "power" else np.exp(param * u)


def riesz_params(d: int, beta: float) -> tuple:
    """Riesz index and subordination coefficient ``(alpha, coefficient)``
    of the beta-power kernel.

    The beta-th power of the free-space kernel in R^d is a constant
    multiple of the Riesz kernel of index ``alpha = d - beta (d - 2)``;
    the coefficient is the multiple in front of the expected occupation
    of the subordinated Brownian motion.
    """
    check_transform("power", beta, d, free=True)
    from scipy.special import gamma

    alpha = d - beta * (d - 2)
    coefficient = (
        green_constant(d) ** beta
        * gamma(alpha / 2.0)
        * 2 ** (alpha / 2.0)
        * math.pi ** (d / 2.0)
        / gamma((d - alpha) / 2.0)
    )
    return alpha, coefficient


def _chord(a: float, r: float, mu: float):
    """Entry/exit parameters of the ray ``t -> x + t w`` through a sphere.

    ``a`` is the distance from ``x`` to the center, ``r`` the sphere radius
    and ``mu`` the cosine of the angle between ``w`` and the outward
    direction ``x - center``.  Returns ``(t0, t1)`` with ``t0 <= t1``; the
    chord is empty when ``t1 <= 0``.  The discriminant is formed as
    ``(r - a)(r + a) + (a mu)^2`` so that it keeps its digits near ``a = r``.
    """
    disc = (r - a) * (r + a) + (a * mu) ** 2
    if disc <= 0.0:
        return 0.0, 0.0
    root = math.sqrt(disc)
    return -a * mu - root, -a * mu + root


def _polar_quadrature(d: int, s: float, a: float, r: float, tol: float) -> float:
    """``_ball_power_integral`` by adaptive quadrature over the polar angle.

    Exact radial integration along rays from ``x`` absorbs the singularity;
    the remaining polar integral is smooth except for a kink where rays
    become tangent to the sphere.  ``a > 0`` and ``p = d - s > 0``.
    """
    from scipy import integrate

    p = d - s

    def polar(theta: float) -> float:
        t0, t1 = _chord(a, r, math.cos(theta))
        if t1 <= 0.0:
            return 0.0
        t0 = max(t0, 0.0)
        return (t1**p - t0**p) / p * math.sin(theta) ** (d - 2)

    pts = None
    if a > r:
        pts = [math.acos(max(-1.0, -math.sqrt(1.0 - (r / a) ** 2)))]
    val, err = integrate.quad(polar, 0.0, math.pi, points=pts, epsabs=1e-300, epsrel=tol, limit=200)
    val *= sphere_surface(d - 1)
    if err * sphere_surface(d - 1) > 10 * tol * max(abs(val), 1e-300):
        raise QuadratureError("polar quadrature did not converge")
    return val


def ball_integral_route(a: float, r: float) -> str:
    """How `ball_kernel_integral` evaluates at distance `a` from the center of a radius-`r` ball."""
    return "adaptive quadrature" if 0.0 < a < 2.0 * r else "closed form"


def _ball_power_integral(d: int, s: float, a: float, r: float, tol: float) -> float:
    """Integral of ``|x - y|^(-s)`` over a ball of radius r, |x - center| = a.

    Three routes:

    - ``a = 0``: ``S(d) r^p / p`` with ``p = d - s``.
    - ``a >= 2r``, any ``d``: averaging over spheres about the center gives
      ``|B_r| a^(-s) 2F1(s/2, (s-d)/2 + 1; d/2 + 1; r^2/a^2)``.  The
      argument is at most 1/4, and against 40-digit mpmath values the form
      is within 1e-15 relative up to ``a = 1e6 r``.  At ``s = d - 2`` the
      2F1 is 1 (Newton's theorem).  The tests check it against
      `_polar_quadrature` at ``tol=1e-11``.
    - ``0 < a < 2r``: `_polar_quadrature` to relative tolerance ``tol``;
      scipy.integrate is imported on this route only.
    """
    p = d - s
    if p <= 0:
        raise ValueError("kernel power is not integrable over the ball")
    if ball_integral_route(a, r) == "adaptive quadrature":
        return _polar_quadrature(d, s, a, r, tol)
    if a == 0.0:
        return sphere_surface(d) * r**p / p
    from scipy.special import hyp2f1

    volume = sphere_surface(d) * r**d / d
    return volume * a**-s * hyp2f1(s / 2.0, (s - d) / 2.0 + 1.0, d / 2.0 + 1.0, (r / a) ** 2)


def ball_kernel_integral(d: int, beta: float, x, center, r: float) -> float:
    """Integral of ``y -> free_green(d, x, y)**beta`` over ``B(center, r)``.

    `beta` must lie in the free-space range ``1 <= beta < d/(d-2)``,
    ``d >= 3``.  The source point `x` may lie inside, on, or outside the
    ball; `r` must be positive.  The integral is in closed form (within
    1e-15 relative) for a source at the center and for a source at
    distance at least ``2r`` from it; otherwise it is a polar quadrature
    to relative tolerance 1e-8.
    """
    _, beta = check_transform("power", beta, d, True)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    a = float(np.linalg.norm(_as_point(x, d) - _as_point(center, d)))
    return green_constant(d) ** beta * _ball_power_integral(d, beta * (d - 2), a, r, 1e-8)


def volume_bound(d: int, beta: float, diameter: float) -> float:
    """Closed-form bound on the beta-power kernel mass of a bounded set.

    Equals the integral of ``C(d)^beta |y|^(beta(2-d))`` over a ball whose
    radius is the diameter of the set:
    ``C(d)^beta S(d) R^(d - beta(d-2)) / (d - beta(d-2))``.
    """
    check_transform("power", beta, d, free=True)
    if diameter < 0:
        raise ValueError("diameter must be nonnegative")
    p = d - beta * (d - 2)
    return green_constant(d) ** beta * sphere_surface(d) * diameter**p / p
