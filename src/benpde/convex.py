"""Radial convex densities and their Legendre-Fenchel transforms.

The dissipation densities used throughout the package are radial power laws

    psi(xi) = (a/q) |xi|^q + (eps/2) |xi|^2,      a > 0, q >= 2, eps >= 0,

so every operation on them is a function of the magnitude ``s = |xi|``.
This module is that radial core, vectorised over arrays of magnitudes:
:func:`radial_value` is psi, :func:`radial_coefficient` the factor of the
gradient ``Dpsi(xi) = (a |xi|^{q-2} + eps) xi``, and :func:`solve_radius`
gives the Legendre-Fenchel conjugate

    psi*(y) = sup_z { <z, y> - psi(z) } = r |y| - psi(r),

with maximiser ``z* = Dpsi^{-1}(y) = (r/|y|) y``, through the radius ``r``
that solves the scalar monotone equation

    a r^{q-1} + eps r = |y|.

It is solved in closed form for ``q = 2`` and ``q = 4`` and otherwise by a
monotone Newton iteration on ``r`` divided by an upper bound of the root, to
within a few ulps, which the Fenchel-Young based certificates downstream rely
on.  Its one failure is a root beyond the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConjugateSolveError

__all__ = [
    "PowerDensity",
    "radial_value",
    "radial_coefficient",
    "solve_radius",
]

#: Tolerance of the radial Newton solve on its step, relative to the bound
#: of the root it is scaled by; two extra polishing steps after first
#: satisfaction push the root to machine accuracy.
NEWTON_TOL = 1e-13

#: Hard cap on Newton iterations for the radial solve.
NEWTON_MAX_ITERS = 200


@dataclass(frozen=True)
class PowerDensity:
    """Radial density ``(a/q)|xi|^q + (eps/2)|xi|^2``.

    Parameters
    ----------
    coefficient : float
        Leading coefficient ``a``; must be positive.
    exponent : float
        Power ``q``; must satisfy ``q >= 2``.
    regularizer : float, optional
        Quadratic coefficient ``eps``; must be nonnegative.  A positive
        value makes the gradient strongly monotone near the origin, which
        the assembled dual solves require when ``q > 2``.
    """

    coefficient: float
    exponent: float
    regularizer: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.coefficient) or self.coefficient <= 0.0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")
        if not np.isfinite(self.exponent) or self.exponent < 2.0:
            raise ValueError(f"exponent must be >= 2, got {self.exponent}")
        if not np.isfinite(self.regularizer) or self.regularizer < 0.0:
            raise ValueError(f"regularizer must be >= 0, got {self.regularizer}")


def radial_value(density: PowerDensity, s):
    """psi as a function of the magnitude ``s = |xi| >= 0``."""
    s = np.asarray(s, dtype=float)
    a, q, eps = density.coefficient, density.exponent, density.regularizer
    return (a / q) * s**q + 0.5 * eps * s**2


def radial_coefficient(density: PowerDensity, s, curvature: bool = False):
    """Radial coefficient ``a s^{q-2} + eps`` at magnitudes ``s >= 0``.

    It is the factor of the gradient law ``Dpsi(xi) = c(|xi|) xi``.  With
    ``curvature`` it is ``a (q-1) s^{q-2} + eps`` instead, the derivative of
    the slope ``a s^{q-1} + eps s`` and the second derivative of psi along
    ``xi``.  Both read ``a + eps`` everywhere when ``q = 2``.
    """
    s = np.asarray(s, dtype=float)
    a, q, eps = density.coefficient, density.exponent, density.regularizer
    if q == 2.0:
        return np.full_like(s, a + eps)
    k = a * (q - 1.0) if curvature else a
    return k * s ** (q - 2.0) + eps


def _cubic_radius(a: float, eps: float, s: np.ndarray) -> np.ndarray:
    """Root of ``a r^3 + eps r = s`` (``s >= 0``) by Cardano plus one Newton
    polish.

    With ``Q = s/a`` and ``p = eps/(3a)`` the root is ``u - v`` where
    ``u^3 = Q/2 + sqrt(Q^2/4 + p^3)`` and ``uv = p``.  It is evaluated as
    ``Q / (u^2 + uv + v^2)``, which has no cancellation when ``p`` is small
    against ``Q``; ``u = 0`` only when ``s = eps = 0``.
    """
    Q = s / a
    p = eps / (3.0 * a)
    u = np.cbrt(0.5 * Q + np.hypot(0.5 * Q, p**1.5))
    with np.errstate(divide="ignore", invalid="ignore"):
        v = p / u
        r = np.where(u > 0.0, Q / (u * u + p + v * v), 0.0)
        slope = 3.0 * a * r * r + eps
        return r - np.where(slope > 0.0, (a * r**3 + eps * r - s) / slope, 0.0)


def solve_radius(density: PowerDensity, s):
    """Solve ``a r^{q-1} + eps r = s`` for ``r >= 0``, elementwise.

    ``q = 2`` is linear and ``q = 4`` a cubic, both solved in closed form.
    Other exponents use Newton iteration on ``rho = r/R``, where ``R`` is
    the smaller of ``R_a = s^{1/(q-1)} a^{-1/(q-1)}`` and ``s/eps``, the
    roots without one of the two terms.  Divided by ``s`` the equation reads
    ``c1 rho^{q-1} + c2 rho = 1``, with ``c1 = (R/R_a)^{q-1} <= 1`` and
    ``c2 = eps R/s <= 1`` and one of them 1.  Its left side is convex and
    increasing, so the root lies in ``[1/2, 1]`` and Newton from
    ``rho = 1`` falls onto it monotonically.  Neither coefficient overflows,
    and ``c1`` is corrected for the rounding of ``1/(q-1)``, which keeps
    ``r`` within a few ulps of the root.  Each entry stops on its own, two
    steps after its Newton step in ``rho`` first meets :data:`NEWTON_TOL`,
    and gets the ``r`` of a solve of it alone.  An entry fails where ``R``
    overflows, so that the root exceeds half the float maximum, where ``s``
    is NaN, or where its step still misses :data:`NEWTON_TOL` after
    :data:`NEWTON_MAX_ITERS` steps.  Returns ``(r, iterations, failures)``:
    the slowest entry's steps, and each failed entry's
    :class:`ConjugateSolveError` by flat index (``r`` is NaN there).
    """
    s = np.asarray(s, dtype=float)
    scalar_in = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s < 0.0):
        raise ValueError("magnitudes must be nonnegative")
    a, q, eps = density.coefficient, density.exponent, density.regularizer

    if q == 2.0:
        r = s / (a + eps)
        return (float(r[0]) if scalar_in else r), 0, {}
    if q == 4.0:
        r = _cubic_radius(a, eps, s)
        return (float(r[0]) if scalar_in else r), 1, {}

    # c1 = a R^p/s, corrected for the rounding of 1/p (e = p fl(1/p) - 1),
    # and c2 = eps R/s.  Where R is 0 (s = 0), inf (a root beyond the float
    # range) or NaN, c1 = 1 and c2 = 0 keep rho at 1.
    p = q - 1.0
    e = float(Fraction(p) * Fraction(1.0 / p) - 1)
    with np.errstate(all="ignore"):
        root, a_root = s ** (1.0 / p), a ** (1.0 / p)
        R = np.fmin(root / a_root, s / eps)
        live = (R > 0.0) & (R < np.inf)
        c1 = np.where(live, (R * a_root / root) ** p * s**e * a**-e, 1.0)
        c2 = np.where(live, eps * R / s, 0.0)
    rho = np.ones_like(s)
    # Number of iterations each entry still needs after first hitting the
    # tolerance; two polish steps sharpen the root to machine precision.
    polish = np.full(s.shape, 2)
    for it in range(NEWTON_MAX_ITERS + 1):
        f = c1 * rho**p + c2 * rho - 1.0
        fp = p * c1 * rho ** (p - 1.0) + c2
        if it == NEWTON_MAX_ITERS:
            break
        polish = np.where(np.abs(f) <= NEWTON_TOL * fp, polish - 1, 2)
        active = polish >= 0
        if not np.any(active):
            break
        rho = np.where(active, rho - f / fp, rho)
    r = rho * R
    failed = ~np.isfinite(r) | ~(np.abs(f) <= NEWTON_TOL * fp)
    failures = {int(i): ConjugateSolveError(
        f"radial conjugate solve failed to converge for |y|={s.flat[i]:.6g}",
        residual=abs(f.flat[i]) if np.isfinite(r.flat[i]) else np.inf,
        iterations=it) for i in np.flatnonzero(failed)}
    r[failed] = np.nan
    return (float(r[0]) if scalar_in else r), it, failures
