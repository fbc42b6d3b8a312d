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
guarded Newton iteration (to :data:`NEWTON_TOL` in :data:`NEWTON_MAX_ITERS`
steps) with a bisection fallback, accurate to machine precision, which the
Fenchel-Young based certificates downstream rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConjugateSolveError

__all__ = [
    "PowerDensity",
    "radial_value",
    "radial_slope",
    "radial_coefficient",
    "solve_radius",
]

#: Residual tolerance of the radial Newton solve.  The residual is
#: measured relative to max(1, |y|); two extra polishing steps after first
#: satisfaction push the root to machine accuracy.
NEWTON_TOL = 1e-13

#: Hard cap on Newton/bisection iterations for the radial solve.
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


def radial_slope(density: PowerDensity, s):
    """d/ds of the radial profile: ``a s^{q-1} + eps s``."""
    s = np.asarray(s, dtype=float)
    a, q, eps = density.coefficient, density.exponent, density.regularizer
    return a * s ** (q - 1.0) + eps * s


def radial_coefficient(density: PowerDensity, s, curvature: bool = False):
    """Radial coefficient ``a s^{q-2} + eps`` at magnitudes ``s >= 0``.

    It is the factor of the gradient law ``Dpsi(xi) = c(|xi|) xi``.  With
    ``curvature`` it is ``a (q-1) s^{q-2} + eps`` instead, the derivative of
    :func:`radial_slope` and the second derivative of psi along ``xi``.  Both
    read ``a + eps`` everywhere when ``q = 2``.
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
    Other exponents use Newton iteration started from the upper end of the
    bracket ``[0, min(max(1, s)^{1/(q-1)} a^{-1/(q-1)} + s / max(eps, 1),
    2 (s/a)^{1/(q-1)} + 1)]``.  The root is at most ``(s/a)^{1/(q-1)}``, so
    the second end keeps ``r^{q-1}`` finite at large ``s``.  Since the
    profile is convex and increasing, Newton from above decreases
    monotonically onto the root, and a bisection step guards every update
    that would leave the bracket.  An entry whose bracket has shrunk to two
    adjacent floats is converged, at its lower end when ``r^{q-1}``
    overflows at the upper one.  Each entry stops on its own and gets the
    ``r`` of a solve of it alone; one still running after
    :data:`NEWTON_MAX_ITERS` steps fails unless it meets :data:`NEWTON_TOL`
    there.  Returns ``(r, iterations, failures)``: the slowest entry's
    steps, and each failed entry's :class:`ConjugateSolveError` by flat
    index (``r`` is NaN there).
    """
    s = np.asarray(s, dtype=float)
    scalar_in = s.ndim == 0
    s = np.atleast_1d(s).copy()
    if np.any(s < 0.0):
        raise ValueError("magnitudes must be nonnegative")
    a, q, eps = density.coefficient, density.exponent, density.regularizer

    if q == 2.0:
        r = s / (a + eps)
        return (float(r[0]) if scalar_in else r), 0, {}
    if q == 4.0:
        r = _cubic_radius(a, eps, s)
        return (float(r[0]) if scalar_in else r), 1, {}

    lo = np.zeros_like(s)
    with np.errstate(over="ignore"):  # the minimum keeps a finite end
        hi = np.maximum(1.0, s) ** (1.0 / (q - 1.0)) * a ** (-1.0 / (q - 1.0))
        hi = np.minimum(hi + s / max(eps, 1.0),
                        2.0 * (s / a) ** (1.0 / (q - 1.0)) + 1.0)
    r = hi.copy()
    r[s == 0.0] = 0.0

    target_tol = NEWTON_TOL * np.maximum(1.0, s)
    # Number of iterations each entry still needs after first hitting the
    # tolerance; two polish steps sharpen the root to machine precision.
    # Zero magnitudes are exact already and must not enter the bisection
    # guard (which would nudge them off the lower bracket end).
    polish = np.where(s == 0.0, -1, 2)
    for it in range(NEWTON_MAX_ITERS + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # r may be inf
            f = radial_slope(density, r) - s
        if it == NEWTON_MAX_ITERS:
            break
        done = (np.abs(f) <= target_tol) | (hi <= np.nextafter(lo, np.inf))
        polish = np.where(done, polish - 1, 2)
        active = polish >= 0
        if not np.any(active):
            break
        lo = np.where(f < 0.0, np.maximum(lo, r), lo)
        hi = np.where(f > 0.0, np.minimum(hi, r), hi)
        fp = radial_coefficient(density, r, curvature=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(fp > 0.0, f / fp, 0.0)
        r_new = r - step
        out = (r_new < lo) | (r_new > hi) | ~np.isfinite(r_new)
        r_new = np.where(out & active, 0.5 * (lo + hi), r_new)
        r = np.where(active, r_new, r)
    stopped = polish < 0  # each with the r and f it stopped at
    failed = ~stopped & ~(np.abs(f) <= target_tol)  # a NaN residual fails
    failures = {int(i): ConjugateSolveError(
        f"radial conjugate solve failed to converge for |y|={s.flat[i]:.6g}",
        residual=abs(f.flat[i]), iterations=NEWTON_MAX_ITERS)
        for i in np.flatnonzero(failed)}
    r = np.where(failed, np.nan, np.where(stopped & ~np.isfinite(f), lo, r))
    return (float(r[0]) if scalar_in else r), it, failures

