"""Trajectory energy, its exact gradient, and the zero-energy certificate.

The energy of a trajectory ``u_0, ..., u_M`` with step ``tau`` is the sum of
per-interval convex gaps

    J(u) = sum_k tau * [ Psi(lam * m_k) + Psi*(H_k) - lam * <m_k, H_k> ],

where ``m_k`` is the interval midpoint average, ``H_k`` is the dual residual

    H_k = -(u_{k+1} - u_k)/tau - Lambda_{t_{k+1/2}}(m_k),

``Psi`` is the integrated dissipation density over the spatial grid, and
``Psi*`` its convex conjugate on nodal dual densities.  Each interval term is
a Fenchel-Young gap, hence nonnegative, and vanishes exactly when the
midpoint scheme for the evolution is satisfied on that interval.  Zero energy
is therefore a certificate that the trajectory solves the discrete equation;
the ``normalized`` field of the report measures closeness to that certificate
on the natural scale of the terms themselves.

``Psi*`` is evaluated by solving the stationarity equation ``DPsi(z) = y``
globally on the grid.  Quadratic densities need one symmetric
positive-definite solve.  Other densities in one dimension are solved
exactly: ``D^T w = y`` fixes the edge fluxes up to one constant per slice,
the edge law is inverted pointwise by :func:`~benpde.convex.solve_radius`,
and the constant solves a monotone scalar equation that encodes the zero
boundary values.  In two dimensions a damped Newton iteration solves all
slices at once, one banded solve of each slice's weighted-Laplacian Jacobian
per step.  Both iterations stop at :data:`CONJUGATE_TOL` or fail after
:data:`CONJUGATE_MAX_ITERS` steps.  The maximizer ``z = DPsi*(y)`` is reused
for the primal defect ``W_k = lam * m_k - DPsi*(H_k)`` and, with
``DLambda^T`` (:func:`~benpde.models.dlambda_density` transposed), for the
gradient, so one assembly prices all certificate quantities at once.  The
minimizer prices its steps by a residual merit that needs no conjugate and
assembles only to certify a stop (see :mod:`benpde.solver`).

The interval terms take leading batch axes, and every path handles all
slices at once.  :func:`energy_totals` prices ``J`` alone for a batch of
trajectories in one call, bit for bit equal to :func:`eval_energy` but
without its norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import PowerDensity, radial_coefficient, solve_radius
from .errors import ConjugateSolveError, NonFiniteInputError
from .grid import (
    SpaceGrid,
    Trajectory,
    dual_grad_norm,
    grad_norm,
    h_inner,
    h_norm,
    poisson_solve,
    stencil_bands,
    sweep_bands,
)
from .models import (
    ModelSpec,
    dlambda_density,
    lambda_density,
    psi_gradient_density,
    psi_hessian_edge_weights,
    psi_total,
)

__all__ = [
    "EnergyReport",
    "CertificateVerdict",
    "conjugate_on_dual",
    "eval_energy",
    "energy_totals",
    "energy_and_gradient",
    "certificate",
]

#: Additive floor in the ``normalized`` denominator (degenerate-input safety).
NORMALIZATION_FLOOR = 1e-30

#: Relative residual tolerance of the conjugate solves: of ``sum(g) = 0``
#: against ``sum(|g|)`` in 1-D, of ``DPsi(z) = y`` in the H norm in 2-D.
CONJUGATE_TOL = 1e-12

#: Iteration cap of the conjugate solves (scalar steps in 1-D, dual Newton
#: steps in 2-D).
CONJUGATE_MAX_ITERS = 60


@dataclass(frozen=True)
class EnergyReport:
    """Certificate quantities of one trajectory under one model.

    ``total`` is the trajectory energy; ``term_psi``, ``term_conj`` and
    ``term_pair`` are its three summed constituents (primal density, dual
    conjugate, duality pairing).  ``residual_norm`` and ``defect_norm`` are
    the mixed-norm sizes of the dual residual and the primal defect, and
    ``normalized`` is ``total`` divided by the summed term magnitudes.
    """

    total: float
    term_psi: float
    term_conj: float
    term_pair: float
    residual_norm: float
    defect_norm: float
    normalized: float


@dataclass(frozen=True)
class CertificateVerdict:
    """Outcome of the zero-energy test at a given tolerance.

    ``solved`` requires both the normalized energy and the primal defect to
    be small; ``scale`` is the trajectory-size reference the defect is
    measured against (mixed norms of the primal arguments, floored at one).
    """

    solved: bool
    normalized: float
    defect_norm: float
    scale: float
    tol: float


# -- conjugate of the integrated density ------------------------------------------


def _conjugate_newton_2d(density: PowerDensity, grid: SpaceGrid, y: np.ndarray):
    """Damped Newton for ``DPsi(z) = y`` on all 2-D slices of ``y``
    ``(slices, *shape)`` at once: each step is one uncoupled
    :func:`~benpde.grid.sweep_bands` over the unconverged slices, and each
    slice halves its own step length until its H-norm residual drops.  A
    slice is frozen once that residual meets ``CONJUGATE_TOL max(1, |y_i|_H)``.
    Returns ``(z, steps)`` with the slowest slice's step count.  Raises the
    error of the first slice in index order that fails, tagged ``slice
    {i}:``, or :class:`numpy.linalg.LinAlgError` for a singular Jacobian.
    A slice whose starting residual or target is not finite (an overflowed
    norm) fails before the first step.
    """
    def fail(i, why):
        return ConjugateSolveError(
            f"slice {i}: dual Newton {why} at residual {res[i]:.3e}")

    z, g = np.zeros_like(y), -y
    res, target = h_norm(grid, g), CONJUGATE_TOL * np.maximum(1.0, h_norm(grid, y))
    bad = np.flatnonzero(~(np.isfinite(res) & np.isfinite(target)))
    if bad.size:
        raise fail(bad[0], "cannot start from a non-finite norm")
    todo, failure = np.arange(len(y)), None  # later slices stop on a failure
    for it in range(CONJUGATE_MAX_ITERS + 1):
        todo = todo[~(res[todo] <= target[todo])]
        if not todo.size or it == CONJUGATE_MAX_ITERS:
            break
        bands = stencil_bands(grid, np.zeros((todo.size,) + grid.shape),
                              psi_hessian_edge_weights(density, grid, z[todo]))
        step, bad = sweep_bands(bands, -g[todo].reshape(todo.size, -1))
        if bad is not None:
            failure = np.linalg.LinAlgError("singular or non-finite banded solve")
            todo = todo[:bad]
        step = step[1:todo.size + 1].reshape((-1,) + y.shape[1:])
        s, left = np.ones(todo.size), np.arange(todo.size)  # left: halving
        for _ in range(30):
            if not left.size:
                break
            rows = todo[left]
            z_new = z[rows] + s[left, None, None] * step[left]
            g_new = psi_gradient_density(density, grid, z_new) - y[rows]
            res_new = h_norm(grid, g_new)
            ok = res_new <= (1.0 - 1e-4 * s[left]) * res[rows]
            z[rows[ok]], g[rows[ok]], res[rows[ok]] = z_new[ok], g_new[ok], res_new[ok]
            left = left[~ok]
            s[left] *= 0.5
        if left.size:
            failure, todo = fail(todo[left[0]], "stalled"), todo[:left[0]]
    if todo.size:  # at the cap; these slices precede any failed one
        failure = fail(todo[0], "hit the iteration cap")
    if failure is not None:
        raise failure
    return z, it


def _conjugate_exact_1d(density: PowerDensity, grid: SpaceGrid, y: np.ndarray):
    """Exact solve of ``DPsi(z) = y`` in 1-D for every row of ``y`` (rows, n).

    ``DPsi(z) = D^T w`` with the edge fluxes ``w = phi(Dz)``, where
    ``phi(g) = (a|g|^{q-2} + eps) g``.  ``D^T w = y`` gives ``w = c - S`` with
    ``S = h [0, cumsum(y)]`` on the ``n+1`` edges, so the edge gradients are
    ``g = phi^{-1}(c - S)``.  The zero boundary values require
    ``F(c) = sum(g) = 0``; ``F`` is increasing with a root in
    ``[min S, max S]``, started from the mean of ``S`` (exact when ``phi``
    is linear).  Newton steps on ``c`` fall back to bisection when they
    leave the bracket or fail to halve ``|F|``.  Once ``|F| <= CONJUGATE_TOL
    sum(|g|)``, one more Newton step polishes ``c`` and the row is frozen; a
    row whose Newton step is below the spacing of ``c`` is frozen at once.
    Then ``z = h cumsum(g)``.

    Returns ``(z, steps)``, ``steps`` being the most scalar steps any row
    took.  Raises the :func:`~benpde.convex.solve_radius` error of the first
    edge whose radial solve fails, or a :class:`ConjugateSolveError` tagged
    with the first unsolved row after :data:`CONJUGATE_MAX_ITERS` steps.
    """
    rows, n = y.shape
    S = np.zeros((rows, n + 1))
    S[:, 1:] = grid.h * np.cumsum(y, axis=1)
    lo, hi = S.min(axis=1), S.max(axis=1)
    c = S.mean(axis=1)
    last = np.full(rows, np.inf)  # |F| at the previous step of each row
    polished = np.zeros(rows, dtype=bool)
    g = np.empty_like(S)
    todo = np.arange(rows)
    for steps in range(CONJUGATE_MAX_ITERS + 1):
        w = c[todo, None] - S[todo]
        r, _, failures = solve_radius(density, np.abs(w))
        if failures:
            raise failures[min(failures)]
        g[todo] = np.copysign(r, w)
        f = g[todo].sum(axis=1)
        with np.errstate(divide="ignore"):
            slope = np.sum(
                1.0 / radial_coefficient(density, r, curvature=True), axis=1)
        newton = c[todo] - f / slope
        met = np.abs(f) <= CONJUGATE_TOL * r.sum(axis=1)
        done = polished[todo] | (
            np.abs(newton - c[todo]) <= 4.0 * np.spacing(np.abs(c[todo])))
        polished[todo] = met
        todo, f, newton, met = todo[~done], f[~done], newton[~done], met[~done]
        if not todo.size:
            break
        if steps == CONJUGATE_MAX_ITERS:
            raise ConjugateSolveError(
                f"slice {todo[0]}: scalar solve hit the iteration cap at "
                f"residual {abs(f[0]):.3e}")
        ct = c[todo]
        lo[todo] = np.where(f < 0.0, ct, lo[todo])
        hi[todo] = np.where(f > 0.0, ct, hi[todo])
        ok = ((newton >= lo[todo]) & (newton <= hi[todo])
              & (met | (np.abs(f) <= 0.5 * last[todo])))
        c[todo] = np.where(ok, newton, 0.5 * (lo[todo] + hi[todo]))
        last[todo] = np.abs(f)
    return grid.h * np.cumsum(g, axis=1)[:, :n], steps


def conjugate_on_dual(density: PowerDensity, grid: SpaceGrid, y):
    """Conjugate of the integrated density at nodal dual densities ``y``.

    Returns ``(values, argmax, iterations)`` where ``argmax`` solves
    ``DPsi(argmax) = y`` and ``values = <argmax, y> - Psi(argmax)``.  ``y``
    may carry leading batch axes.  Quadratic densities are solved for all
    batch entries in one factorized solve (``iterations`` is 0).  For other
    exponents, in 1-D all entries are solved exactly at once and
    ``iterations`` counts the scalar-equation steps of the slowest entry; in
    2-D all entries run the dual Newton iteration at once and ``iterations``
    counts its steps on the slowest entry.  Either raises
    :class:`~benpde.errors.ConjugateSolveError` tagged ``slice {i}:`` when
    :data:`CONJUGATE_MAX_ITERS` steps do not reach :data:`CONJUGATE_TOL`.
    """
    arr = np.asarray(y, dtype=float)
    a, q, eps = density.coefficient, density.exponent, density.regularizer

    if q == 2.0:
        # DPsi(z) = -(a+eps) * laplacian(z), so one Dirichlet solve inverts it
        z = poisson_solve(grid, -arr) / (a + eps)
        iters = 0
    else:
        flat = arr.reshape((-1,) + grid.shape)
        if grid.dim == 1:
            z, iters = _conjugate_exact_1d(density, grid, flat)
        else:
            z, iters = _conjugate_newton_2d(density, grid, flat)
        z = z.reshape(arr.shape)

    return h_inner(grid, z, arr) - psi_total(density, grid, z), z, iters


# -- residual and energy ------------------------------------------------------------


def _dual_residuals(model: ModelSpec, grid: SpaceGrid, tau: float, times,
                    states, theta: float = 0.5):
    """theta-points ``m_k`` (midpoints at theta = 1/2, ``u_{k+1}`` at 1), their
    times ``t_k + theta tau`` and dual residuals ``H_k = -(u_{k+1} - u_k)/tau
    - Lambda(m_k)`` of every interval of ``states`` ``(..., M+1, *shape)``
    at ``times``; the interval axis keeps its place."""
    lead = (slice(None),) * (states.ndim - grid.dim - 1)
    u0, u1 = states[lead + (slice(None, -1),)], states[lead + (slice(1, None),)]
    mids, t_mid = ((u1, times[1:]) if theta == 1.0 else
                   (0.5 * (u0 + u1), 0.5 * (times[:-1] + times[1:])))
    H = -(u1 - u0) / tau - lambda_density(model, grid, mids, t_mid)
    return mids, t_mid, H


def _lq_time_norm(tau: float, slice_norms: np.ndarray, q: float) -> float:
    return float((tau * np.sum(slice_norms ** q)) ** (1.0 / q))


def _interval_terms(model: ModelSpec, traj: Trajectory, states):
    """The three ``J`` terms ``(psi, conj, pair)`` of ``states``
    ``(..., M+1, *shape)`` on ``traj``'s grid and times, each summed over
    the interval axis only, plus the midpoints, midpoint times, dual
    residuals and conjugate maximizers."""
    grid, tau, d, lam = traj.grid, traj.tau, model.density, float(model.lam)
    mids, t_mid, H = _dual_residuals(model, grid, tau, traj.times, states)
    psi = (psi_total(d, grid, lam * mids) if model.lam
           else np.zeros(H.shape[:-grid.dim]))
    conj, z, _ = conjugate_on_dual(d, grid, H)
    pair = -lam * h_inner(grid, mids, H)
    terms = tuple(tau * np.sum(s, axis=-1) for s in (psi, conj, pair))
    return terms, mids, t_mid, H, z


@dataclass(frozen=True)
class _Assembly:
    """One assembled trajectory: its report, the midpoints, midpoint times,
    dual residuals and conjugate maximizers of every interval."""

    model: ModelSpec
    traj: Trajectory
    report: EnergyReport
    mids: np.ndarray
    t_mid: np.ndarray
    H: np.ndarray
    z: np.ndarray

    def verdict(self, tol: float) -> CertificateVerdict:
        """The :func:`certificate` verdict of this trajectory at ``tol``."""
        grid, tau, q = self.traj.grid, self.traj.tau, self.model.density.exponent
        primal = float(self.model.lam) * self.mids
        scale = (_lq_time_norm(tau, grad_norm(grid, primal, q), q)
                 + _lq_time_norm(tau, grad_norm(grid, self.z, q), q) + 1.0)
        rep = self.report
        solved = (rep.normalized <= tol) and (rep.defect_norm <= tol * scale)
        return CertificateVerdict(solved=bool(solved), normalized=rep.normalized,
                                  defect_norm=rep.defect_norm, scale=scale, tol=tol)


def _node_gradient(traj: Trajectory, C, B, theta: float = 0.5) -> np.ndarray:
    """Nodal gradient of a sum over intervals whose derivative along ``s``
    (``s_0 = 0``) is ``sum_k tau (<C_k, (1 - theta) s_k + theta s_{k+1}>_H
    + <B_k, (s_{k+1} - s_k)/tau>_H)``, in the time-weighted H product: the
    edge sum that both ``J`` and the Gauss-Newton merit take."""
    g = np.zeros_like(traj.states)
    if traj.n_steps > 1:
        g[1:-1] = (theta * C[:-1] + (1.0 - theta) * C[1:]
                   + (B[:-1] - B[1:]) / traj.tau)
    g[-1] = theta * C[-1] + B[-1] / traj.tau
    return g


def _assemble(model: ModelSpec, traj: Trajectory) -> _Assembly:
    """All certificate ingredients of a trajectory in one batched sweep."""
    grid, tau, q = traj.grid, traj.tau, model.density.exponent
    terms, mids, t_mid, H, z = _interval_terms(model, traj, traj.states)
    term_psi, term_conj, term_pair = map(float, terms)
    lam = float(model.lam)
    B = lam * mids - z  # the primal defect
    qstar = q / (q - 1.0)
    total = term_psi + term_conj + term_pair
    report = EnergyReport(
        total=total, term_psi=term_psi, term_conj=term_conj,
        term_pair=term_pair,
        residual_norm=_lq_time_norm(tau, dual_grad_norm(grid, H, qstar), qstar),
        defect_norm=_lq_time_norm(tau, grad_norm(grid, B, q), q),
        normalized=total / (term_psi + term_conj + abs(term_pair)
                            + NORMALIZATION_FLOOR),
    )
    return _Assembly(model, traj, report, mids, t_mid, H, z)


def energy_totals(model: ModelSpec, traj: Trajectory, tails) -> np.ndarray:
    """``eval_energy(model, traj.with_tail(tail)).total``, bit for bit, for
    each ``tail`` in ``tails`` ``(B, M, *shape)``: one batched assembly of
    the energy terms, without the report's norms.  Raises ``ValueError`` on
    a mis-shaped batch and ``NonFiniteInputError`` on non-finite entries."""
    arr, want = np.asarray(tails, dtype=float), traj.states[1:].shape
    if arr.shape[1:] != want:
        raise ValueError(f"tails shape {arr.shape} is not (B, *{want})")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInputError("trajectory states contain non-finite entries")
    head = np.broadcast_to(traj.states[:1], (len(arr), 1) + arr.shape[2:])
    psi, conj, pair = _interval_terms(
        model, traj, np.concatenate([head, arr], axis=1))[0]
    return psi + conj + pair


def eval_energy(model: ModelSpec, traj: Trajectory) -> EnergyReport:
    """Certificate energy and norms of a trajectory under a model."""
    return _assemble(model, traj).report


def energy_and_gradient(model: ModelSpec, traj: Trajectory):
    """Energy report plus the nodal gradient array ``(M+1, *grid.shape)``.

    The gradient is the Riesz representer of the exact directional
    derivative in the time-weighted spatial inner product: for any nodal
    perturbation ``s`` with ``s_0 = 0``,

        dJ(u)[s] = sum_j tau * <s_j, g_j>_H.

    Row 0 is identically zero (the initial state is locked).
    """
    state, grid, lam = _assemble(model, traj), traj.grid, float(model.lam)
    B = lam * state.mids - state.z  # the primal defect
    C = dlambda_density(model, grid, state.mids, state.t_mid, B, transpose=True)
    if model.lam:
        C = C + lam * (psi_gradient_density(model.density, grid,
                                            lam * state.mids) - state.H)
    return state.report, _node_gradient(traj, C, B)


def certificate(model: ModelSpec, traj: Trajectory,
                tol: float) -> CertificateVerdict:
    """Zero-energy test: solved iff the normalized energy and the primal
    defect both fall below ``tol`` (the defect on the trajectory's own
    scale).

    The scale is the mixed norm of the primal quantities entering the
    defect — ``|lam * u|`` and ``|DPsi*(H)|`` in the time-Lq spatial
    seminorm — plus one, so the test is meaningful for tiny and for large
    trajectories alike.
    """
    return _assemble(model, traj).verdict(tol)

