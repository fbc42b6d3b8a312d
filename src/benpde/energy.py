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
the edge law is inverted pointwise, and the constant solves a monotone
scalar equation that encodes the zero boundary values.  In two dimensions a
damped Newton iteration solves each slice in turn, one banded solve of the
weighted-Laplacian Jacobian per step.  The maximizer ``z = DPsi*(y)`` is reused for the primal defect
``W_k = lam * m_k - DPsi*(H_k)`` and for the gradient assembly, so one
energy evaluation prices all certificate quantities at once.

Every path but the two-dimensional non-quadratic one handles all time
slices at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import PowerDensity, conjugate_radius, radial_coefficient
from .errors import ConjugateSolveError
from .grid import (
    Field,
    SpaceGrid,
    Trajectory,
    dual_grad_norm,
    grad_norm,
    h_inner_batch,
    h_norm,
    poisson_solve,
    solve_bands,
    stencil_bands,
)
from .models import (
    ModelSpec,
    dlambda_adjoint_density,
    lambda_density,
    psi_gradient_density,
    psi_hessian_edge_weights,
    psi_total,
)

__all__ = [
    "EnergyReport",
    "CertificateVerdict",
    "conjugate_on_dual",
    "residual",
    "eval_energy",
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

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "term_psi": self.term_psi,
            "term_conj": self.term_conj,
            "term_pair": self.term_pair,
            "residual_norm": self.residual_norm,
            "defect_norm": self.defect_norm,
            "normalized": self.normalized,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "solved": self.solved,
            "normalized": self.normalized,
            "defect_norm": self.defect_norm,
            "scale": self.scale,
            "tol": self.tol,
        }


# -- conjugate of the integrated density ------------------------------------------


def _conjugate_newton_single(density: PowerDensity, grid: SpaceGrid,
                             y: np.ndarray, tol: float, max_iters: int):
    """Damped Newton for ``DPsi(z) = y`` on one 2-D slice (scalar fields)."""
    z = np.zeros_like(y)
    g = -y.astype(float)
    res = h_norm(grid, g)
    target = tol * max(1.0, h_norm(grid, y))
    for it in range(max_iters):
        if res <= target:
            return z, it
        bands = stencil_bands(grid, np.zeros(grid.shape),
                              psi_hessian_edge_weights(density, grid, z))
        step = solve_bands(bands, -g.ravel()).reshape(z.shape)
        s = 1.0
        for _ in range(30):
            z_new = z + s * step
            g_new = psi_gradient_density(density, grid, z_new) - y
            res_new = h_norm(grid, g_new)
            if res_new <= (1.0 - 1e-4 * s) * res:
                break
            s *= 0.5
        else:
            raise ConjugateSolveError(
                f"dual Newton stalled at residual {res:.3e}", res, it)
        z, g, res = z_new, g_new, res_new
    if res <= target:
        return z, max_iters
    raise ConjugateSolveError(
        f"dual Newton hit the iteration cap at residual {res:.3e}",
        res, max_iters)


def _conjugate_exact_1d(density: PowerDensity, grid: SpaceGrid,
                        y: np.ndarray, tol: float, max_iters: int):
    """Exact solve of ``DPsi(z) = y`` in 1-D for every row of ``y`` (rows, n).

    ``DPsi(z) = D^T w`` with the edge fluxes ``w = phi(Dz)``, where
    ``phi(g) = (a|g|^{q-2} + eps) g``.  ``D^T w = y`` gives ``w = c - S`` with
    ``S = h [0, cumsum(y)]`` on the ``n+1`` edges, so the edge gradients are
    ``g = phi^{-1}(c - S)``.  The zero boundary values require
    ``F(c) = sum(g) = 0``; ``F`` is increasing with a root in
    ``[min S, max S]``, started from the mean of ``S`` (exact when ``phi``
    is linear).  Newton steps on ``c`` fall back to bisection when they
    leave the bracket or fail to halve ``|F|``.  Once
    ``|F| <= tol * sum(|g|)``, one more Newton step polishes ``c`` and the
    row is frozen; a row whose Newton step is below the spacing of ``c`` is
    frozen at once.  Then ``z = h cumsum(g)``.

    Returns ``(z, steps)``, ``steps`` being the most scalar steps any row
    took.  Raises :class:`ConjugateSolveError` tagged with the index of the
    first unsolved row when ``max_iters`` steps do not suffice.
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
    for steps in range(max_iters + 1):
        w = c[todo, None] - S[todo]
        r, _ = conjugate_radius(density, np.abs(w))
        g[todo] = np.copysign(r, w)
        f = g[todo].sum(axis=1)
        with np.errstate(divide="ignore"):
            slope = np.sum(
                1.0 / radial_coefficient(density, r, curvature=True), axis=1)
        newton = c[todo] - f / slope
        met = np.abs(f) <= tol * r.sum(axis=1)
        done = polished[todo] | (
            np.abs(newton - c[todo]) <= 4.0 * np.spacing(np.abs(c[todo])))
        polished[todo] = met
        todo, f, newton, met = todo[~done], f[~done], newton[~done], met[~done]
        if not todo.size:
            break
        if steps == max_iters:
            raise ConjugateSolveError(
                f"slice {todo[0]}: scalar solve hit the iteration cap at "
                f"residual {abs(f[0]):.3e}", abs(f[0]), max_iters)
        ct = c[todo]
        lo[todo] = np.where(f < 0.0, ct, lo[todo])
        hi[todo] = np.where(f > 0.0, ct, hi[todo])
        ok = ((newton >= lo[todo]) & (newton <= hi[todo])
              & (met | (np.abs(f) <= 0.5 * last[todo])))
        c[todo] = np.where(ok, newton, 0.5 * (lo[todo] + hi[todo]))
        last[todo] = np.abs(f)
    return grid.h * np.cumsum(g, axis=1)[:, :n], steps


def conjugate_on_dual(density: PowerDensity, grid: SpaceGrid, y, *,
                      tol: float = CONJUGATE_TOL,
                      max_iters: int = CONJUGATE_MAX_ITERS):
    """Conjugate of the integrated density at nodal dual densities ``y``.

    Returns ``(values, argmax, iterations)`` where ``argmax`` solves
    ``DPsi(argmax) = y`` and ``values = <argmax, y> - Psi(argmax)``.  ``y``
    may carry leading batch axes.  Quadratic densities are solved for all
    batch entries in one factorized solve (``iterations`` is 0).  Other
    exponents take one-component fields only: in 1-D all entries are solved
    exactly at once and ``iterations`` counts the scalar-equation steps of
    the slowest entry; in 2-D each entry runs the dual Newton iteration and
    ``iterations`` counts its steps on the slowest entry.  Either raises
    :class:`~benpde.errors.ConjugateSolveError` tagged ``slice {i}:`` when
    ``max_iters`` steps do not reach ``tol``.
    """
    arr = np.asarray(y, dtype=float)
    single = arr.ndim == grid.dim + 1
    if single:
        arr = arr[None, ...]
    lead = arr.shape[: -(grid.dim + 1)]
    a, q, eps = density.coefficient, density.exponent, density.regularizer

    if q == 2.0:
        # DPsi(z) = -(a+eps) * laplacian(z), so one Dirichlet solve inverts it
        z = poisson_solve(grid, -arr) / (a + eps)
        iters = 0
    else:
        if arr.shape[-(grid.dim + 1)] != 1:
            raise ValueError(
                "non-quadratic conjugate solves support one-component fields")
        flat = arr.reshape((-1,) + arr.shape[-(grid.dim + 1):])
        if grid.dim == 1:
            z, iters = _conjugate_exact_1d(density, grid, flat[:, 0], tol,
                                           max_iters)
        else:
            z = np.empty_like(flat)
            iters = 0
            for i, yi in enumerate(flat):
                try:
                    z[i], it = _conjugate_newton_single(density, grid, yi,
                                                        tol, max_iters)
                except ConjugateSolveError as exc:
                    raise ConjugateSolveError(
                        f"slice {i}: {exc}", exc.residual,
                        exc.iterations) from exc
                iters = max(iters, it)
        z = z.reshape(arr.shape)

    values = (h_inner_batch(grid, z, arr)
              - np.atleast_1d(psi_total(density, grid, z)).reshape(lead))
    if single:
        return float(values[0]), z[0], iters
    return values, z, iters


# -- residual and energy ------------------------------------------------------------


def _dual_residuals(model: ModelSpec, traj: Trajectory, intervals=slice(None)):
    """Midpoints ``m_k``, midpoint times and dual residuals ``H_k`` of the
    selected intervals, each with the interval axis in front."""
    u0 = traj.states[:-1][intervals]
    u1 = traj.states[1:][intervals]
    mids = 0.5 * (u0 + u1)
    t_mid = 0.5 * (traj.times[:-1] + traj.times[1:])[intervals]
    H = -(u1 - u0) / traj.tau - lambda_density(model, traj.grid, mids, t_mid)
    return mids, t_mid, H


def residual(model: ModelSpec, traj: Trajectory, k: int) -> Field:
    """Dual residual ``H_k`` of interval ``k`` as a nodal density field."""
    if not 0 <= k < traj.n_steps:
        raise IndexError(f"interval index {k} out of range")
    _, _, H = _dual_residuals(model, traj, slice(k, k + 1))
    return Field(traj.grid, H[0])


def _lq_time_norm(tau: float, slice_norms: np.ndarray, q: float) -> float:
    return float((tau * np.sum(np.asarray(slice_norms) ** q)) ** (1.0 / q))


def _assemble(model: ModelSpec, traj: Trajectory):
    """All certificate ingredients of a trajectory in one batched sweep."""
    grid = traj.grid
    d = model.density
    lam = float(model.lam)
    tau = traj.tau
    mids, t_mid, H = _dual_residuals(model, traj)

    if model.lam:
        psi_slices = np.atleast_1d(psi_total(d, grid, lam * mids))
    else:
        psi_slices = np.zeros(traj.n_steps)
    conj_slices, z, _ = conjugate_on_dual(d, grid, H)
    conj_slices = np.atleast_1d(conj_slices)
    pair_slices = -lam * h_inner_batch(grid, mids, H)

    defect = lam * mids - z
    q = d.exponent
    qstar = q / (q - 1.0)

    term_psi = tau * float(np.sum(psi_slices))
    term_conj = tau * float(np.sum(conj_slices))
    term_pair = tau * float(np.sum(pair_slices))
    total = term_psi + term_conj + term_pair
    report = EnergyReport(
        total=total,
        term_psi=term_psi,
        term_conj=term_conj,
        term_pair=term_pair,
        residual_norm=_lq_time_norm(
            tau, np.atleast_1d(dual_grad_norm(grid, H, qstar)), qstar),
        defect_norm=_lq_time_norm(
            tau, np.atleast_1d(grad_norm(grid, defect, q)), q),
        normalized=total / (term_psi + term_conj + abs(term_pair)
                            + NORMALIZATION_FLOOR),
    )
    return report, mids, t_mid, H, z, defect


def eval_energy(model: ModelSpec, traj: Trajectory) -> EnergyReport:
    """Certificate energy and norms of a trajectory under a model."""
    report, *_ = _assemble(model, traj)
    return report


def energy_and_gradient(model: ModelSpec, traj: Trajectory):
    """Energy report plus the nodal gradient array ``(M+1, k, *grid.shape)``.

    The gradient is the Riesz representer of the exact directional
    derivative in the time-weighted spatial inner product: for any nodal
    perturbation ``s`` with ``s_0 = 0``,

        dJ(u)[s] = sum_j tau * <s_j, g_j>_H.

    Row 0 is identically zero (the initial state is locked).
    """
    report, mids, t_mid, H, z, defect = _assemble(model, traj)
    grid = traj.grid
    d = model.density
    lam = float(model.lam)
    tau = traj.tau

    B = defect
    C = dlambda_adjoint_density(model, grid, mids, t_mid, B)
    if model.lam:
        C = C + lam * (psi_gradient_density(d, grid, lam * mids) - H)

    g = np.zeros_like(traj.states)
    if traj.n_steps > 1:
        g[1:-1] = 0.5 * (C[:-1] + C[1:]) + (B[:-1] - B[1:]) / tau
    g[-1] = 0.5 * C[-1] + B[-1] / tau
    return report, g


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
    report, mids, _, _, z, _ = _assemble(model, traj)
    grid = traj.grid
    q = model.density.exponent
    tau = traj.tau
    lam = float(model.lam)
    scale = (_lq_time_norm(tau, np.atleast_1d(grad_norm(grid, lam * mids, q)), q)
             + _lq_time_norm(tau, np.atleast_1d(grad_norm(grid, z, q)), q)
             + 1.0)
    solved = (report.normalized <= tol) and (report.defect_norm <= tol * scale)
    return CertificateVerdict(solved=bool(solved),
                              normalized=report.normalized,
                              defect_norm=report.defect_norm,
                              scale=scale, tol=tol)
