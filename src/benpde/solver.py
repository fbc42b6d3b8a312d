"""Trajectory-space minimization, implicit stepping baseline, and probes.

Two independent routes to a discrete solution:

* :func:`minimize` descends the certificate energy over all trajectory nodes
  past the locked initial state, using limited-memory quasi-Newton steps in
  the time-weighted spatial inner product with a monotone Armijo line
  search.  At a minimizer the energy report doubles as a solution
  certificate.  For quadratic densities the quasi-Newton initial matrix is
  the exact inverse Hessian of the drift-free energy, applied by two
  Crank-Nicolson sweeps, so heat flow is solved in one step and drifts
  only add a few; other exponents keep the scaled identity.
* :func:`implicit_baseline` marches the classical fully implicit scheme one
  step at a time with a damped Newton solve per step.

:func:`compare` measures trajectory discrepancies in a relative mixed norm,
and :func:`uniqueness_probe` restarts the minimizer from several random
initializations to expose (non-)uniqueness of the reachable minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .energy import (
    EnergyReport,
    energy_and_gradient,
    eval_energy,
    trajectory_grad_norm,
)
from .errors import (
    ConjugateSolveError,
    LineSearchError,
    ModelEvaluationError,
    TimeStepError,
)
from .grid import (
    Field,
    SpaceGrid,
    Trajectory,
    h_norm,
    mixed_norm,
    weighted_neg_laplacian,
)
from .models import (
    ModelSpec,
    dlambda_matrix,
    lambda_density,
    psi_gradient_density,
    psi_hessian_edge_weights,
)

__all__ = [
    "SolveOptions",
    "SolveOutcome",
    "CompareResult",
    "ProbeResult",
    "constant_initial_trajectory",
    "random_initial_trajectory",
    "minimize",
    "implicit_baseline",
    "compare",
    "uniqueness_probe",
]

#: Relative curvature floor below which a quasi-Newton update is skipped.
CURVATURE_FLOOR = 1e-20

#: Newton damping: maximum step halvings per implicit time step.
MAX_HALVINGS = 30

#: Mixed-norm scale below which trajectories count as collapsed to zero;
#: the uniqueness probe compares such pairs absolutely, because a relative
#: comparison of two roundoff-sized minimizers is noise against noise.
DEGENERATE_SCALE = 1e-9


@dataclass(frozen=True)
class SolveOptions:
    """Minimizer controls.

    ``grad_tol`` stops on the time-weighted gradient norm, ``energy_tol`` on
    the normalized energy; whichever hits first.  The line search is Armijo
    backtracking with slope fraction ``armijo_c1`` and step factor
    ``backtrack``.  ``seed`` controls random initialization helpers, not the
    descent itself, which is deterministic.
    """

    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_tol: float = 1e-12
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_line_trials: int = 40
    memory: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        for name in ("grad_tol", "energy_tol", "armijo_c1"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack factor must lie in (0, 1)")
        if self.max_line_trials < 1:
            raise ValueError("max_line_trials must be at least 1")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")


@dataclass
class SolveOutcome:
    """Result of one minimization run.

    ``history`` holds one ``(J, grad_norm)`` row per evaluated iterate
    (including the initial one); the energy column is nonincreasing because
    only Armijo-accepted steps are recorded.
    """

    trajectory: Trajectory
    report: EnergyReport
    iterations: int
    converged: bool
    history: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CompareResult:
    """Discrepancy of two trajectories: relative mixed L2 norm and the
    largest single-node deviation."""

    rel_l2: float
    max_node: float


@dataclass
class ProbeResult:
    """Uniqueness probe outcome: worst pairwise discrepancy among the
    minimizers that converged, plus per-seed convergence flags."""

    max_pairwise: float
    seeds: list
    converged: list
    outcomes: list = field(repr=False)


# -- initialization helpers ---------------------------------------------------------


def _initial_state(grid: SpaceGrid, w0) -> np.ndarray:
    arr = w0.values if isinstance(w0, Field) else np.asarray(w0, dtype=float)
    if arr.ndim == grid.dim:
        arr = arr[None, ...]
    if arr.shape[1:] != grid.shape:
        raise ValueError(f"initial state shape {arr.shape} does not match "
                         f"grid shape {grid.shape}")
    return arr


def constant_initial_trajectory(grid: SpaceGrid, times, w0) -> Trajectory:
    """Constant-in-time extension of the initial state (default start)."""
    arr = _initial_state(grid, w0)
    t = np.asarray(times, dtype=float)
    states = np.broadcast_to(arr, (t.size,) + arr.shape).copy()
    return Trajectory(grid, t, states)


def random_initial_trajectory(grid: SpaceGrid, times, w0, seed: int,
                              noise: float = 0.5) -> Trajectory:
    """Initial state plus independent Gaussian noise on every later node."""
    arr = _initial_state(grid, w0)
    t = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    tail = arr[None] + noise * rng.normal(size=(t.size - 1,) + arr.shape)
    return Trajectory(grid, t, np.concatenate([arr[None], tail], axis=0))


# -- minimization ---------------------------------------------------------------------


def _crank_nicolson_inverse_hessian(model: ModelSpec, traj: Trajectory):
    """Initial inverse Hessian ``H0 = L^{-1} (cA) L^{-T}`` for quadratic
    densities, or ``None`` for other exponents.

    With ``c = a + eps`` and ``A`` the negative Laplacian, the drift-free
    energy is ``J = (tau/2) sum_k <r_k, (cA)^{-1} r_k>_H`` for the
    Crank-Nicolson residuals ``r = L u``, ``(Lu)_j = P u_j - Q u_{j-1}``
    with ``P = I/tau + (lam c/2) A`` and ``Q = I/tau - (lam c/2) A``.  Its
    Hessian in the time-weighted inner product is ``L^T (cA)^{-1} L``, whose
    inverse costs a backward sweep ``v_j = P^{-1}(G_j + Q v_{j+1})``, the
    product ``w = cA v`` and a forward sweep ``x_j = P^{-1}(w_j + Q x_{j-1})``
    over the free nodes ``1..M``, all sharing one factorization of ``P``.
    ``H0`` is self-adjoint and positive definite, and maps the gradient of
    heat flow at ``u`` to ``u - u_CN``.  Applied to nodal arrays
    ``(M+1, k, *grid.shape)``; row 0 of the result is zero.
    """
    d = model.density
    if d.exponent != 2.0:
        return None
    grid = traj.grid
    c = d.coefficient + d.regularizer
    A = grid.neg_laplacian
    eye = sp.identity(grid.n_nodes, format="csr") / traj.tau
    half = 0.5 * float(model.lam) * c * A
    lu = spla.splu((eye + half).tocsc())
    Q = (eye - half).tocsr()

    def apply(G):
        steps = G.shape[0] - 1
        cols = G[1:].reshape(steps, -1, grid.n_nodes).transpose(0, 2, 1)
        v = np.empty_like(cols)
        acc = np.zeros_like(cols[0])
        for j in reversed(range(steps)):  # L^T v = G
            acc = v[j] = lu.solve(cols[j] + Q @ acc)
        acc = np.zeros_like(acc)
        for j in range(steps):  # L x = cA v, overwriting v
            acc = v[j] = lu.solve(c * (A @ v[j]) + Q @ acc)
        out = np.zeros_like(G)
        out[1:] = v.transpose(0, 2, 1).reshape(G[1:].shape)
        return out

    return apply


def minimize(model: ModelSpec, init: Trajectory,
             opts: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Descend the certificate energy over the free trajectory nodes.

    Limited-memory BFGS in the time-weighted spatial inner product, with
    Armijo backtracking; the initial state never moves.  For quadratic
    densities the initial inverse Hessian ``H0`` is the exact one of the
    drift-free energy (two Crank-Nicolson sweeps, see
    :func:`_crank_nicolson_inverse_hessian`): it seeds the two-loop
    recursion, gives the direction ``-H0 g`` when the memory is empty or
    the slope is not negative, and every line search starts at the unit
    step.  Other exponents use the scaled identity ``s^T y / y^T y`` in the
    recursion, ``-g`` otherwise, and a first step of ``1/|g|`` on an empty
    memory.  Deterministic for fixed inputs.  A trial step whose energy raises
    :class:`~benpde.errors.ConjugateSolveError` or
    :class:`~benpde.errors.ModelEvaluationError` is rejected like one that
    fails the Armijo test.  Raises :class:`~benpde.errors.LineSearchError`
    (carrying the last outcome) if no trial step is accepted.
    """
    if not init.initial_locked:
        raise ValueError("minimization requires a locked initial state")
    grid = init.grid
    tau = init.tau
    weight = tau * grid.cell_volume

    def dot(u, v):
        return weight * float(np.vdot(u, v))

    h0 = _crank_nicolson_inverse_hessian(model, init)
    traj = init
    report, g = energy_and_gradient(model, traj)
    gnorm = trajectory_grad_norm(grid, tau, g)
    history = [(report.total, gnorm)]
    mem = []  # (s, y, 1/<y,s>) triples, oldest first

    def done(rep, gn):
        return gn <= opts.grad_tol or rep.normalized <= opts.energy_tol

    iterations = 0
    while not done(report, gnorm) and iterations < opts.max_iters:
        if mem:
            q = g.copy()
            alphas = []
            for s, y, rho in reversed(mem):
                a = rho * dot(s, q)
                alphas.append(a)
                q -= a * y
            if h0 is None:
                s, y, _ = mem[-1]
                q *= dot(s, y) / dot(y, y)
            else:
                q = h0(q)
            for (s, y, rho), a in zip(mem, reversed(alphas)):
                q += s * (a - rho * dot(y, q))
            direction = -q
            slope = dot(g, direction)
            if slope >= 0.0:
                mem.clear()  # the curvature data misleads: restart without it
        if not mem:
            direction = -g if h0 is None else -h0(g)
            slope = dot(g, direction)

        if mem or h0 is not None:
            step = 1.0
        else:
            step = min(1.0, 1.0 / max(gnorm, 1e-30))
        accepted = False
        for _ in range(opts.max_line_trials):
            tail = traj.states[1:] + step * direction[1:]
            candidate = traj.with_tail(tail)
            try:
                rep_new = eval_energy(model, candidate)
            except (ConjugateSolveError, ModelEvaluationError):
                rep_new = None  # a trial that cannot be priced is rejected
            if (rep_new is not None and rep_new.total
                    <= report.total + opts.armijo_c1 * step * slope):
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            outcome = SolveOutcome(trajectory=traj, report=report,
                                   iterations=iterations, converged=False,
                                   history=np.asarray(history))
            raise LineSearchError(
                f"line search found no descent step after "
                f"{opts.max_line_trials} trials at iteration {iterations}",
                outcome=outcome)

        rep_new, g_new = energy_and_gradient(model, candidate)
        s = step * direction
        y = g_new - g
        sy = dot(s, y)
        if sy > CURVATURE_FLOOR * np.sqrt(dot(s, s) * dot(y, y)):
            mem.append((s, y, 1.0 / sy))
            if len(mem) > opts.memory:
                mem.pop(0)
        traj, report, g = candidate, rep_new, g_new
        gnorm = trajectory_grad_norm(grid, tau, g)
        history.append((report.total, gnorm))
        iterations += 1

    return SolveOutcome(trajectory=traj, report=report, iterations=iterations,
                        converged=done(report, gnorm),
                        history=np.asarray(history))


# -- implicit stepping baseline --------------------------------------------------------


def _implicit_residual(model, grid, u, u_prev, tau, t_next):
    r = (u - u_prev) / tau + lambda_density(model, grid, u, t_next)
    if model.lam:
        r = r + psi_gradient_density(model.density, grid,
                                     float(model.lam) * u)
    return r


def implicit_baseline(model: ModelSpec, w0, times, *, newton_tol: float = 1e-12,
                      max_newton: int = 50) -> Trajectory:
    """March the fully implicit scheme: each step solves

        (u_{k+1} - u_k)/tau + Lambda_{t_{k+1}}(u_{k+1}) + DPsi(lam u_{k+1}) = 0

    by damped Newton (step halving until the residual drops).  Raises
    :class:`~benpde.errors.TimeStepError` with the step index if a step
    fails to reach ``newton_tol`` relative to its starting residual.
    """
    t = np.asarray(times, dtype=float)
    if not isinstance(w0, Field):
        raise ValueError("implicit_baseline needs a Field initial state")
    grid = w0.grid
    u_prev = _initial_state(grid, w0)
    tau = float(t[1] - t[0])
    states = [u_prev]
    eye = sp.identity(grid.n_nodes, format="csr") / tau
    lam = float(model.lam)
    for k in range(t.size - 1):
        t_next = float(t[k + 1])
        u = u_prev.copy()
        res = _implicit_residual(model, grid, u, u_prev, tau, t_next)
        rnorm = h_norm(grid, res)
        target = newton_tol * max(1.0, rnorm)
        it = 0
        while rnorm > target:
            if it >= max_newton:
                raise TimeStepError(
                    f"step {k}: Newton hit the iteration cap at residual "
                    f"{rnorm:.3e}", k, rnorm)
            jac = eye + dlambda_matrix(model, grid, u, t_next)
            if model.lam:
                weights = psi_hessian_edge_weights(model.density, grid, lam * u)
                jac = jac + lam * weighted_neg_laplacian(grid, weights)
            delta = spla.splu(jac.tocsc()).solve(-res.ravel()).reshape(u.shape)
            scale = 1.0
            for _ in range(MAX_HALVINGS):
                u_new = u + scale * delta
                res_new = _implicit_residual(model, grid, u_new, u_prev, tau,
                                             t_next)
                rnorm_new = h_norm(grid, res_new)
                if rnorm_new < rnorm:
                    break
                scale *= 0.5
            else:
                raise TimeStepError(
                    f"step {k}: Newton damping stalled at residual "
                    f"{rnorm:.3e}", k, rnorm)
            u, res, rnorm = u_new, res_new, rnorm_new
            it += 1
        states.append(u)
        u_prev = u
    return Trajectory(grid, t, np.asarray(states))


# -- cross-validation -------------------------------------------------------------------


def compare(a: Trajectory, b: Trajectory) -> CompareResult:
    """Relative mixed-norm discrepancy of two trajectories on one grid.

    The relative error normalizes by the larger trajectory norm, so equal
    and opposite trajectories score exactly 2; identical ones score 0.
    """
    if a.states.shape != b.states.shape:
        raise ValueError(f"trajectory shapes differ: {a.states.shape} vs "
                         f"{b.states.shape}")
    if not np.allclose(a.times, b.times, rtol=0.0, atol=1e-12):
        raise ValueError("trajectories live on different time nodes")
    diff = mixed_norm(a, a.states - b.states)
    denom = max(mixed_norm(a), mixed_norm(a, b.states))
    rel = 0.0 if diff == 0.0 else diff / denom
    return CompareResult(rel_l2=rel,
                         max_node=float(np.max(np.abs(a.states - b.states))))


def uniqueness_probe(model: ModelSpec, grid: SpaceGrid, times, w0,
                     opts: SolveOptions = SolveOptions(), n_seeds: int = 3,
                     noise: float = 0.5) -> ProbeResult:
    """Minimize from several random starts and report the worst pairwise
    discrepancy among converged minimizers.

    Seeds that fail (line-search stall or no convergence) are recorded, not
    fatal; the probe itself fails only when fewer than two runs converge.
    Pairs of minimizers that both collapsed below :data:`DEGENERATE_SCALE`
    are scored by their absolute mixed-norm difference instead of the
    relative one.
    """
    if n_seeds < 2:
        raise ValueError("uniqueness probe needs at least two seeds")
    seeds = [opts.seed + i for i in range(n_seeds)]
    outcomes = []
    flags = []
    for s in seeds:
        init = random_initial_trajectory(grid, times, w0, seed=s, noise=noise)
        try:
            out = minimize(model, init, opts)
        except LineSearchError as exc:
            out = exc.outcome
        outcomes.append(out)
        flags.append(bool(out is not None and out.converged))
    converged = [o for o, f in zip(outcomes, flags) if f]
    if len(converged) < 2:
        raise LineSearchError(
            f"uniqueness probe: only {len(converged)} of {n_seeds} runs "
            f"converged", outcome=None)

    worst = 0.0
    for a, b in combinations([o.trajectory for o in converged], 2):
        if max(mixed_norm(a), mixed_norm(a, b.states)) <= DEGENERATE_SCALE:
            worst = max(worst, mixed_norm(a, a.states - b.states))
        else:
            worst = max(worst, compare(a, b).rel_l2)
    return ProbeResult(max_pairwise=worst, seeds=seeds, converged=flags,
                       outcomes=outcomes)
