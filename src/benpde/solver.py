"""Trajectory-space minimization, implicit stepping baseline, and probes.

Two independent routes to a discrete solution:

* :func:`minimize` drives the certificate energy to zero over all trajectory
  nodes past the locked initial state by damped Gauss-Newton on the
  midpoint residuals, which vanish exactly where the energy does.  Each
  direction costs one forward sweep of linearised midpoint steps, and a
  monotone Armijo line search on the energy accepts it, so heat flow is
  solved in one step and drifts or exponents above two take a few.  At a
  minimizer the energy report doubles as a solution certificate.
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

from .energy import EnergyReport, _dual_residuals, energy_and_gradient
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
    solve_bands,
)
from .models import (
    ModelSpec,
    jacobian_bands,
    lambda_density,
    psi_gradient_density,
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
    backtracking on the energy with slope fraction ``armijo_c1`` and step
    factor ``backtrack``, from the unit Gauss-Newton step.  ``seed``
    controls random initialization helpers, not the descent itself, which
    is deterministic.
    """

    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_tol: float = 1e-12
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_line_trials: int = 40
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


def _gauss_newton_direction(model: ModelSpec, traj: Trajectory):
    """Gauss-Newton step ``delta = -R'(u)^{-1} R(u)`` on the midpoint
    residuals ``R_k = -H_k + lam DPsi(lam m_k)``, or ``None`` when the sweep
    fails (a singular or non-finite solve with ``P_k``).

    ``R'`` is block lower-bidiagonal in time, with diagonal blocks
    ``P_k = I/tau + K_k/2`` and sub-diagonal blocks ``P_k - 2I/tau``, where
    ``K_k = DLambda(m_k) + lam D^2Psi(lam m_k)``.  So ``delta`` costs one
    forward sweep ``delta_{k+1} = P_k^{-1}(-R_k + 2 delta_k/tau) - delta_k``
    from ``delta_0 = 0``.  The bands of every ``P_k`` are built at once by
    :func:`~benpde.models.jacobian_bands`, and each step solves with its own
    slice of them.
    """
    grid, tau, lam = traj.grid, traj.tau, float(model.lam)
    mids, t_mid, H = _dual_residuals(model, traj)
    R = -H
    if model.lam:
        R = R + lam * psi_gradient_density(model.density, grid, lam * mids)
    blocks = mids.reshape((-1, 1) + grid.shape)  # one per (slice, component)
    bands = jacobian_bands(model, grid, blocks, np.repeat(t_mid, traj.k),
                           1.0 / tau, 0.5)
    size = R[0].size
    rhs = -R.reshape(traj.n_steps, size)
    delta = np.zeros((traj.n_steps + 1, size))
    for k in range(traj.n_steps):
        try:
            x = solve_bands(bands[:, k * size:(k + 1) * size],
                            rhs[k] + (2.0 / tau) * delta[k])
        except np.linalg.LinAlgError:
            return None
        delta[k + 1] = x - delta[k]
    return delta.reshape(traj.states.shape)


def minimize(model: ModelSpec, init: Trajectory,
             opts: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Drive the certificate energy to zero over the free trajectory nodes.

    Damped Gauss-Newton on the midpoint residuals (see
    :func:`_gauss_newton_direction`), with Armijo backtracking on ``J`` from
    the unit step; the initial state never moves.  When the sweep fails or
    its direction is not a descent direction in the time-weighted inner
    product, the step is ``-g`` with first trial ``min(1, 1/|g|)``.  Each
    trial is priced with its gradient, so an accepted step costs one
    assembly.  Deterministic for fixed inputs.  A trial whose energy raises
    :class:`~benpde.errors.ConjugateSolveError` or
    :class:`~benpde.errors.ModelEvaluationError` is rejected like one that
    fails the Armijo test.  Raises :class:`~benpde.errors.LineSearchError`
    (carrying the last outcome) if no trial step is accepted.
    """
    if not init.initial_locked:
        raise ValueError("minimization requires a locked initial state")
    weight = init.tau * init.grid.cell_volume
    traj = init
    report, g = energy_and_gradient(model, traj)
    gnorm = mixed_norm(traj, g)
    history = [(report.total, gnorm)]

    def done(rep, gn):
        return gn <= opts.grad_tol or rep.normalized <= opts.energy_tol

    iterations = 0
    while not done(report, gnorm) and iterations < opts.max_iters:
        direction, step = _gauss_newton_direction(model, traj), 1.0
        slope = (np.nan if direction is None
                 else weight * float(np.vdot(g, direction)))
        if not slope < 0.0:  # NaN too: the sweep failed
            direction, slope = -g, -gnorm**2
            step = min(1.0, 1.0 / max(gnorm, 1e-30))
        accepted = False
        for _ in range(opts.max_line_trials):
            tail = traj.states[1:] + step * direction[1:]
            candidate = traj.with_tail(tail)
            try:
                rep_new, g_new = energy_and_gradient(model, candidate)
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

        traj, report, g = candidate, rep_new, g_new
        gnorm = mixed_norm(traj, g)
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

    by damped Newton (step halving until the residual drops), one banded
    solve with :func:`~benpde.models.jacobian_bands` per Newton step.
    Raises :class:`~benpde.errors.TimeStepError` with the step index if a
    Newton Jacobian is singular or a step fails to reach ``newton_tol``
    relative to its starting residual.
    """
    t = np.asarray(times, dtype=float)
    if not isinstance(w0, Field):
        raise ValueError("implicit_baseline needs a Field initial state")
    grid = w0.grid
    u_prev = _initial_state(grid, w0)
    tau = float(t[1] - t[0])
    states = [u_prev]
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
            jac = jacobian_bands(model, grid, u[:, None], t_next, 1.0 / tau, 1.0)
            try:
                delta = solve_bands(jac, -res.ravel()).reshape(u.shape)
            except np.linalg.LinAlgError:
                raise TimeStepError(
                    f"step {k}: singular Newton Jacobian at residual "
                    f"{rnorm:.3e}", k, rnorm) from None
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
