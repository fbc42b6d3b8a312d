"""Trajectory-space minimization and the implicit stepping baseline.

Two independent routes to a discrete solution:

* :func:`minimize` drives the certificate energy to zero over all trajectory
  nodes past the locked initial state by damped Gauss-Newton on the
  midpoint residuals, which vanish exactly where the energy does.  Each
  direction costs one forward sweep of linearised midpoint steps, and a
  monotone Armijo line search on the energy accepts it, so heat flow is
  solved in one step and drifts or exponents above two take a few.  Each
  iterate is assembled once: its direction and, at the end, the
  certificate verdict read the assembly that priced it.
* :func:`implicit_baseline` solves the classical fully implicit scheme by
  damped Newton on the whole trajectory.  Each iteration is one forward
  sweep of the same block-bidiagonal kind, and the leading steps that
  have converged are frozen.

:func:`compare` measures trajectory discrepancies in a relative mixed norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import CertificateVerdict, EnergyReport, _assemble, _Assembly
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
    h_inner_batch,
    mixed_norm,
    sweep_bands,
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
    "constant_initial_trajectory",
    "random_initial_trajectory",
    "minimize",
    "implicit_baseline",
    "compare",
]

#: Newton damping: maximum step halvings per implicit baseline iteration.
MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolveOptions:
    """Minimizer controls.

    ``grad_tol`` stops on the time-weighted gradient norm, ``energy_tol`` on
    the normalized energy; whichever hits first.  The line search is Armijo
    backtracking on the energy with slope fraction ``armijo_c1`` and step
    factor ``backtrack``, from the unit Gauss-Newton step; the descent is
    deterministic.  A ``ValueError`` for a field out of range starts with
    ``"<field>: "``.
    """

    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_tol: float = 1e-12
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_line_trials: int = 40

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters: must be nonnegative")
        for name in ("grad_tol", "energy_tol", "armijo_c1"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name}: must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack: must lie in (0, 1)")
        if self.max_line_trials < 1:
            raise ValueError("max_line_trials: must be at least 1")


@dataclass
class SolveOutcome:
    """Result of one minimization run.

    ``state`` is the assembly that priced the last accepted iterate; the
    ``trajectory``, ``report`` and :meth:`verdict` read from it (after a
    failed line search it holds only what they read).  ``history``
    holds one ``(J, grad_norm)`` row per evaluated iterate (including the
    initial one); the energy column is nonincreasing because only
    Armijo-accepted steps are recorded.
    """

    state: _Assembly = field(repr=False)
    iterations: int
    converged: bool
    history: np.ndarray = field(repr=False)

    @property
    def trajectory(self) -> Trajectory:
        return self.state.traj

    @property
    def report(self) -> EnergyReport:
        return self.state.report

    def verdict(self, tol: float) -> CertificateVerdict:
        """:func:`~benpde.energy.certificate` of the final iterate at ``tol``."""
        return self.state.verdict(tol)


@dataclass(frozen=True)
class CompareResult:
    """Discrepancy of two trajectories: relative mixed L2 norm and the
    largest single-node deviation."""

    rel_l2: float
    max_node: float


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


def _theta_sweep(bands, rhs, tau: float, theta: float):
    """Newton step of the theta scheme ``R_k = (u_{k+1} - u_k)/tau +
    F(theta u_{k+1} + (1 - theta) u_k)``, block lower-bidiagonal in time:
    from ``delta_0 = 0``,

        delta_{k+1} = P_k^{-1}(-R_k + delta_k/(theta tau))
                      - ((1 - theta)/theta) delta_k,

    with the bands of ``P_k = I/tau + theta DF`` side by side in ``bands``
    and ``-R_k`` in row ``k`` of ``rhs``: one :func:`~benpde.grid.sweep_bands`,
    which returns ``delta`` (one row more than ``rhs``) and the first slice
    whose solve is singular or not finite, or ``None``.  ``theta`` is 1/2 or
    1, so ``(1 - theta)/theta`` is 1 or 0.
    """
    return sweep_bands(bands, rhs, 1.0 / (theta * tau), theta != 1.0)


def _gauss_newton_direction(model: ModelSpec, traj: Trajectory, state=None):
    """Gauss-Newton step ``delta = -R'(u)^{-1} R(u)`` on the midpoint
    residuals ``R_k = -H_k + lam DPsi(lam m_k)``, or ``None`` when the sweep
    fails: the theta = 1/2 sweep of :func:`_theta_sweep` with
    ``DF = DLambda(m_k) + lam D^2Psi(lam m_k)``, all bands from one
    :func:`~benpde.models.jacobian_bands` call.  The midpoints, dual
    residuals and ``DPsi(lam m_k)`` are read from ``state``, the gradient
    assembly of ``traj``, which is built when not given.
    """
    if state is None:
        state = _assemble(model, traj, gradient=True)
    grid, tau = traj.grid, traj.tau
    R = -state.H + float(model.lam) * state.dpsi if model.lam else -state.H
    blocks = state.mids.reshape((-1, 1) + grid.shape)  # one per (slice, component)
    bands = jacobian_bands(model, grid, blocks, np.repeat(state.t_mid, traj.k),
                           1.0 / tau, 0.5)
    delta, singular = _theta_sweep(bands, -R.reshape(traj.n_steps, -1), tau, 0.5)
    return None if singular is not None else delta.reshape(traj.states.shape)


def minimize(model: ModelSpec, init: Trajectory,
             opts: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Drive the certificate energy to zero over the free trajectory nodes.

    Damped Gauss-Newton on the midpoint residuals (see
    :func:`_gauss_newton_direction`), with Armijo backtracking on ``J`` from
    the unit step; the initial state never moves.  When the sweep fails or
    its direction is not a descent direction in the time-weighted inner
    product, the step is ``-g`` with first trial ``min(1, 1/|g|)``.  Each
    trial is one assembly with its gradient; the accepted one is kept for
    the next direction and the outcome's verdict, so an iterate is assembled
    once.  Deterministic for fixed inputs.  A trial whose energy raises
    :class:`~benpde.errors.ConjugateSolveError` or
    :class:`~benpde.errors.ModelEvaluationError` is rejected like one that
    fails the Armijo test.  Raises :class:`~benpde.errors.LineSearchError`
    (carrying the last outcome) if no trial step is accepted.
    """
    weight = init.tau * init.grid.cell_volume
    state = _assemble(model, init, gradient=True)
    gnorm = mixed_norm(init, state.gradient)
    history = [(state.report.total, gnorm)]

    def done(st, gn):
        return gn <= opts.grad_tol or st.report.normalized <= opts.energy_tol

    def outcome(converged):
        return SolveOutcome(state=state, iterations=iterations,
                            converged=converged, history=np.asarray(history))

    iterations = 0
    while not done(state, gnorm) and iterations < opts.max_iters:
        traj, total = state.traj, state.report.total
        direction, step = _gauss_newton_direction(model, traj, state), 1.0
        slope = (np.nan if direction is None
                 else weight * float(np.vdot(state.gradient, direction)))
        if not slope < 0.0:  # NaN too: the sweep failed
            direction, slope = -state.gradient, -gnorm**2
            step = min(1.0, 1.0 / max(gnorm, 1e-30))
        # the trials need only what the verdict reads of the accepted state
        state = replace(state, H=None, dpsi=None, gradient=None)
        for _ in range(opts.max_line_trials):
            try:
                trial = _assemble(model, traj.with_tail(
                    traj.states[1:] + step * direction[1:]), gradient=True)
            except (ConjugateSolveError, ModelEvaluationError):
                trial = None  # a trial that cannot be priced is rejected
            if (trial is not None and trial.report.total
                    <= total + opts.armijo_c1 * step * slope):
                break
            step *= opts.backtrack
        else:
            raise LineSearchError(
                f"line search found no descent step after "
                f"{opts.max_line_trials} trials at iteration {iterations}",
                outcome=outcome(False))

        state, trial, direction = trial, None, None  # drop the spent arrays
        gnorm = mixed_norm(state.traj, state.gradient)
        history.append((state.report.total, gnorm))
        iterations += 1

    return outcome(done(state, gnorm))


# -- implicit stepping baseline --------------------------------------------------------


def implicit_baseline(model: ModelSpec, w0, times, *, newton_tol: float = 1e-12,
                      max_newton: int = 50) -> Trajectory:
    """Solve the fully implicit scheme, for every step ``k``,

        (u_{k+1} - u_k)/tau + Lambda_{t_{k+1}}(u_{k+1}) + DPsi(lam u_{k+1}) = 0,

    by Newton on the whole trajectory from the constant extension of
    ``w0``, one theta = 1 :func:`_theta_sweep` per iteration.  Step ``k``
    is done once its residual is at most ``newton_tol * max(1, |R_k(u_k ->
    u_k)|_H)``.  Done leading steps are frozen; damping halves the update of
    the rest until the residual of the first of them, the front step,
    drops.  Raises :class:`~benpde.errors.TimeStepError` naming the front
    step when it has taken ``max_newton`` Newton steps, when its Jacobian is
    singular or when damping stalls; a later singular step only stops the
    sweep there.
    """
    t = np.asarray(times, dtype=float)
    if not isinstance(w0, Field):
        raise ValueError("implicit_baseline needs a Field initial state")
    grid = w0.grid
    tau = float(t[1] - t[0])

    def residuals(u, tu):
        """Residuals of consecutive states ``u`` at times ``tu``, their H
        norms and the norms of ``R_k(u_k -> u_k)``, from one batched ``F``."""
        m = u.shape[0] - 1
        both = np.concatenate([u[1:], u[:-1]])
        F = lambda_density(model, grid, both, np.concatenate([tu[1:]] * 2))
        if model.lam:
            F = F + psi_gradient_density(model.density, grid,
                                         float(model.lam) * both)
        R = (u[1:] - u[:-1]) / tau + F[:m]
        both = np.concatenate([R, F[m:]])
        norms = np.sqrt(h_inner_batch(grid, both, both))
        return R, norms[:m], norms[m:]

    u = np.repeat(_initial_state(grid, w0)[None], t.size, axis=0)
    R, rnorm, start = residuals(u, t)
    front = steps = 0  # the front step and the Newton steps taken on it

    def failure(why):
        return TimeStepError(f"step {front}: {why} at residual "
                             f"{rnorm[0]:.3e}", front, rnorm[0])

    while True:
        met = rnorm <= newton_tol * np.maximum(1.0, start)
        if met.all():
            return Trajectory(grid, t, u)
        lead = int(np.argmin(met))  # steps newly done ahead of the front
        if lead:
            front, steps, R, rnorm = front + lead, 0, R[lead:], rnorm[lead:]
        if steps >= max_newton:
            raise failure("Newton hit the iteration cap")
        blocks = u[front + 1:].reshape((-1, 1) + grid.shape)
        bands = jacobian_bands(model, grid, blocks,
                               np.repeat(t[front + 1:], u.shape[1]),
                               1.0 / tau, 1.0)
        delta, singular = _theta_sweep(bands, -R.reshape(len(R), -1), tau,
                                       1.0)
        if singular == 0:
            raise failure("singular Newton Jacobian")
        delta, scale = delta[1:].reshape(R.shape), 1.0
        for _ in range(MAX_HALVINGS):
            trial = np.concatenate([u[front:front + 1],
                                    u[front + 1:] + scale * delta])
            found = residuals(trial, t[front:])
            if found[1][0] < rnorm[0]:
                break
            scale *= 0.5
        else:
            raise failure("Newton damping stalled")
        u[front:] = trial
        R, rnorm, start = found
        steps += 1


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
