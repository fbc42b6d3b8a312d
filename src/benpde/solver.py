"""Trajectory-space minimization and the implicit stepping baseline.

Two independent routes to a discrete solution:

* :func:`minimize` drives the certificate energy to zero over all trajectory
  nodes past the locked initial state by damped Gauss-Newton on the
  midpoint residuals ``R_k``, which vanish exactly where the energy does.
  Each direction costs one forward sweep of linearised midpoint steps, and
  a monotone Armijo line search on the residual merit
  ``phi = (tau/2) sum_k <R_k, (-Delta)^{-1} R_k>_H`` accepts it, so heat
  flow is solved in one step and drifts or exponents above two take a few.
  Pricing a trial needs no conjugate: the energy is assembled only to test
  a stop, once the estimated remaining error is small, and a stop stands
  only when that assembly's certificate verdict is solved.
* :func:`implicit_baseline` solves the classical fully implicit scheme by
  damped Newton on the whole trajectory.  Each iteration is one forward
  sweep of the same block-bidiagonal kind, and the leading steps that
  have converged are frozen.

:func:`compare` measures trajectory discrepancies in a relative mixed norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .energy import (CertificateVerdict, EnergyReport, _assemble, _Assembly,
                     _dual_residuals, _node_gradient)
from .errors import (
    ConjugateSolveError,
    LineSearchError,
    ModelEvaluationError,
    NonFiniteInputError,
    TimeStepError,
)
from .grid import (
    Field,
    SpaceGrid,
    Trajectory,
    bands_transpose_apply,
    h_inner,
    h_inner_batch,
    mixed_norm,
    poisson_solve,
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

    A run stops once the certificate verdict at ``tol`` is solved with the
    normalized energy at most ``energy_tol``, or as stalled once the
    time-weighted norm of the merit gradient is at most ``grad_tol``.  The
    line search is Armijo backtracking on the merit with slope fraction
    ``armijo_c1`` and step factor ``backtrack``, from the unit Gauss-Newton
    step.  A ``ValueError`` for a field out of range starts with
    ``"<field>: "``.
    """

    max_iters: int = 500
    grad_tol: float = 1e-9
    energy_tol: float = 1e-12
    tol: float = 1e-6
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_line_trials: int = 40

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters: must be nonnegative")
        for name in ("grad_tol", "energy_tol", "tol", "armijo_c1"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name}: must be positive")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack: must lie in (0, 1)")
        if self.max_line_trials < 1:
            raise ValueError("max_line_trials: must be at least 1")


@dataclass(frozen=True)
class _Merit:
    """Gauss-Newton state of one trajectory: the midpoints and midpoint
    times of every interval, the midpoint residuals ``R``, their lift
    ``W = (-Delta)^{-1} R`` and the merit ``phi``."""

    model: ModelSpec
    traj: Trajectory
    mids: np.ndarray
    t_mid: np.ndarray
    R: np.ndarray
    W: np.ndarray
    phi: float

    @cached_property
    def bands(self) -> np.ndarray:
        """Bands of ``P_k = I/tau + DF(m_k)/2``, one block per (slice,
        component): ``R'`` has ``P_k`` on its block diagonal and
        ``P_k - 2I/tau`` below it."""
        grid, traj = self.traj.grid, self.traj
        return jacobian_bands(self.model, grid,
                              self.mids.reshape((-1, 1) + grid.shape),
                              np.repeat(self.t_mid, traj.k), 1.0 / traj.tau, 0.5)


@dataclass
class SolveOutcome:
    """Result of one minimization run.

    ``merit`` is the state of the last accepted iterate and ``state`` its
    assembly, which ``report`` and :meth:`verdict` read (``None`` if it
    raised).  ``history`` holds one ``(phi, |grad phi|)`` row per accepted
    iterate, the initial one included; ``phi`` is nonincreasing.
    """

    merit: _Merit = field(repr=False)
    state: _Assembly | None = field(repr=False)
    iterations: int
    converged: bool
    history: np.ndarray = field(repr=False)

    @property
    def trajectory(self) -> Trajectory:
        return self.merit.traj

    @property
    def report(self) -> EnergyReport | None:
        return None if self.state is None else self.state.report

    def verdict(self, tol: float) -> CertificateVerdict | None:
        """:func:`~benpde.energy.certificate` of the final iterate at ``tol``."""
        return None if self.state is None else self.state.verdict(tol)


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


def _merit(model: ModelSpec, traj: Trajectory) -> _Merit:
    """The merit ``phi = (tau/2) sum_k <R_k, (-Delta)^{-1} R_k>_H`` of the
    midpoint residuals ``R_k = -H_k + lam DPsi(lam m_k)``: Lambda, DPsi and
    one Poisson solve, no conjugate.  It vanishes exactly where ``J`` does
    and equals ``(a + eps) J`` for quadratic densities."""
    grid, lam = traj.grid, float(model.lam)
    mids, t_mid, H = _dual_residuals(model, grid, traj.tau, traj.times,
                                     traj.states)
    R = (-H + lam * psi_gradient_density(model.density, grid, lam * mids)
         if model.lam else -H)
    W = poisson_solve(grid, -R)
    return _Merit(model, traj, mids, t_mid, R, W,
                  0.5 * traj.tau * h_inner(grid, R, W))


def _merit_gradient(state: _Merit) -> np.ndarray:
    """Nodal gradient ``R'^T W`` of ``phi``, its Riesz representer in the
    time-weighted H product: :func:`~benpde.energy._node_gradient` of ``W``
    and ``C_k = DF(m_k)^T W_k = 2 (P_k^T W_k - W_k/tau)``."""
    traj, W = state.traj, state.W
    PW = bands_transpose_apply(traj.grid, state.bands,
                               W.reshape(traj.n_steps, -1)).reshape(W.shape)
    return _node_gradient(traj, 2.0 * (PW - W / traj.tau), W)


def _gauss_newton_direction(model: ModelSpec, traj: Trajectory, state=None):
    """Gauss-Newton step ``delta = -R'(u)^{-1} R(u)`` on the midpoint
    residuals ``R_k = -H_k + lam DPsi(lam m_k)``, or ``None`` when the sweep
    fails: the theta = 1/2 sweep of :func:`_theta_sweep` with
    ``DF = DLambda(m_k) + lam D^2Psi(lam m_k)``.  The residuals and bands
    are read from ``state``, the :func:`_merit` of ``traj``, built when not
    given.  Along ``delta`` the merit has slope ``-2 phi``.
    """
    if state is None:
        state = _merit(model, traj)
    delta, singular = _theta_sweep(
        state.bands, -state.R.reshape(traj.n_steps, -1), traj.tau, 0.5)
    return None if singular is not None else delta.reshape(traj.states.shape)


def minimize(model: ModelSpec, init: Trajectory,
             opts: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Drive the certificate energy to zero over the free trajectory nodes.

    Damped Gauss-Newton on the midpoint residuals (see
    :func:`_gauss_newton_direction`) with Armijo backtracking from the unit
    step on the merit ``phi`` of :func:`_merit`; the initial state never
    moves.  When the sweep fails the step is ``-grad phi``, first trial
    ``min(1, 1/|grad phi|)``.  A trial that raises
    :class:`~benpde.errors.ModelEvaluationError` or is not finite is
    rejected.  The energy is assembled to test a stop on the certificate
    only once Deuflhard's estimate of the error left after a step
    ``s delta``, ``sqrt(phi_new/phi_old) |s delta|``, is at most
    ``sqrt(energy_tol) (|u| + 1)``, and for the last iterate.  Raises
    :class:`~benpde.errors.LineSearchError` if no trial is accepted; it,
    and a ``ConjugateSolveError`` or ``ModelEvaluationError`` of an
    assembly, carry the last accepted iterate's outcome in ``outcome``.
    """
    merit, state, iterations, history = _merit(model, init), None, 0, []

    def outcome(converged=False):
        return SolveOutcome(merit, state, iterations, converged,
                            np.asarray(history))

    def assemble():
        try:
            return _assemble(model, merit.traj)
        except (ConjugateSolveError, ModelEvaluationError) as exc:
            exc.outcome = outcome()
            raise

    estimate = np.inf if merit.phi else 0.0
    while True:
        grad = _merit_gradient(merit)
        with np.errstate(over="ignore"):  # an overflowed norm reads inf
            gnorm = mixed_norm(merit.traj, grad)
        history.append((merit.phi, gnorm))
        flat = gnorm <= opts.grad_tol  # a stationary point of phi
        if flat or estimate <= (np.sqrt(opts.energy_tol)
                                * (mixed_norm(merit.traj) + 1.0)):
            state = assemble()
            if flat or (state.verdict(opts.tol).solved
                        and state.report.normalized <= opts.energy_tol):
                return outcome(True)
        if iterations >= opts.max_iters:
            break
        traj, phi = merit.traj, merit.phi
        direction, step = _gauss_newton_direction(model, traj, merit), 1.0
        slope = -2.0 * phi
        if direction is None:  # the sweep failed
            direction, slope = -grad, -gnorm**2
            step = min(1.0, 1.0 / max(gnorm, 1e-30))
        for _ in range(opts.max_line_trials):
            try:
                trial = _merit(model, traj.with_tail(
                    traj.states[1:] + step * direction[1:]))
            except (ModelEvaluationError, NonFiniteInputError):
                trial = None  # a trial that cannot be priced is rejected
            if (trial is not None
                    and trial.phi <= phi + opts.armijo_c1 * step * slope):
                break
            step *= opts.backtrack
        else:
            state = state or assemble()
            raise LineSearchError(
                f"line search found no descent step after "
                f"{opts.max_line_trials} trials at iteration {iterations}",
                outcome=outcome())
        estimate = np.sqrt(trial.phi / phi) * step * mixed_norm(traj, direction)
        merit, state, iterations = trial, None, iterations + 1

    state = state or assemble()
    return outcome()


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
