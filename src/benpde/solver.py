"""Trajectory-space minimization and the implicit stepping baseline.

Both routes to a discrete solution are damped Gauss-Newton on the residuals
``R_k = (u_{k+1} - u_k)/tau + F(m_k)`` of a theta scheme, ``m_k`` the
theta-point of interval ``k``: each direction is one forward sweep of
linearised steps, along which the merit
``phi = (tau/2) sum_k <R_k, (-Delta)^{-1} R_k>_H`` has slope ``-2 phi``,
and one Armijo line search on ``phi`` damps it.  ``R_k = lam DPsi(lam m_k)
- H_k`` is read off the certificate's dual residuals ``H_k``
(:func:`~benpde.energy._dual_residuals`), so the energy, the merit and the
baseline share one theta-point residual.

* :func:`minimize` drives the certificate energy to zero on the midpoint
  (theta = 1/2) residuals, which vanish exactly where the energy does.
  Pricing a trial needs no conjugate: the energy is assembled only to test
  a stop, and a stop stands only when its certificate verdict is solved.
* :func:`implicit_baseline` is the theta = 1 run from the constant start:
  the classical fully implicit scheme, stopped once every step meets its
  own residual target ``newton_tol max(1, |F(u_{k+1})|_H)``.

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
    bands_apply,
    h_inner,
    h_norm,
    mixed_norm,
    poisson_solve,
    sweep_bands,
)
from .models import ModelSpec, jacobian_bands, psi_gradient_density

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
    """Gauss-Newton state of one trajectory (:func:`_merit`): the theta-points,
    their times, the residuals ``R``, their lift ``W = (-Delta)^{-1} R`` and
    the merit ``phi``."""

    model: ModelSpec
    traj: Trajectory
    theta: float
    mids: np.ndarray
    t_mid: np.ndarray
    R: np.ndarray
    W: np.ndarray
    phi: float

    @cached_property
    def bands(self) -> np.ndarray:
        """Bands of ``P_k = I/tau + theta DF(m_k)``, one block per (slice,
        component): ``R'`` has ``P_k`` on its block diagonal and
        ``-I/tau + (1 - theta) DF(m_k)`` below it."""
        grid, traj = self.traj.grid, self.traj
        return jacobian_bands(self.model, grid,
                              self.mids.reshape((-1, 1) + grid.shape),
                              np.repeat(self.t_mid, traj.k), 1.0 / traj.tau,
                              self.theta)


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


# -- damped Gauss-Newton: the minimizer and the implicit baseline ----------------------


def _merit(model: ModelSpec, traj: Trajectory, theta: float = 0.5) -> _Merit:
    """The merit ``phi`` of the residuals ``R_k = lam DPsi(lam m_k) - H_k`` at
    the theta-points ``m_k``, theta 1/2 or 1: no conjugate.  At theta = 1/2
    ``phi = (a + eps) J`` for quadratic densities and vanishes exactly where
    ``J`` does."""
    grid = traj.grid
    mids, t_mid, H = _dual_residuals(model, grid, traj.tau, traj.times,
                                     traj.states, theta)
    # lam = 1 if set; -H is (u_{k+1} - u_k)/tau + Lambda(m_k) bit for bit
    R = psi_gradient_density(model.density, grid, mids) - H if model.lam else -H
    W = poisson_solve(grid, -R)
    return _Merit(model, traj, theta, mids, t_mid, R, W,
                  0.5 * traj.tau * h_inner(grid, R, W))


def _merit_gradient(state: _Merit) -> np.ndarray:
    """Nodal gradient ``R'^T W`` of ``phi``, its Riesz representer in the
    time-weighted H product: :func:`~benpde.energy._node_gradient` of ``W``
    and ``C_k = DF(m_k)^T W_k = (P_k^T W_k - W_k/tau)/theta``."""
    traj, W = state.traj, state.W
    PW = bands_apply(traj.grid, state.bands, W.reshape(traj.n_steps, -1),
                     transpose=True).reshape(W.shape)
    return _node_gradient(traj, (PW - W / traj.tau) / state.theta, W,
                          state.theta)


def _gauss_newton_direction(state: _Merit):
    """Gauss-Newton step ``delta = -R'(u)^{-1} R(u)`` on the residuals of the
    :func:`_merit` state of ``u``, or ``None`` when its sweep fails;
    ``DF = DLambda(m_k) + lam D^2Psi(lam m_k)``.  ``R'`` is block
    lower-bidiagonal in time, so one :func:`~benpde.grid.sweep_bands` over
    the :attr:`_Merit.bands` of ``P_k`` gives, from ``delta_0 = 0``,

        delta_{k+1} = P_k^{-1}(-R_k + delta_k/(theta tau))
                      - ((1 - theta)/theta) delta_k,

    the last term 0 at theta = 1.  Along it the merit has slope ``-2 phi``."""
    traj, theta = state.traj, state.theta
    delta, singular = sweep_bands(state.bands, -state.R.reshape(traj.n_steps, -1),
                                  1.0 / (theta * traj.tau), theta != 1.0)
    return None if singular is not None else delta.reshape(traj.states.shape)


def _line_search(merit: _Merit, direction, slope: float, step: float,
                 opts: SolveOptions):
    """Armijo backtracking on the merit along ``direction`` from ``step``,
    as ``opts`` sets it: the accepted trial's :func:`_merit` and step, or
    ``None``.  A trial that raises ``ModelEvaluationError`` or
    ``NonFiniteInputError`` is rejected."""
    traj, phi = merit.traj, merit.phi
    for _ in range(opts.max_line_trials):
        try:
            trial = _merit(merit.model, traj.with_tail(
                traj.states[1:] + step * direction[1:]), merit.theta)
        except (ModelEvaluationError, NonFiniteInputError):
            trial = None  # a trial that cannot be priced is rejected
        if trial is not None and trial.phi <= phi + opts.armijo_c1 * step * slope:
            return trial, step
        step *= opts.backtrack
    return None


def minimize(model: ModelSpec, init: Trajectory,
             opts: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Drive the certificate energy to zero over the free trajectory nodes.

    Damped Gauss-Newton on the midpoint residuals, each step taken by the
    :func:`_line_search` from the unit step; the initial state never moves.
    When the sweep fails the step is ``-grad phi``, first trial
    ``min(1, 1/|grad phi|)``.  The energy is assembled to test a stop only
    once Deuflhard's estimate of the error left after a step ``s delta``,
    ``sqrt(phi_new/phi_old) |s delta|``, is at most
    ``sqrt(energy_tol) (|u| + 1)``, and for the last iterate.  Raises
    :class:`~benpde.errors.LineSearchError` if no trial is accepted; it, and
    a ``ConjugateSolveError`` or ``ModelEvaluationError`` of an assembly,
    carry the last accepted iterate's outcome in ``outcome``.
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
        direction, step = _gauss_newton_direction(merit), 1.0
        slope = -2.0 * merit.phi
        if direction is None:  # the sweep failed
            direction, slope = -grad, -gnorm**2
            step = min(1.0, 1.0 / max(gnorm, 1e-30))
        found = _line_search(merit, direction, slope, step, opts)
        if found is None:
            state = state or assemble()
            raise LineSearchError(
                f"line search found no descent step after "
                f"{opts.max_line_trials} trials at iteration {iterations}",
                outcome=outcome())
        trial, step = found
        estimate = (np.sqrt(trial.phi / merit.phi) * step
                    * mixed_norm(merit.traj, direction))
        merit, state, iterations = trial, None, iterations + 1

    state = state or assemble()
    return outcome()


def implicit_baseline(model: ModelSpec, w0, times, *, newton_tol: float = 1e-12,
                      max_newton: int = 50) -> Trajectory:
    """Solve the fully implicit scheme, for every step ``k``,

        (u_{k+1} - u_k)/tau + Lambda_{t_{k+1}}(u_{k+1}) + DPsi(lam u_{k+1}) = 0,

    as the theta = 1 run of :func:`minimize`'s iteration from the constant
    extension of ``w0`` over the whole trajectory, damped by the
    :func:`_line_search` of the default :class:`SolveOptions`.  It stops
    once every step ``k`` has a residual ``R_k`` of at most
    ``newton_tol * max(1, |F(u_{k+1})|_H)``, where ``F(u_{k+1}) = R_k -
    (u_{k+1} - u_k)/tau`` are the terms at the step's own theta-point.  Raises
    :class:`~benpde.errors.TimeStepError` naming the first step above its
    target when ``max_newton`` Newton steps in all do not suffice, when the
    sweep is singular or not finite, or when the line search stalls; at
    once for a residual norm or target that overflows, which is never met.
    """
    if not isinstance(w0, Field):
        raise ValueError("implicit_baseline needs a Field initial state")
    grid, steps = w0.grid, 0
    merit = _merit(model, constant_initial_trajectory(grid, times, w0), 1.0)
    while True:
        u, R, tau = merit.traj.states, merit.R, merit.traj.tau
        rnorm, scale = h_norm(grid, np.stack([R, R - np.diff(u, axis=0) / tau]))
        target = newton_tol * np.maximum(1.0, scale)
        bad = np.flatnonzero(~np.isfinite(rnorm + target))  # never met
        unmet = bad if bad.size else np.flatnonzero(~(rnorm <= target))
        if not unmet.size:
            return merit.traj
        if bad.size:
            why = "non-finite residual norm or target"
        elif steps >= max_newton:
            why = "Newton hit the iteration cap"
        elif (direction := _gauss_newton_direction(merit)) is None:
            why = "singular Newton Jacobian"
        elif (found := _line_search(merit, direction, -2.0 * merit.phi, 1.0,
                                    SolveOptions())) is None:
            why = "Newton damping stalled"
        else:
            merit, steps = found[0], steps + 1
            continue
        k = unmet[0]
        raise TimeStepError(f"step {k}: {why} at residual {rnorm[k]:.3e}", k,
                            rnorm[k])


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
