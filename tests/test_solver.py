"""Minimizer, implicit baseline, comparisons, and the uniqueness probe."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

import benpde.energy
import benpde.solver
from benpde.energy import (_assemble, _dual_residuals, certificate,
                           energy_and_gradient, eval_energy, residual)
from benpde.errors import LineSearchError, ModelEvaluationError, TimeStepError
from benpde.grid import (Field, SpaceGrid, Trajectory, h_norm, sweep_bands,
                         uniform_times)
from benpde.models import (adversarial_model, build_model, jacobian_bands,
                           lambda_density, psi_gradient_density)
from benpde.solver import (
    CompareResult,
    SolveOptions,
    SolveOutcome,
    compare,
    constant_initial_trajectory,
    implicit_baseline,
    minimize,
    random_initial_trajectory,
)
from test_energy import _heat_midpoint_solution
from test_grid import band_matrix, dense_neg_laplacian
from uniqueness import uniqueness_probe

COARSE_SCHEME_GAP = 5e-2  # implicit Euler vs midpoint at tau = 1.25e-2


def _sine_setup(n=9, n_steps=8, t_end=0.1):
    grid = SpaceGrid(dim=1, n=n)
    times = uniform_times(t_end, n_steps)
    w0 = np.sin(np.pi * grid.node_coords[0])
    return grid, times, w0


# -- options and initialization -----------------------------------------------------


def test_options_validation():
    with pytest.raises(ValueError, match="grad_tol"):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError, match="^tol: "):
        SolveOptions(tol=0.0)
    with pytest.raises(ValueError, match="backtrack"):
        SolveOptions(backtrack=1.0)
    with pytest.raises(ValueError, match="max_line_trials"):
        SolveOptions(max_line_trials=0)
    with pytest.raises(ValueError, match="max_iters"):
        SolveOptions(max_iters=-1)


def test_constant_initialization_extends_w0():
    grid, times, w0 = _sine_setup()
    traj = constant_initial_trajectory(grid, times, w0)
    assert traj.n_steps == 8
    for k in range(9):
        np.testing.assert_array_equal(traj.states[k, 0], w0)


def test_random_initialization_keeps_w0_and_is_seeded():
    grid, times, w0 = _sine_setup()
    a = random_initial_trajectory(grid, times, w0, seed=5)
    b = random_initial_trajectory(grid, times, w0, seed=5)
    c = random_initial_trajectory(grid, times, w0, seed=6)
    np.testing.assert_array_equal(a.states[0, 0], w0)
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert not np.array_equal(a.states[1], a.states[2])


# -- minimize ------------------------------------------------------------------------


def test_trivial_problem_converges_at_iteration_zero():
    grid = SpaceGrid(dim=1, n=9)
    times = uniform_times(0.1, 6)
    init = constant_initial_trajectory(grid, times, np.zeros(9))
    out = minimize(build_model("heat"), init)
    assert isinstance(out, SolveOutcome)
    assert out.converged
    assert out.iterations == 0
    assert out.report.total == 0.0


@pytest.mark.parametrize("name", ["heat", "burgers"])
def test_minimize_reaches_certificate_tolerances(name):
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=1)
    opts = SolveOptions(max_iters=2000, grad_tol=1e-13, energy_tol=1e-12)
    out = minimize(build_model(name), init, opts)
    assert out.converged
    assert out.report.normalized <= 1e-12
    # the initial state never moves
    np.testing.assert_array_equal(out.trajectory.states[0], init.states[0])


def test_minimize_history_is_monotone_and_deterministic():
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=2)
    opts = SolveOptions(max_iters=300, grad_tol=1e-10, energy_tol=1e-10)
    a = minimize(build_model("heat"), init, opts)
    b = minimize(build_model("heat"), init, opts)
    assert np.all(np.diff(a.history[:, 0]) <= 0.0)
    np.testing.assert_array_equal(a.history, b.history)
    assert a.history.shape[1] == 2
    assert a.history.shape[0] == a.iterations + 1


def test_minimize_matches_baseline_at_coarse_tolerance():
    grid, times, w0 = _sine_setup()
    m = build_model("heat")
    init = random_initial_trajectory(grid, times, w0, seed=3)
    out = minimize(m, init, SolveOptions(max_iters=2000, grad_tol=1e-13,
                                         energy_tol=1e-12))
    base = implicit_baseline(m, Field(grid, w0), times)
    assert compare(out.trajectory, base).rel_l2 <= COARSE_SCHEME_GAP


def test_line_search_failure_carries_last_outcome():
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=0, noise=1.0)
    opts = SolveOptions(max_iters=200, max_line_trials=1, armijo_c1=0.75)
    with pytest.raises(LineSearchError) as info:
        minimize(build_model("divergence_form", q=4.0), init, opts)
    out = info.value.outcome
    assert out is not None and not out.converged
    assert out.history.shape[0] >= 1
    assert out.trajectory.states.shape == init.states.shape


def test_line_search_rejects_a_trial_that_raises(monkeypatch):
    # With c1 = 0.75 the Armijo test rejects the first trial of the first
    # line search, so a raise there must cost nothing but that one trial.
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=1)
    opts = SolveOptions(max_iters=2000, grad_tol=1e-13, energy_tol=1e-12,
                        armijo_c1=0.75)
    model = build_model("divergence_form", q=4.0)
    merit = benpde.solver._merit

    def run(fail_first):
        trials = []

        def price_or_raise(m, traj, theta=0.5):
            if traj is not init:  # the start is priced before any trial
                trials.append(traj.states[1:] - init.states[1:])
                if fail_first and len(trials) == 1:
                    raise ModelEvaluationError("injected failure")
            return merit(m, traj, theta)

        monkeypatch.setattr(benpde.solver, "_merit", price_or_raise)
        return minimize(model, init, opts), trials

    clean, clean_trials = run(False)
    out, trials = run(True)
    assert out.converged
    np.testing.assert_allclose(trials[1], opts.backtrack * trials[0],
                               rtol=1e-10, atol=0.0)
    assert len(trials) == len(clean_trials)
    np.testing.assert_array_equal(out.history, clean.history)


def test_max_iters_reached_is_a_valid_outcome():
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=9)
    out = minimize(build_model("divergence_form", q=4.0), init,
                   SolveOptions(max_iters=3, grad_tol=1e-15, energy_tol=1e-15))
    assert not out.converged
    assert out.iterations == 3


# -- Gauss-Newton direction ---------------------------------------------------------


def _heat_midpoint_solution_2d(n, n_steps, t_end):
    """Dense midpoint-scheme solve of 2-D heat flow from sin(pi x) sin(pi y)."""
    h = 1.0 / (n + 1)
    tau = t_end / n_steps
    lap1 = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
            - np.diag(np.ones(n - 1), -1)) / h**2
    A = np.kron(lap1, np.eye(n)) + np.kron(np.eye(n), lap1)
    x = np.arange(1, n + 1) * h
    states = [np.outer(np.sin(np.pi * x), np.sin(np.pi * x)).ravel()]
    lhs = np.eye(n * n) / tau + 0.5 * A
    rhs = np.eye(n * n) / tau - 0.5 * A
    for _ in range(n_steps):
        states.append(np.linalg.solve(lhs, rhs @ states[-1]))
    grid = SpaceGrid(dim=2, n=n)
    return grid, Trajectory(grid, uniform_times(t_end, n_steps),
                            np.asarray(states).reshape(-1, 1, n, n))


def _midpoint_case(case):
    """Heat model and its midpoint-scheme solution for one direction case."""
    heat = build_model("heat")
    if case == "1d":
        return heat, _heat_midpoint_solution(n=9, n_steps=8, t_end=0.1)[1]
    if case == "2d":
        return heat, _heat_midpoint_solution_2d(n=5, n_steps=8, t_end=0.1)[1]
    if case == "2comp":  # heat flow moves each component on its own
        one = _heat_midpoint_solution(n=9, n_steps=8, t_end=0.1)[1]
        return heat, Trajectory(one.grid, one.times, np.concatenate(
            [one.states, -2.0 * one.states], axis=1))
    # lam = 0 leaves only the dual residual, so the scheme keeps u_0 fixed
    # (the midpoint solution with zero diffusion)
    return (replace(heat, lam=0),
            _heat_midpoint_solution(n=9, n_steps=8, t_end=0.1, a=0.0)[1])


def _direction(model, traj):
    """The Gauss-Newton direction at the midpoint merit state of ``traj``."""
    return benpde.solver._gauss_newton_direction(benpde.solver._merit(model, traj))


@pytest.mark.parametrize("case", ["1d", "2d", "lam0", "2comp"])
def test_gauss_newton_direction_is_midpoint_error(case):
    model, exact = _midpoint_case(case)
    rng = np.random.default_rng(4)
    u = exact.with_tail(exact.states[1:]
                        + rng.normal(size=exact.states[1:].shape))
    delta = _direction(model, u)
    err = u.states - exact.states
    np.testing.assert_allclose(-delta, err, rtol=0.0,
                               atol=1e-9 * np.max(np.abs(err)))


def _slope(u, g, delta):
    return u.tau * u.grid.cell_volume * float(np.vdot(g, delta))


@pytest.mark.parametrize("case", ["1d", "2d", "lam0", "burgers", "divform_q2",
                                  "adversarial"])
def test_gauss_newton_slope_is_minus_twice_the_energy(case):
    # For a quadratic density J = (tau/2) sum_k <R_k, (cA)^{-1} R_k>_H, so the
    # slope along delta = -R'^{-1} R is exactly -2J, drift or not.
    if case in ("1d", "2d", "lam0"):
        model, base = _midpoint_case(case)
    else:
        grid, times, w0 = _sine_setup()
        model = (build_model("divergence_form", q=2.0)
                 if case == "divform_q2" else build_model(case))
        base = random_initial_trajectory(grid, times, w0, seed=0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = base.with_tail(base.states[1:]
                           + rng.normal(size=base.states[1:].shape))
        report, g = energy_and_gradient(model, u)
        delta = _direction(model, u)
        assert _slope(u, g, delta) == pytest.approx(-2.0 * report.total,
                                                    rel=1e-12)


def _theta_sweep(bands, rhs, tau, theta):
    """The theta-scheme sweep that the Gauss-Newton direction takes:
    ``delta_{k+1} = P_k^{-1}(rhs_k + delta_k/(theta tau))
    - ((1 - theta)/theta) delta_k`` from ``delta_0 = 0``, theta 1/2 or 1."""
    return sweep_bands(bands, rhs, 1.0 / (theta * tau), theta != 1.0)


def _direction_from_scratch(model, traj):
    """Gauss-Newton direction with every input recomputed from ``traj``."""
    grid, tau, lam = traj.grid, traj.tau, float(model.lam)
    mids, t_mid, H = _dual_residuals(model, grid, tau, traj.times, traj.states)
    R = -H
    if model.lam:
        R = R + lam * psi_gradient_density(model.density, grid, lam * mids)
    bands = jacobian_bands(model, grid, mids.reshape((-1, 1) + grid.shape),
                           np.repeat(t_mid, traj.k), 1.0 / tau, 0.5)
    delta, failed = _theta_sweep(bands, -R.reshape(traj.n_steps, -1), tau,
                                 0.5)
    assert failed is None
    return delta.reshape(traj.states.shape)


_MODELS = [("heat", {}), ("burgers", {}), ("divergence_form", {"q": 4.0}),
           ("adversarial", {})]
_MODEL_IDS = ["heat", "burgers", "divform_q4", "adversarial"]


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("name,params", _MODELS, ids=_MODEL_IDS)
def test_kept_state_gives_the_same_direction_and_verdict(name, params, dim, n):
    grid = SpaceGrid(dim=dim, n=n)
    w0 = np.sin(np.pi * grid.node_coords[0])
    init = random_initial_trajectory(grid, uniform_times(0.1, 6), w0, seed=2)
    model = build_model(name, **params)
    out = minimize(model, init, SolveOptions(max_iters=1))
    traj = out.trajectory
    kept = benpde.solver._gauss_newton_direction(out.merit)
    fresh = _direction(model, traj)
    np.testing.assert_array_equal(kept, fresh)
    np.testing.assert_array_equal(kept, _direction_from_scratch(model, traj))
    for tol in (1e-6, 1e-16):
        assert out.verdict(tol) == certificate(model, traj, tol)


def test_line_search_failure_verdict_equals_certificate():
    grid, times, w0 = _sine_setup()
    init = random_initial_trajectory(grid, times, w0, seed=0, noise=1.0)
    model = build_model("divergence_form", q=4.0)
    with pytest.raises(LineSearchError) as info:
        minimize(model, init, SolveOptions(max_line_trials=1, armijo_c1=0.75))
    out = info.value.outcome
    # the state of the last accepted iterate, not of a rejected trial
    assert out.history[-1, 0] == benpde.solver._merit(model, out.trajectory).phi
    assert out.report == eval_energy(model, out.trajectory)
    for tol in (1e-4, 1e-16):
        assert out.verdict(tol) == certificate(model, out.trajectory, tol)


def _noisy_trajectory(dim, n, seed, k=1):
    grid = SpaceGrid(dim=dim, n=n)
    w0 = np.prod(np.sin(np.pi * grid.node_coords), axis=0)
    w0 = np.stack([w0 * (1.0 - 3.0 * c) for c in range(k)])
    return random_initial_trajectory(grid, uniform_times(0.1, 6), w0, seed=seed)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("name", ["heat", "burgers", "adversarial"])
def test_merit_is_a_multiple_of_the_energy_for_quadratic_densities(name, dim, n):
    # Psi*(y) = <y, (-Delta)^{-1} y>/(2(a + eps)), so each Fenchel-Young gap
    # is <R_k, (-Delta)^{-1} R_k>/(2(a + eps)) and phi = (a + eps) J.
    model = build_model(name)
    d = model.density
    for seed in range(3):
        u = _noisy_trajectory(dim, n, seed)
        phi = benpde.solver._merit(model, u).phi
        total = eval_energy(model, u).total
        assert abs(phi - (d.coefficient + d.regularizer) * total) <= 1e-14 * phi


_MERIT_CASES = [(*m, 1) for m in _MODELS] + [("heat", {}, 2)]
_MERIT_IDS = _MODEL_IDS + ["heat_2comp"]


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize(
    "name,params,k,theta",
    [(*c, 0.5) for c in _MERIT_CASES] + [(*c, 1.0) for c in _MERIT_CASES],
    ids=_MERIT_IDS + [f"{i}_theta1" for i in _MERIT_IDS])
def test_merit_gradient_and_gauss_newton_slope(name, params, k, theta, dim, n):
    # grad phi against central differences, and the slope -2 phi along the
    # Gauss-Newton direction, both analytically and by differences, for the
    # midpoint scheme (theta = 1/2) and the implicit one (theta = 1).
    model = build_model(name, **params)
    rng = np.random.default_rng(6)
    e = 1e-6

    def phi_at(u, s, t):
        return benpde.solver._merit(model, u.with_tail(u.states[1:] + t * s[1:]),
                                    theta).phi

    for seed in range(2):
        u = _noisy_trajectory(dim, n, seed, k)
        state = benpde.solver._merit(model, u, theta)
        g = benpde.solver._merit_gradient(state)
        assert np.all(g[0] == 0.0)
        delta = benpde.solver._gauss_newton_direction(state)
        assert _slope(u, g, delta) == pytest.approx(-2.0 * state.phi, rel=1e-12)
        fd = (phi_at(u, delta, e) - phi_at(u, delta, -e)) / (2.0 * e)
        assert fd == pytest.approx(-2.0 * state.phi, rel=1e-6)
        for _ in range(3):
            s = rng.normal(size=u.states.shape)
            fd = (phi_at(u, s, e) - phi_at(u, s, -e)) / (2.0 * e)
            assert _slope(u, g, s) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name,params", _MODELS, ids=_MODEL_IDS)
def test_merit_residual_is_the_theta_scheme_residual(name, params, theta, dim,
                                                     n):
    # The merit reads R = DPsi(m) - H off the certificate's dual residuals;
    # that is the theta-scheme residual bit for bit, with and without Psi.
    u = _noisy_trajectory(dim, n, seed=1)
    x, t = u.states[1:], u.times[1:]
    if theta == 0.5:
        x, t = 0.5 * (u.states[:-1] + x), 0.5 * (u.times[:-1] + t)
    built = build_model(name, **params)
    for model in (built, replace(built, lam=0)):
        want = ((u.states[1:] - u.states[:-1]) / u.tau
                + lambda_density(model, u.grid, x, t))
        if model.lam:
            want = want + psi_gradient_density(model.density, u.grid, x)
        np.testing.assert_array_equal(
            benpde.solver._merit(model, u, theta).R, want)


def test_baseline_prices_only_the_new_states(monkeypatch):
    # Every theta = 1 merit of the baseline, trials included, prices Lambda
    # and DPsi at the M states u_1, ..., u_M and at nothing else.
    batches = []

    def recorded(f):
        def call(model, grid, values, *rest):
            batches.append((f.__name__, len(values)))
            return f(model, grid, values, *rest)
        return call

    monkeypatch.setattr(benpde.energy, "lambda_density",
                        recorded(lambda_density))
    monkeypatch.setattr(benpde.solver, "psi_gradient_density",
                        recorded(psi_gradient_density))
    g = SpaceGrid(dim=1, n=9)
    times = uniform_times(0.1, 8)
    implicit_baseline(build_model("burgers"),
                      Field(g, np.sin(np.pi * g.node_coords[0])), times)
    assert len(batches) >= 4  # the start and at least one trial
    assert set(batches) == {("lambda_density", 8), ("psi_gradient_density", 8)}


def test_gauss_newton_descends_for_quartic_density():
    grid, times, w0 = _sine_setup()
    model = build_model("divergence_form", q=4.0)
    for seed in range(3):
        u = random_initial_trajectory(grid, times, w0, seed=seed, noise=1.0)
        report, g = energy_and_gradient(model, u)
        delta = _direction(model, u)
        assert _slope(u, g, delta) < -report.total


def test_singular_gauss_newton_step_falls_back_to_gradient():
    # One node (h = 1/2, so A = 8) with kappa = 24 and tau = 1/8 makes
    # P_0 = 1/tau + (8 - 24)/2 = 0 exactly: the sweep fails without warnings
    # and -g takes over.
    grid = SpaceGrid(dim=1, n=1)
    init = constant_initial_trajectory(grid, uniform_times(0.25, 2), [1.0])
    model = adversarial_model(kappa=24.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _direction(model, init) is None
        out = minimize(model, init)
    assert out.converged
    assert out.iterations > 0


@pytest.mark.parametrize("n,n_steps,cap", [(17, 16, 15), (65, 128, 20)])
def test_quartic_divergence_form_iteration_gates(n, n_steps, cap):
    # divform_q4.cfg's model, start and tolerances; (17, 16) is its own size
    grid, times, w0 = _sine_setup(n=n, n_steps=n_steps, t_end=0.05)
    model = build_model("divergence_form", q=4.0)
    init = random_initial_trajectory(grid, times, w0, seed=3, noise=0.25)
    out = minimize(model, init, SolveOptions(max_iters=3000, grad_tol=1e-13,
                                             energy_tol=1e-12))
    assert out.converged
    assert out.iterations <= cap
    assert certificate(model, out.trajectory, 1e-4).solved


def test_preconditioned_heat_reaches_certificate_in_two_iterations():
    # heat.cfg sizes and tolerances: n = 33, M = 64, noise 0.5, seed 7
    grid, times, w0 = _sine_setup(n=33, n_steps=64)
    model = build_model("heat")
    init = random_initial_trajectory(grid, times, w0, seed=7, noise=0.5)
    out = minimize(model, init, SolveOptions(max_iters=4000, grad_tol=1e-14,
                                             energy_tol=2e-13))
    assert out.converged
    assert out.iterations <= 2
    assert certificate(model, out.trajectory, 1e-6).solved


# -- implicit baseline ----------------------------------------------------------------


def test_baseline_single_node_closed_form():
    # One interior node, h=1/2: step equation u1 - u0 = -8 tau u1, so
    # u0=1, tau=1/8 gives u1 = 0.5 exactly.
    g = SpaceGrid(dim=1, n=1)
    traj = implicit_baseline(build_model("heat"), Field(g, np.array([1.0])),
                             uniform_times(0.125, 1))
    np.testing.assert_allclose(traj.states[1], [[0.5]], atol=1e-13)


# Where the implicit and midpoint schemes coincide, the baseline is an exact
# midpoint solution: J vanishes exactly and the certificate accepts it.


def test_baseline_zero_start_stays_zero():
    for g in (SpaceGrid(dim=1, n=7), SpaceGrid(dim=2, n=4)):
        for name in ("heat", "burgers", "adversarial"):
            model = build_model(name)
            traj = implicit_baseline(model, Field(g, np.zeros(g.shape)),
                                     uniform_times(0.5, 5))
            np.testing.assert_array_equal(traj.states,
                                          np.zeros((6, 1) + g.shape))
            assert eval_energy(model, traj).total == 0.0
            assert certificate(model, traj, 1e-12).solved


@pytest.mark.parametrize("dim", [1, 2])
@given(values=st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9))
@settings(max_examples=20, deadline=None)
def test_certificate_accepts_baseline_of_frozen_heat(dim, values):
    # lam = 0 leaves du/dt = 0, which both schemes solve by keeping w0
    g = SpaceGrid(dim=dim, n=9 if dim == 1 else 3)
    model = replace(build_model("heat"), lam=0)
    traj = implicit_baseline(model, Field(g, np.reshape(values, g.shape)),
                             uniform_times(0.1, 4))
    assert eval_energy(model, traj).total == 0.0
    assert certificate(model, traj, 1e-12).solved


def test_baseline_tracks_separable_exact_solution():
    g = SpaceGrid(dim=1, n=17)
    x = g.node_coords[0]
    times = uniform_times(0.1, 32)
    traj = implicit_baseline(build_model("heat"), Field(g, np.sin(np.pi * x)),
                             times)
    exact = (np.exp(-np.pi**2 * times)[:, None, None]
             * np.sin(np.pi * x)[None, None, :])
    w = traj.tau * g.cell_volume
    rel = np.sqrt(np.sum((traj.states - exact)**2) / np.sum(exact**2))
    assert rel <= 5e-2


def test_baseline_2d_heat_matches_dense_backward_euler():
    # Each step equals (I/tau + A)^{-1} u_k / tau with the dense 5-point A,
    # which exercises the stride-n bands of the 2-D Newton solve.
    g = SpaceGrid(dim=2, n=5)
    times = uniform_times(0.1, 8)
    w0 = np.random.default_rng(43).normal(size=g.shape)
    traj = implicit_baseline(build_model("heat"), Field(g, w0), times)
    step = np.eye(g.n_nodes) / traj.tau + dense_neg_laplacian(g)
    for k in range(traj.n_steps):
        want = np.linalg.solve(step, traj.states[k].ravel() / traj.tau)
        got = traj.states[k + 1].ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_baseline_step_failure_reports_index():
    g = SpaceGrid(dim=1, n=5)
    w0 = Field(g, np.ones(5))
    with pytest.raises(TimeStepError) as info:
        implicit_baseline(build_model("heat"), w0, uniform_times(0.1, 4),
                          max_newton=0)
    assert info.value.step_index == 0
    assert info.value.residual > 0.0


def test_baseline_overflowed_residual_is_never_met():
    # At 1e155 every step's residual norm and target overflow to inf; that
    # must fail at step 0, not pass inf <= inf and return the constant start.
    g = SpaceGrid(dim=1, n=9)
    wave = np.sin(np.pi * g.node_coords[0])
    times = uniform_times(0.1, 4)
    with pytest.raises(TimeStepError, match="step 0: non-finite") as info:
        implicit_baseline(build_model("heat"), Field(g, 1e155 * wave), times)
    assert info.value.step_index == 0
    assert info.value.residual == np.inf
    peaks = np.max(np.abs(implicit_baseline(
        build_model("heat"), Field(g, 1e150 * wave), times).states), axis=(1, 2))
    np.testing.assert_allclose(peaks[1:] / peaks[:-1], 0.8, rtol=0.02)


@pytest.mark.parametrize("name,params,dim,n", [
    ("burgers", {}, 1, 17),
    ("divergence_form", {"q": 4.0}, 1, 17),
    ("adversarial", {}, 1, 17),
    ("burgers", {}, 2, 6),
])
def test_baseline_meets_every_step_target(name, params, dim, n):
    # Recompute each backward-Euler residual one step at a time and hold it
    # to the step's own target, scaled by the terms F(u_{k+1}) at t_{k+1}
    # (and, as these residuals allow, by F(u_k)); a looser tolerance than
    # the default lets the target, not rounding, decide when a step is met.
    tol = 1e-10
    g = SpaceGrid(dim=dim, n=n)
    x = g.node_coords
    w0 = 2.0 * np.prod(np.sin(np.pi * x), axis=0)
    times = uniform_times(0.1, 16)
    model = build_model(name, **params)
    traj = implicit_baseline(model, Field(g, w0), times, newton_tol=tol)

    def F(u, t):
        return (lambda_density(model, g, u, t)
                + psi_gradient_density(model.density, g, u))

    for k in range(traj.n_steps):
        u0, u1, t1 = traj.states[k], traj.states[k + 1], times[k + 1]
        r = (u1 - u0) / traj.tau + F(u1, t1)
        assert h_norm(g, r) <= tol * max(1.0, h_norm(g, F(u1, t1))), k
        assert h_norm(g, r) <= tol * max(1.0, h_norm(g, F(u0, t1))), k


def test_baseline_components_step_independently():
    # heat flow moves each component on its own, so a two-component
    # baseline is the pair of one-component baselines
    g = SpaceGrid(dim=1, n=9)
    w0 = np.random.default_rng(5).normal(size=(2, 9))
    times = uniform_times(0.1, 6)
    both = implicit_baseline(build_model("heat"), Field(g, w0), times)
    for c in range(2):
        one = implicit_baseline(build_model("heat"), Field(g, w0[c]), times)
        np.testing.assert_allclose(both.states[:, c], one.states[:, 0],
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name,params,dim,n,n_steps,t_end,cap", [
    ("heat", {}, 1, 33, 64, 0.1, 1),
    ("burgers", {}, 1, 33, 64, 0.1, 4),
    ("burgers", {}, 1, 65, 128, 0.1, 4),
    ("divergence_form", {"q": 4.0}, 1, 17, 16, 0.05, 7),
    ("burgers", {}, 2, 6, 8, 0.1, 3),
    ("divergence_form", {"q": 4.0}, 2, 6, 8, 0.05, 7),
])
def test_baseline_newton_sweep_counts(monkeypatch, name, params, dim, n,
                                      n_steps, t_end, cap):
    # The bundled models and initial states at the sizes the benchmark and
    # CI run: a line search that damped more would take more sweeps.
    g = SpaceGrid(dim=dim, n=n)
    w0 = Field(g, np.prod(np.sin(np.pi * g.node_coords), axis=0))
    carries = []

    def counted(bands, rhs, lag, carry):
        carries.append(carry)
        return sweep_bands(bands, rhs, lag, carry)

    monkeypatch.setattr(benpde.solver, "sweep_bands", counted)
    implicit_baseline(build_model(name, **params), w0,
                      uniform_times(t_end, n_steps))
    assert 1 <= len(carries) <= cap
    assert set(carries) == {False}  # theta = 1 carries nothing


def _dense_sweep_case(dim, n, theta, n_steps=5):
    """Bands of ``P_k`` for burgers at random states, a random right-hand
    side, and the dense solve of the whole theta-scheme Newton system."""
    g = SpaceGrid(dim=dim, n=n)
    model = build_model("burgers")
    rng = np.random.default_rng(dim + 10 * n)
    tau = 0.05
    states = rng.normal(size=(n_steps, 1) + g.shape)
    times = tau * np.arange(1, n_steps + 1)
    bands = jacobian_bands(model, g, states, times, 1.0 / tau, theta)
    K = band_matrix(jacobian_bands(model, g, states, times, 0.0, 1.0))
    K = K.toarray()
    N = g.n_nodes
    eye = np.eye(N)
    system = np.zeros((n_steps * N, n_steps * N))
    for k in range(n_steps):
        Kk = K[k * N:(k + 1) * N, k * N:(k + 1) * N]
        rows = slice(k * N, (k + 1) * N)
        system[rows, rows] = eye / tau + theta * Kk  # d R_k / d u_{k+1}
        if k:
            system[rows, (k - 1) * N:k * N] = -eye / tau + (1 - theta) * Kk
    rhs = rng.normal(size=(n_steps, N))
    return bands, rhs, tau, system, N


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4)])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_theta_sweep_equals_dense_newton_solve(dim, n, theta):
    bands, rhs, tau, system, N = _dense_sweep_case(dim, n, theta)
    delta, singular = _theta_sweep(bands, rhs, tau, theta)
    want = np.linalg.solve(system, rhs.ravel()).reshape(rhs.shape)
    assert singular is None
    np.testing.assert_array_equal(delta[0], 0.0)
    np.testing.assert_allclose(delta[1:], want, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4)])
def test_theta_sweep_stops_at_singular_slice(dim, n):
    bands, rhs, tau, system, N = _dense_sweep_case(dim, n, 1.0)
    bands[:, 3 * N:4 * N] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, singular = _theta_sweep(bands, rhs, tau, 1.0)
    assert singular == 3
    # block lower-triangular: the first three slices solve on their own
    want = np.linalg.solve(system[:3 * N, :3 * N], rhs[:3].ravel())
    np.testing.assert_allclose(delta[1:4].ravel(), want, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(want)))
    np.testing.assert_array_equal(delta[4:], 0.0)


def _per_slice_sweep(bands, rhs, tau, theta, stop):
    """The theta sweep as a loop of :func:`scipy.linalg.solve_banded` calls
    over the first ``stop`` slices; the later rows stay zero."""
    size, w = rhs.shape[1], bands.shape[0] // 2
    lag, carry = 1.0 / (theta * tau), (1.0 - theta) / theta
    delta = np.zeros((rhs.shape[0] + 1, size))
    for k in range(stop):
        x = solve_banded((w, w), bands[:, k * size:(k + 1) * size],
                         rhs[k] + lag * delta[k])
        delta[k + 1] = x - carry * delta[k]
    return delta


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4)])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_theta_sweep_reports_first_failing_slice(dim, n, theta):
    bands, rhs, tau, _, N = _dense_sweep_case(dim, n, theta, n_steps=8)
    rhs[3, 1] = np.inf  # non-finite but not singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, failed = _theta_sweep(bands, rhs, tau, theta)
    assert failed == 3
    np.testing.assert_array_equal(delta, _per_slice_sweep(bands, rhs, tau,
                                                          theta, 3))
    # a non-finite slice 2 ahead of a singular slice 5
    rhs[3, 1], rhs[2, 0] = 0.0, np.nan
    bands[:, 5 * N:6 * N] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta, failed = _theta_sweep(bands, rhs, tau, theta)
    assert failed == 2
    np.testing.assert_array_equal(delta, _per_slice_sweep(bands, rhs, tau,
                                                          theta, 2))


def test_baseline_requires_field_initial_state():
    with pytest.raises(ValueError, match="Field"):
        implicit_baseline(build_model("heat"), np.ones(5),
                          uniform_times(0.1, 2))


def test_baseline_residual_gap_shrinks_first_order_in_tau():
    # For the implicit scheme the dual residual differs from the midpoint
    # density gradient by the half-step increment, an O(tau) quantity.
    g = SpaceGrid(dim=1, n=9)
    w0 = Field(g, np.sin(np.pi * g.node_coords[0]))
    m = build_model("heat")
    gaps = []
    for n_steps in (8, 16):
        traj = implicit_baseline(m, w0, uniform_times(0.1, n_steps))
        worst = 0.0
        for k in range(traj.n_steps):
            h_k = residual(m, traj, k).values
            mid = 0.5 * (traj.states[k] + traj.states[k + 1])
            gap = h_k - psi_gradient_density(m.density, g, mid)
            worst = max(worst, h_norm(g, gap))
        gaps.append(worst)
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)


# -- compare and uniqueness probe --------------------------------------------------------


def test_compare_identical_and_opposite():
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(12)
    t = uniform_times(0.3, 5)
    a = Trajectory(g, t, rng.normal(size=(6, 1, 9)))
    same = compare(a, a)
    assert same.rel_l2 == 0.0 and same.max_node == 0.0
    flipped = compare(a, Trajectory(g, t, -a.states))
    assert flipped.rel_l2 == pytest.approx(2.0, abs=1e-14)
    # symmetry
    b = Trajectory(g, t, rng.normal(size=(6, 1, 9)))
    assert compare(a, b) == compare(b, a)
    assert isinstance(same, CompareResult)


def test_compare_rejects_mismatched_inputs():
    g = SpaceGrid(dim=1, n=9)
    t = uniform_times(0.3, 5)
    a = Trajectory(g, t, np.zeros((6, 1, 9)))
    b = Trajectory(g, uniform_times(0.3, 4), np.zeros((5, 1, 9)))
    with pytest.raises(ValueError, match="shapes"):
        compare(a, b)
    c = Trajectory(g, uniform_times(0.6, 5), np.zeros((6, 1, 9)))
    with pytest.raises(ValueError, match="time"):
        compare(a, c)


def test_uniqueness_probe_trivial_model_collapses():
    g = SpaceGrid(dim=1, n=9)
    times = uniform_times(0.1, 6)
    opts = SolveOptions(max_iters=1500, grad_tol=1e-13, energy_tol=1e-13)
    probe = uniqueness_probe(build_model("heat"), g, times, Field(g, np.zeros(9)),
                             opts, n_seeds=3)
    # all three minimizers collapse below the degenerate scale, so the probe
    # reports their absolute residual difference
    assert probe.max_pairwise <= 1e-9
    assert probe.converged == [True, True, True]
    assert len(probe.outcomes) == 3


def test_uniqueness_probe_heat_minimizers_agree():
    grid, times, w0 = _sine_setup()
    opts = SolveOptions(max_iters=2500, grad_tol=1e-13, energy_tol=1e-13)
    probe = uniqueness_probe(build_model("heat"), grid, times,
                             Field(grid, w0), opts, n_seeds=3, seed=21)
    assert probe.max_pairwise <= 1e-4
    assert probe.seeds == [21, 22, 23]


def test_uniqueness_probe_needs_two_seeds():
    grid, times, w0 = _sine_setup()
    with pytest.raises(ValueError, match="two seeds"):
        uniqueness_probe(build_model("heat"), grid, times, Field(grid, w0),
                         SolveOptions(), n_seeds=1)
