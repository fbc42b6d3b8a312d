"""Minimizer, implicit baseline, comparisons, and the uniqueness probe."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import benpde.solver
from benpde.energy import certificate, energy_and_gradient, residual
from benpde.errors import LineSearchError, ModelEvaluationError, TimeStepError
from benpde.grid import Field, SpaceGrid, Trajectory, h_norm, uniform_times
from benpde.models import adversarial_model, build_model, psi_gradient_density
from benpde.solver import (
    CompareResult,
    SolveOptions,
    SolveOutcome,
    compare,
    constant_initial_trajectory,
    implicit_baseline,
    minimize,
    random_initial_trajectory,
    uniqueness_probe,
)
from test_energy import _heat_midpoint_solution

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

    def run(fail_first):
        trials = []

        def price_or_raise(m, traj):
            if traj is not init:  # the start is priced before any trial
                trials.append(traj.states[1:] - init.states[1:])
                if fail_first and len(trials) == 1:
                    raise ModelEvaluationError("injected failure")
            return energy_and_gradient(m, traj)

        monkeypatch.setattr(benpde.solver, "energy_and_gradient",
                            price_or_raise)
        return minimize(model, init, opts), trials

    clean, clean_trials = run(False)
    out, trials = run(True)
    assert out.converged
    np.testing.assert_allclose(trials[1], opts.backtrack * trials[0],
                               rtol=1e-10, atol=0.0)
    assert len(trials) == len(clean_trials)
    np.testing.assert_array_equal(out.history, clean.history)


def test_minimize_requires_locked_initial_state():
    grid, times, w0 = _sine_setup()
    init = constant_initial_trajectory(grid, times, w0)
    init.initial_locked = False
    with pytest.raises(ValueError, match="locked"):
        minimize(build_model("heat"), init)


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


@pytest.mark.parametrize("case", ["1d", "2d", "lam0", "2comp"])
def test_gauss_newton_direction_is_midpoint_error(case):
    model, exact = _midpoint_case(case)
    rng = np.random.default_rng(4)
    u = exact.with_tail(exact.states[1:]
                        + rng.normal(size=exact.states[1:].shape))
    delta = benpde.solver._gauss_newton_direction(model, u)
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
        delta = benpde.solver._gauss_newton_direction(model, u)
        assert _slope(u, g, delta) == pytest.approx(-2.0 * report.total,
                                                    rel=1e-12)


def test_gauss_newton_descends_for_quartic_density():
    grid, times, w0 = _sine_setup()
    model = build_model("divergence_form", q=4.0)
    for seed in range(3):
        u = random_initial_trajectory(grid, times, w0, seed=seed, noise=1.0)
        report, g = energy_and_gradient(model, u)
        delta = benpde.solver._gauss_newton_direction(model, u)
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
        assert benpde.solver._gauss_newton_direction(model, init) is None
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


def test_baseline_zero_start_stays_zero():
    g = SpaceGrid(dim=1, n=7)
    for name in ("heat", "burgers"):
        traj = implicit_baseline(build_model(name), Field(g, np.zeros(7)),
                                 uniform_times(0.5, 5))
        np.testing.assert_array_equal(traj.states, np.zeros((6, 1, 7)))


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
    step = np.eye(g.n_nodes) / traj.tau + g.neg_laplacian.toarray()
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
    opts = SolveOptions(max_iters=2500, grad_tol=1e-13, energy_tol=1e-13,
                        seed=21)
    probe = uniqueness_probe(build_model("heat"), grid, times,
                             Field(grid, w0), opts, n_seeds=3)
    assert probe.max_pairwise <= 1e-4
    assert probe.seeds == [21, 22, 23]


def test_uniqueness_probe_needs_two_seeds():
    grid, times, w0 = _sine_setup()
    with pytest.raises(ValueError, match="two seeds"):
        uniqueness_probe(build_model("heat"), grid, times, Field(grid, w0),
                         SolveOptions(), n_seeds=1)
