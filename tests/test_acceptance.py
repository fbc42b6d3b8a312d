"""Acceptance gate: one test per advertised guarantee, at stated tolerances.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a red run still reports every verdict.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import benpde.convex
from benpde.convex import PowerDensity
from benpde.energy import certificate, energy_and_gradient, eval_energy
from benpde.grid import (
    SpaceGrid,
    Trajectory,
    h_inner,
    h_norm,
    uniform_times,
)
from benpde.models import (
    adversarial_model,
    burgers_model,
    check_all_conditions,
    divergence_form_model,
    heat_model,
    lambda_density,
)
from benpde.solver import (
    SolveOptions,
    compare,
    implicit_baseline,
    minimize,
    random_initial_trajectory,
)
from test_convex import converged_radius, fenchel_young_gap, gradient
from uniqueness import uniqueness_probe

# Tolerances fixed by the advertised guarantees; do not loosen.
NORMALIZED_TOL = 1e-6
DEFECT_REL_TOL = 1e-5
HEAT_BASELINE_TOL = 5e-3
BURGERS_BASELINE_TOL = 1e-2
FD_REL_TOL = 1e-5
IDENTITY_TOL = 1e-12
GAP_FLOOR = -1e-12
GAP_AT_GRAD_TOL = 1e-10
INVERSION_TOL = 1e-10
HEAT_PROBE_TOL = 1e-4
BURGERS_PROBE_TOL = 1e-3
ORDER_RATIO_RANGE = (1.7, 4.5)

TIGHT = SolveOptions(max_iters=4000, grad_tol=1e-14, energy_tol=2e-13)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _sin_initial(grid):
    x = grid.node_coords[0]
    return np.sin(np.pi * x)


def _mixed_norm(traj):
    w = traj.tau * traj.grid.cell_volume
    return float(np.sqrt(w * np.sum(traj.states**2)))


def _reference_setup():
    grid = SpaceGrid(dim=1, n=33)
    times = uniform_times(0.1, 64)
    return grid, times, _sin_initial(grid)


def test_criterion_1_zero_energy_minimization():
    grid, times, w0 = _reference_setup()
    init = random_initial_trajectory(grid, times, w0, seed=0, noise=0.5)
    start = time.perf_counter()
    outcome = minimize(heat_model(), init, TIGHT)
    elapsed = time.perf_counter() - start
    scale = _mixed_norm(outcome.trajectory)
    ok = (outcome.report.normalized <= NORMALIZED_TOL
          and outcome.report.defect_norm <= DEFECT_REL_TOL * scale
          and elapsed <= 60.0)
    _report(1, ok,
            f"normalized={outcome.report.normalized:.2e} (tol {NORMALIZED_TOL:.0e}), "
            f"defect={outcome.report.defect_norm:.2e} <= "
            f"{DEFECT_REL_TOL * scale:.2e}, {elapsed:.1f}s/{outcome.iterations} iters")
    assert outcome.report.normalized <= NORMALIZED_TOL
    assert outcome.report.defect_norm <= DEFECT_REL_TOL * scale
    assert elapsed <= 60.0


def test_criterion_2_matches_implicit_baseline():
    grid, times, w0 = _reference_setup()
    results = {}
    for name, model, tol in (
            ("heat", heat_model(), HEAT_BASELINE_TOL),
            ("burgers", burgers_model(u_max=10.0), BURGERS_BASELINE_TOL)):
        init = random_initial_trajectory(grid, times, w0, seed=0, noise=0.5)
        outcome = minimize(model, init, TIGHT)
        baseline = implicit_baseline(model, grid, times, w0)
        results[name] = (compare(outcome.trajectory, baseline).rel_l2, tol)
    ok = all(err <= tol for err, tol in results.values())
    _report(2, ok, ", ".join(f"{k} rel={err:.2e} (tol {tol:.0e})"
                             for k, (err, tol) in results.items()))
    for name, (err, tol) in results.items():
        assert err <= tol, name


def test_criterion_3_gradient_against_finite_differences():
    grid = SpaceGrid(dim=1, n=9)
    times = uniform_times(0.1, 8)
    worst = 0.0
    for m, model in enumerate((heat_model(), burgers_model(u_max=10.0))):
        rng = np.random.default_rng(100 + m)
        for _ in range(5):
            states = 0.5 * rng.normal(size=(times.size,) + grid.shape)
            traj = Trajectory(grid, times, states)
            _, grad = energy_and_gradient(model, traj)
            for _ in range(20):
                s = rng.normal(size=states.shape)
                s[0] = 0.0
                e = 1e-6
                jp = eval_energy(model, traj.with_tail(states[1:] + e * s[1:]))
                jm = eval_energy(model, traj.with_tail(states[1:] - e * s[1:]))
                fd = (jp.total - jm.total) / (2.0 * e)
                an = traj.tau * sum(
                    h_inner(grid, s[j], grad[j]) for j in range(times.size))
                worst = max(worst, abs(an - fd) / max(abs(fd), abs(an), 1e-10))
    ok = worst <= FD_REL_TOL
    _report(3, ok, f"worst rel FD error {worst:.2e} over 20 dirs x 5 "
                   f"trajectories x 2 models (tol {FD_REL_TOL:.0e})")
    assert worst <= FD_REL_TOL


def test_criterion_4_midpoint_pairing_identity():
    grid = SpaceGrid(dim=1, n=7)
    times = uniform_times(0.05, 6)
    models = (heat_model(), burgers_model(u_max=10.0))
    worst = 0.0
    rng = np.random.default_rng(4)
    for i in range(1000):
        model = models[i % 2]
        states = rng.normal(size=(times.size,) + grid.shape)
        traj = Trajectory(grid, times, states)
        report = eval_energy(model, traj)
        boundary = 0.5 * (h_norm(grid, states[-1]) ** 2
                          - h_norm(grid, states[0]) ** 2)
        drift = 0.0
        for k in range(traj.n_steps):
            mid = 0.5 * (traj.states[k] + traj.states[k + 1])
            t_mid = 0.5 * (times[k] + times[k + 1])
            drift += traj.tau * h_inner(
                grid, mid, lambda_density(model, grid, mid, t_mid))
        # The assembled pairing term carries the sign that enters the energy,
        # so the telescoped identity reads: term_pair = boundary + drift.
        lhs = report.term_pair
        rhs = boundary + drift
        scale = max(1.0, abs(boundary) + abs(drift))
        worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= IDENTITY_TOL
    _report(4, ok, f"worst identity residual {worst:.2e} per unit norm over "
                   f"1000 random trajectories (tol {IDENTITY_TOL:.0e})")
    assert worst <= IDENTITY_TOL


def test_criterion_5_fenchel_young_and_inversion(monkeypatch):
    worst_gap = 0.0
    worst_at_grad = 0.0
    worst_inverse = 0.0
    per_q = 3400  # x3 exponents >= the advertised 1e4 samples
    for q in (2.0, 3.0, 4.0):
        density = PowerDensity(1.3, q, 1e-6 if q > 2 else 0.0)
        rng = np.random.default_rng(int(q))
        # dims 1-3 per sample, zero-padded to 3: padding changes no norm
        # and no dot product
        x, y = np.zeros((2, per_q, 3))
        for i in range(per_q):
            dim = rng.integers(1, 4)
            x[i, :dim] = 3.0 * rng.normal(size=dim)
            y[i, :dim] = 3.0 * rng.normal(size=dim)
        worst_gap = min(worst_gap,
                        float(np.min(fenchel_young_gap(density, x, y))))
        gx = gradient(density, x)
        worst_at_grad = max(worst_at_grad,
                            float(np.max(fenchel_young_gap(density, x, gx))))
        # tiny |x| with q > 2 makes the inverse stiff (slope ~ eps), so
        # the radial solve runs at full precision for this identity
        s = np.linalg.norm(gx, axis=1, keepdims=True)
        with monkeypatch.context() as patch:
            patch.setattr(benpde.convex, "NEWTON_TOL", 1e-15)
            r, _ = converged_radius(density, s)
        back = np.divide(r, s, out=np.zeros_like(s), where=s > 0.0) * gx
        x_norm = np.linalg.norm(x, axis=1)
        worst_inverse = max(worst_inverse, float(np.max(
            np.linalg.norm(back - x, axis=1) / np.maximum(1.0, x_norm))))
    ok = (worst_gap >= GAP_FLOOR and worst_at_grad <= GAP_AT_GRAD_TOL
          and worst_inverse <= INVERSION_TOL)
    _report(5, ok,
            f"min gap {worst_gap:.1e} (floor {GAP_FLOOR:.0e}), gap at gradient "
            f"{worst_at_grad:.1e} (tol {GAP_AT_GRAD_TOL:.0e}), inversion "
            f"{worst_inverse:.1e} (tol {INVERSION_TOL:.0e}), {3 * per_q} samples")
    assert worst_gap >= GAP_FLOOR
    assert worst_at_grad <= GAP_AT_GRAD_TOL
    assert worst_inverse <= INVERSION_TOL


def test_criterion_6_three_seed_uniqueness_probe():
    grid, times, w0 = _reference_setup()
    results = {}
    for name, model, tol in (
            ("heat", heat_model(), HEAT_PROBE_TOL),
            ("burgers", burgers_model(u_max=10.0), BURGERS_PROBE_TOL)):
        probe = uniqueness_probe(model, grid, times, w0, TIGHT, n_seeds=3)
        results[name] = (probe.max_pairwise, tol)
        assert all(probe.converged)
    ok = all(err <= tol for err, tol in results.values())
    _report(6, ok, ", ".join(f"{k} max pairwise={err:.2e} (tol {tol:.0e})"
                             for k, (err, tol) in results.items()))
    for name, (err, tol) in results.items():
        assert err <= tol, name


def test_criterion_7_equivalence_and_baseline_energy_decay():
    grid, times, w0 = _reference_setup()
    model = heat_model()

    # Forward direction: a gradient-driven converged minimization leaves
    # every solution indicator below its own tolerance simultaneously:
    # gradient below the solver's grad_tol, normalized energy below the
    # certificate tolerance, defect below the criterion-1 relative bound.
    grad_driven = SolveOptions(max_iters=6000, grad_tol=1e-5,
                               energy_tol=1e-16)
    init = random_initial_trajectory(grid, times, w0, seed=1, noise=0.5)
    outcome = minimize(model, init, grad_driven)
    verdict = certificate(model, outcome.trajectory, NORMALIZED_TOL)
    grad_final = float(outcome.history[-1, 1])
    defect_scale = DEFECT_REL_TOL * _mixed_norm(outcome.trajectory)
    forward_ok = (outcome.converged and verdict.solved
                  and grad_final <= grad_driven.grad_tol
                  and outcome.report.normalized <= NORMALIZED_TOL
                  and outcome.report.defect_norm <= defect_scale)

    # Converse: the baseline is not an exact minimizer, but its energy must
    # vanish as the step shrinks.  The advertised rate is first order; the
    # measured rate here is close to second.
    energies = []
    for m in (64, 128, 256):
        t = uniform_times(0.1, m)
        energies.append(
            eval_energy(model, implicit_baseline(model, grid, t, w0)).total)
    orders = [np.log2(energies[i] / energies[i + 1]) for i in range(2)]
    converse_ok = all(e > 0 for e in energies) and min(orders) >= 0.9

    ok = forward_ok and converse_ok
    _report(7, ok,
            f"converged solve: grad={grad_final:.1e}, "
            f"normalized={outcome.report.normalized:.1e}, "
            f"defect={outcome.report.defect_norm:.1e}, solved={verdict.solved}; "
            f"baseline J orders in tau: {orders[0]:.2f}, {orders[1]:.2f} (>= 0.9)")
    assert forward_ok
    assert converse_ok


def test_criterion_8_condition_checkers_at_scale():
    grid = SpaceGrid(dim=1, n=9)
    named = ("monotonicity", "positivity", "uniform_convexity")
    all_pass = True
    for model in (heat_model(), burgers_model(u_max=10.0)):
        reports = check_all_conditions(model, grid, samples=10000,
                                       t_range=(0.0, 0.1))
        all_pass = all_pass and all(rep.passed for rep in reports
                                    if rep.condition in named)

    adv, = (rep for rep in check_all_conditions(
        adversarial_model(), grid, samples=2000, t_range=(0.0, 0.1))
        if rep.condition == "positivity")
    adversarial_ok = (not adv.passed) and len(adv.witnesses) >= 1
    ok = all_pass and adversarial_ok
    _report(8, ok,
            f"heat+burgers {len(named)} conditions x 10000 samples all pass: "
            f"{all_pass}; adversarial positivity fails with "
            f"{len(adv.witnesses)} witnesses (worst {adv.worst_margin:.2f})")
    assert all_pass
    assert adversarial_ok


def test_criterion_9_baseline_convergence_order():
    model = heat_model()
    errors = []
    for n, m in ((33, 64), (67, 128)):
        grid = SpaceGrid(dim=1, n=n)
        times = uniform_times(0.1, m)
        w0 = _sin_initial(grid)
        traj = implicit_baseline(model, grid, times, w0)
        x = grid.node_coords[0]
        exact = np.exp(-np.pi**2 * times)[:, None] * np.sin(np.pi * x)[None, :]
        w = traj.tau * grid.cell_volume
        num = np.sqrt(w * np.sum((traj.states - exact) ** 2))
        den = np.sqrt(w * np.sum(exact**2))
        errors.append(float(num / den))
    ratio = errors[0] / errors[1]
    lo, hi = ORDER_RATIO_RANGE
    ok = lo <= ratio <= hi
    _report(9, ok, f"exact-solution error {errors[0]:.2e} -> {errors[1]:.2e}, "
                   f"ratio {ratio:.2f} within [{lo}, {hi}]")
    assert lo <= ratio <= hi


@pytest.mark.parametrize("dim,builder", [
    (1, heat_model),
    (1, burgers_model),
    (1, lambda: divergence_form_model(2.0)),
    (1, lambda: divergence_form_model(4.0)),
    (1, adversarial_model),
    (2, burgers_model),
    (2, lambda: divergence_form_model(4.0)),
], ids=["heat", "burgers", "divform_q2", "divform_q4", "adversarial",
        "burgers_2d", "divform_q4_2d"])
def test_criterion_10_critical_points_are_solutions(dim, builder):
    # The paper's theorem: every critical point of J solves the scheme.  A
    # descent that sees only J and its gradient (dJ[s] = sum tau h^d s . g,
    # whose drift part is DLambda^T B) must stop at a certified solution.
    model = builder()
    grid = SpaceGrid(dim=dim, n=9 if dim == 1 else 4)
    w0 = np.prod(np.sin(np.pi * grid.node_coords), axis=0)
    times = uniform_times(0.1, 8)
    lbfgs, gauss_newton, solved = [], [], []
    for seed in range(5):
        init = random_initial_trajectory(grid, times, w0, seed=seed, noise=2.0)
        shape = init.states[1:].shape

        def energy(x):
            traj = init.with_tail(x.reshape(shape))
            report, grad = energy_and_gradient(model, traj)
            return report.total, traj.tau * grid.cell_volume * grad[1:].ravel()

        res = scipy_minimize(energy, init.states[1:].ravel(), jac=True,
                             method="L-BFGS-B", options={
                                 "maxiter": 1000, "maxcor": 20, "ftol": 0.0,
                                 "gtol": 1e-13})
        traj = init.with_tail(res.x.reshape(shape))
        solved.append(certificate(model, traj, NORMALIZED_TOL).solved)
        lbfgs.append(res.nit)
        gauss_newton.append(minimize(model, init).iterations)
    ok = all(solved)
    _report(10, ok, f"{model.name} ({dim}-D): {sum(solved)}/5 gradient-only "
                    f"L-BFGS runs certified; iterations {lbfgs}, "
                    f"Gauss-Newton {gauss_newton}")
    assert ok
