"""Certificate energy: conjugate solves, gradients, and verdicts."""

import warnings
from dataclasses import asdict

import numpy as np
import pytest

import benpde.energy
from benpde.convex import PowerDensity
from benpde.energy import (
    CertificateVerdict,
    EnergyReport,
    _dual_residuals,
    certificate,
    conjugate_on_dual,
    energy_and_gradient,
    energy_totals,
    eval_energy,
)
from benpde.errors import ConjugateSolveError, NonFiniteInputError
from benpde.grid import (
    SpaceGrid,
    Trajectory,
    h_inner,
    mixed_norm,
    uniform_times,
)
from benpde.models import (
    ModelSpec,
    ReactionTerm,
    build_model,
    dlambda_density,
    lambda_density,
    psi_gradient_density,
    psi_total,
)

FD_TOL = 1e-5
NONNEG_FLOOR = -1e-9
IDENTITY_TOL = 1e-10
RANDOM_TRAJECTORIES = 1000


def _random_trajectory(grid, rng, n_steps=6, t_end=0.1, scale=0.5):
    states = scale * rng.normal(size=(n_steps + 1,) + grid.shape)
    return Trajectory(grid, uniform_times(t_end, n_steps), states)


def _heat_midpoint_solution(n, n_steps, t_end, a=1.0):
    """Independent dense solve of the midpoint scheme for the quadratic flow."""
    h = 1.0 / (n + 1)
    tau = t_end / n_steps
    lap = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
           - np.diag(np.ones(n - 1), -1)) / h**2
    A = a * lap
    x = np.arange(1, n + 1) * h
    states = [np.sin(np.pi * x)]
    lhs = np.eye(n) / tau + 0.5 * A
    rhs = np.eye(n) / tau - 0.5 * A
    for _ in range(n_steps):
        states.append(np.linalg.solve(lhs, rhs @ states[-1]))
    grid = SpaceGrid(dim=1, n=n)
    return grid, Trajectory(grid, uniform_times(t_end, n_steps),
                            np.asarray(states))


# -- conjugate of the integrated density ----------------------------------------


def test_conjugate_quadratic_single_node_frozen():
    # One interior node, h = 1/2: DPsi(z) = 8 z, so y = 8 gives argmax 1 and
    # value <z, y> - Psi(z) = 4 - 2 = 2.
    g = SpaceGrid(dim=1, n=1)
    d = PowerDensity(1.0, 2.0, 0.0)
    value, z, iters = conjugate_on_dual(d, g, np.array([8.0]))
    assert value == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(z, [1.0], atol=1e-14)
    assert iters == 0


# q = 2 and q = 4 take closed forms, q = 3 the radial Newton solve; the 2-D
# grid takes the dual Newton path.  Explicit ids keep each case's name
# independent of how the grid is printed.
@pytest.mark.parametrize("density,g", [
    (PowerDensity(1.3, 2.0, 0.0), SpaceGrid(dim=1, n=17)),
    (PowerDensity(0.9, 4.0, 0.7), SpaceGrid(dim=1, n=17)),
    (PowerDensity(0.9, 3.0, 0.7), SpaceGrid(dim=1, n=17)),
    (PowerDensity(0.9, 4.0, 0.7), SpaceGrid(dim=2, n=5)),
], ids=["density0", "density1", "density2", "density3"])
def test_conjugate_inverts_gradient_assembly(density, g):
    rng = np.random.default_rng(1)
    z_true = rng.normal(size=g.shape)
    y = psi_gradient_density(density, g, z_true)
    value, z, iters = conjugate_on_dual(density, g, y)
    np.testing.assert_allclose(z, z_true, atol=1e-10)
    want = h_inner(g, z_true, y) - psi_total(density, g, z_true)
    assert value == pytest.approx(want, rel=1e-10, abs=1e-12)


# The 2-D case runs the batched dual Newton, whose every slice takes the
# same floating-point steps as a one-slice call.
@pytest.mark.parametrize("density,g,exact", [
    (PowerDensity(1.0, 2.0, 0.0), SpaceGrid(dim=1, n=9), False),
    (PowerDensity(1.0, 4.0, 1.0), SpaceGrid(dim=1, n=9), False),
    (PowerDensity(1.0, 4.0, 1.0), SpaceGrid(dim=2, n=6), True),
], ids=["density0", "density1", "density2"])
def test_conjugate_batch_matches_single(density, g, exact):
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(5,) + g.shape)
    values, z, _ = conjugate_on_dual(density, g, batch)
    for i in range(5):
        vi, zi, _ = conjugate_on_dual(density, g, batch[i])
        if exact:
            assert values[i] == vi
            np.testing.assert_array_equal(z[i], zi)
        else:
            assert values[i] == pytest.approx(vi, rel=1e-13, abs=1e-13)
            np.testing.assert_allclose(z[i], zi, atol=1e-13)


def test_conjugate_1d_factorizes_nothing(monkeypatch):
    def no_lu(*args, **kwargs):
        raise AssertionError("banded factorization in a 1-D conjugate")

    monkeypatch.setattr(benpde.energy, "sweep_bands", no_lu)
    d = PowerDensity(0.9, 4.0, 0.7)
    g = SpaceGrid(dim=1, n=17)
    z_true = np.random.default_rng(4).normal(size=(6, 17))
    _, z, _ = conjugate_on_dual(d, g, psi_gradient_density(d, g, z_true))
    np.testing.assert_allclose(z, z_true, atol=1e-10)


def test_conjugate_gap_against_gradient_pairs():
    # Psi(u) + Psi*(y) >= <u, y>, equality when y = DPsi(u).
    g = SpaceGrid(dim=1, n=11)
    d = PowerDensity(0.8, 4.0, 0.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=11)
        y = rng.normal(size=11)
        v, _, _ = conjugate_on_dual(d, g, y)
        gap = psi_total(d, g, u) + v - h_inner(g, u, y)
        assert gap >= -1e-12
    u = rng.normal(size=11)
    y = psi_gradient_density(d, g, u)
    v, _, _ = conjugate_on_dual(d, g, y)
    tight = psi_total(d, g, u) + v - h_inner(g, u, y)
    assert abs(tight) <= 1e-10


def test_conjugate_failure_carries_slice_index(monkeypatch):
    g = SpaceGrid(dim=1, n=9)
    d = PowerDensity(1.0, 4.0, 1e-6)
    y = 100.0 * np.linspace(0.0, 2.0, 9) * np.ones((3, 9))
    monkeypatch.setattr(benpde.energy, "CONJUGATE_MAX_ITERS", 1)
    with pytest.raises(ConjugateSolveError, match="slice"):
        conjugate_on_dual(d, g, y)


def test_conjugate_1d_raises_the_first_failed_radial_solve():
    # At a = eps = 1e-300 and q = 2.5 the radial root (|w|/a)^{2/3} lies
    # beyond the float range for |w| near 1e300.  Row 0 is solved; the edge
    # fluxes w = c - S of row 1 are 5e300/3, -4e300/3 and -1e300/3, each
    # failing, and the raised error is the radial solve's of the first, not
    # the iteration cap of the row.
    g = SpaceGrid(dim=1, n=2)
    y = np.array([[0.0, 0.0], [9e300, -3e300]])
    with pytest.raises(ConjugateSolveError,
                       match=r"^radial conjugate solve failed to converge "
                             r"for \|y\|=1.66667e\+300$"):
        conjugate_on_dual(PowerDensity(1e-300, 2.5, 1e-300), g, y)


def test_conjugate_1d_at_a_tiny_coefficient():
    # psi scales with a, so psi*_a = a^{-1/2} psi*_1 and z_a = a^{-1/2} z_1.
    g, y = SpaceGrid(dim=1, n=2), np.array([1.0, -0.5])
    value, z, _ = conjugate_on_dual(PowerDensity(1e-300, 3.0), g, y)
    unit, z_unit, _ = conjugate_on_dual(PowerDensity(1.0, 3.0), g, y)
    assert value == pytest.approx(1e150 * unit, rel=1e-12)
    np.testing.assert_allclose(z, 1e150 * z_unit, rtol=1e-12)


def test_conjugate_2d_failure_carries_slice_index(monkeypatch):
    # Slice 0 converges in two Newton steps and slice 1 needs seven; at
    # 1e150 the first step of slice 1 overflows at every step length.
    g = SpaceGrid(dim=2, n=4)
    d = PowerDensity(1.0, 4.0, 1.0)
    base = np.sin(np.arange(16.0)).reshape(4, 4)
    with np.errstate(all="ignore"), pytest.raises(
            ConjugateSolveError, match="^slice 1: dual Newton stalled"):
        conjugate_on_dual(d, g, np.stack([0.1 * base, 1e150 * base]))
    monkeypatch.setattr(benpde.energy, "CONJUGATE_MAX_ITERS", 4)
    with pytest.raises(ConjugateSolveError,
                       match="^slice 1: dual Newton hit the iteration cap"):
        conjugate_on_dual(d, g, np.stack([0.1 * base, 1e6 * base]))
    # the error is that of the first failing slice in index order, even
    # when a later slice fails at an earlier step
    with np.errstate(all="ignore"), pytest.raises(
            ConjugateSolveError, match="^slice 0: dual Newton hit the iteration cap"):
        conjugate_on_dual(d, g, np.stack([1e6 * base, 1e150 * base]))


def test_conjugate_2d_singular_first_jacobian_raises():
    # Without a regularizer the quartic Hessian vanishes at z = 0, where the
    # dual Newton starts, so its first banded solve is singular.
    g = SpaceGrid(dim=2, n=5)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        conjugate_on_dual(PowerDensity(1.0, 4.0, 0.0), g, np.ones((5, 5)))


def test_conjugate_2d_overflowed_norm_is_not_convergence():
    # |y|_H overflows to inf, and inf <= tol * inf must not count as met.
    g = SpaceGrid(dim=2, n=4)
    d = PowerDensity(1.0, 4.0, 1.0)
    base = np.sin(np.arange(16.0)).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConjugateSolveError,
                           match="^slice 0: dual Newton cannot start"):
            conjugate_on_dual(d, g, 1e160 * base)
        with pytest.raises(ConjugateSolveError, match=(
                "^slice 1: dual Newton cannot start from a non-finite norm "
                "at residual inf$")):
            conjugate_on_dual(d, g, np.stack([base, 1e160 * base, base]))


def test_conjugate_at_zero_density():
    g = SpaceGrid(dim=1, n=7)
    for d in (PowerDensity(1.0, 2.0, 0.0), PowerDensity(1.0, 4.0, 1.0)):
        value, z, _ = conjugate_on_dual(d, g, np.zeros(7))
        assert value == 0.0
        np.testing.assert_array_equal(z, np.zeros(7))


# -- residuals --------------------------------------------------------------------


def _residuals(model, traj):
    """The dual residuals ``H_k`` of every interval of ``traj``."""
    return _dual_residuals(model, traj.grid, traj.tau, traj.times, traj.states)[2]


def test_residual_zero_trajectory_is_zero():
    g = SpaceGrid(dim=1, n=5)
    traj = Trajectory(g, uniform_times(1.0, 4), np.zeros((5, 5)))
    for name in ("heat", "burgers"):
        H = _residuals(build_model(name), traj)
        np.testing.assert_array_equal(H, np.zeros((4, 5)))


def test_residual_constant_trajectory_heat_is_zero():
    g = SpaceGrid(dim=1, n=5)
    rng = np.random.default_rng(4)
    row = rng.normal(size=5)
    traj = Trajectory(g, uniform_times(1.0, 3),
                      np.broadcast_to(row, (4, 5)).copy())
    H = _residuals(build_model("heat"), traj)
    np.testing.assert_array_equal(H, np.zeros((3, 5)))


def test_residual_frozen_single_node_step():
    # N=1, tau=1/8, states 1 -> 1/2: H_0 = -(u_1 - u_0)/tau = 4.
    g = SpaceGrid(dim=1, n=1)
    traj = Trajectory(g, uniform_times(0.125, 1), np.array([[1.0], [0.5]]))
    np.testing.assert_allclose(_residuals(build_model("heat"), traj), [[4.0]],
                               atol=1e-14)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("name,params", [
    ("heat", {}), ("burgers", {}), ("divergence_form", {"q": 4.0}),
    ("adversarial", {})], ids=["heat", "burgers", "divform_q4", "adversarial"])
def test_dual_residuals_at_theta_one_are_the_implicit_step_terms(name, params,
                                                                 dim, n):
    # theta = 1 puts the theta-point at u_{k+1} and its time at t_{k+1}
    grid = SpaceGrid(dim=dim, n=n)
    traj = _random_trajectory(grid, np.random.default_rng(3))
    model = build_model(name, **params)
    u, t, tau = traj.states, traj.times, traj.tau
    mids, t_mid, H = benpde.energy._dual_residuals(model, grid, tau, t, u,
                                                   theta=1.0)
    np.testing.assert_array_equal(mids, u[1:])
    np.testing.assert_array_equal(t_mid, t[1:])
    np.testing.assert_array_equal(
        H, -(u[1:] - u[:-1]) / tau - lambda_density(model, grid, u[1:], t[1:]))


# -- energy -----------------------------------------------------------------------


def test_zero_trajectory_zero_energy():
    g = SpaceGrid(dim=1, n=5)
    traj = Trajectory(g, uniform_times(1.0, 4), np.zeros((5, 5)))
    rep = eval_energy(build_model("heat"), traj)
    assert rep.total == 0.0
    assert rep.normalized == 0.0
    assert rep.defect_norm == 0.0
    assert rep.residual_norm == 0.0


@pytest.mark.parametrize("name,params", [
    ("heat", {}),
    ("burgers", {}),
    ("divergence_form", {"q": 2.0}),
    ("divergence_form", {"q": 4.0}),
    ("adversarial", {}),
], ids=["heat", "burgers", "divform_q2", "divform_q4", "adversarial"])
def test_energy_nonnegative_on_random_trajectories(name, params):
    g = SpaceGrid(dim=1, n=9)
    m = build_model(name, **params)
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(RANDOM_TRAJECTORIES):
        rep = eval_energy(m, _random_trajectory(g, rng))
        worst = min(worst, rep.total)
        assert rep.total >= NONNEG_FLOOR
    assert np.isfinite(worst)


def test_energy_terms_sum_to_total():
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(6)
    for name in ("heat", "burgers"):
        rep = eval_energy(build_model(name), _random_trajectory(g, rng))
        s = rep.term_psi + rep.term_conj + rep.term_pair
        assert rep.total == pytest.approx(s, rel=IDENTITY_TOL)


def test_pair_term_matches_boundary_plus_drift_identity():
    # lam * <u, du/dt + Lambda(u)> telescopes to the endpoint energies plus
    # the midpoint drift pairings.
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(7)
    m = build_model("divergence_form", q=2.0)
    traj = _random_trajectory(g, rng)
    rep = eval_energy(m, traj)
    u = traj.states
    mids = 0.5 * (u[:-1] + u[1:])
    t_mid = 0.5 * (traj.times[:-1] + traj.times[1:])
    want = 0.5 * (h_inner(g, u[-1], u[-1]) - h_inner(g, u[0], u[0]))
    for k in range(traj.n_steps):
        want += traj.tau * h_inner(
            g, mids[k], lambda_density(m, g, mids[k], float(t_mid[k])))
    assert rep.term_pair == pytest.approx(want, rel=IDENTITY_TOL, abs=1e-12)


def test_energy_report_json_field_names():
    g = SpaceGrid(dim=1, n=5)
    traj = Trajectory(g, uniform_times(0.1, 2), np.zeros((3, 5)))
    d = asdict(eval_energy(build_model("heat"), traj))
    assert list(d) == ["total", "term_psi", "term_conj", "term_pair",
                      "residual_norm", "defect_norm", "normalized"]
    assert all(isinstance(v, float) for v in d.values())


def test_lam_zero_energy_is_pure_conjugate_term():
    g = SpaceGrid(dim=1, n=9)
    m = ModelSpec(
        name="dual_only", density=PowerDensity(1.0, 2.0, 0.0), lam=0,
        reaction=ReactionTerm(
            func=lambda u, x, t: -u,
            deriv=lambda u, x, t: np.broadcast_to(-1.0, np.shape(u)),
            lipschitz=1.0))
    rng = np.random.default_rng(8)
    traj = _random_trajectory(g, rng)
    rep = eval_energy(m, traj)
    assert rep.term_psi == 0.0
    assert rep.term_pair == 0.0
    assert rep.total == rep.term_conj
    assert rep.total >= NONNEG_FLOOR


# -- gradient ---------------------------------------------------------------------


def _fd_directional(model, traj, s, step=1e-6):
    jp = eval_energy(model, traj.with_tail(traj.states[1:] + step * s[1:])).total
    jm = eval_energy(model, traj.with_tail(traj.states[1:] - step * s[1:])).total
    return (jp - jm) / (2.0 * step)


@pytest.mark.parametrize("builder", [
    lambda: build_model("heat"),
    lambda: build_model("burgers"),
    lambda: build_model("divergence_form", q=4.0),
])
def test_gradient_matches_central_differences(builder):
    m = builder()
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(9)
    traj = _random_trajectory(g, rng)
    _, grad = energy_and_gradient(m, traj)
    for _ in range(8):
        s = rng.normal(size=traj.states.shape)
        s[0] = 0.0
        fd = _fd_directional(m, traj, s)
        an = traj.tau * float(
            np.sum([h_inner(g, s[j], grad[j]) for j in range(len(s))]))
        assert abs(an - fd) <= FD_TOL * max(1.0, abs(fd))


def test_gradient_fields_zero_at_initial_node():
    g = SpaceGrid(dim=1, n=7)
    rng = np.random.default_rng(10)
    traj = _random_trajectory(g, rng)
    _, grad = energy_and_gradient(build_model("burgers"), traj)
    assert grad.shape == traj.states.shape
    np.testing.assert_array_equal(grad[0], np.zeros(7))


def test_gradient_zero_on_zero_trajectory():
    g = SpaceGrid(dim=1, n=7)
    traj = Trajectory(g, uniform_times(0.5, 3), np.zeros((4, 7)))
    _, grad = energy_and_gradient(build_model("heat"), traj)
    np.testing.assert_array_equal(grad, np.zeros_like(traj.states))


def test_exact_midpoint_solution_is_critical_point():
    # A trajectory solving the midpoint scheme has (near-)zero energy, zero
    # defect, and zero gradient simultaneously, while the dual residual
    # stays O(1): the certificate quantities all agree at the solution.
    grid, traj = _heat_midpoint_solution(n=9, n_steps=4, t_end=0.1)
    m = build_model("heat")
    rep, grad = energy_and_gradient(m, traj)
    gnorm = mixed_norm(traj, grad)
    assert rep.total <= 1e-14  # roundoff of the cancelling O(0.1) terms
    assert rep.normalized <= 1e-12
    assert rep.defect_norm <= 1e-10
    assert rep.residual_norm > 0.1
    assert gnorm <= 1e-8


@pytest.mark.parametrize("name,params,dim,n", [
    ("heat", {}, 1, 9),
    ("burgers", {}, 1, 9),
    ("divergence_form", {"q": 4.0}, 1, 9),
    ("adversarial", {}, 1, 9),
    ("divergence_form", {"q": 4.0}, 2, 6),
], ids=["heat", "burgers", "divform_q4", "adversarial", "divform_q4_2d"])
def test_gradient_against_summed_defects_splits_into_defect_and_drift(
        name, params, dim, n):
    # The discrete form of the argument that critical points of J solve the
    # equation.  With B_k = lam m_k - z_k the primal defect, C_k the
    # interval term of the gradient (DLambda(m_k)^T B_k + lam (DPsi(lam m_k)
    # - H_k)) and s_0 = 0, s_{k+1} = s_k + tau B_k, summation by parts gives
    #   sum_j tau <s_j, g_j> = tau sum_k |B_k|^2
    #                          + tau sum_k <(s_k + s_{k+1}) / 2, C_k>,
    # so at g = 0 the defect is bounded by the drift pairing alone.
    model, grid = build_model(name, **params), SpaceGrid(dim=dim, n=n)
    traj = _random_trajectory(grid, np.random.default_rng(13), n_steps=8)
    lam, tau = float(model.lam), traj.tau
    asm = benpde.energy._assemble(model, traj)
    B = lam * asm.mids - asm.z
    C = dlambda_density(model, grid, asm.mids, asm.t_mid, B,
                        transpose=True) + lam * (
        psi_gradient_density(model.density, grid, lam * asm.mids) - asm.H)
    s = np.concatenate([np.zeros_like(B[:1]), tau * np.cumsum(B, axis=0)])
    _, grad = energy_and_gradient(model, traj)
    paired = tau * np.sum(h_inner(grid, s, grad))
    defect = tau * np.sum(h_inner(grid, B, B))
    drift = tau * np.sum(h_inner(grid, 0.5 * (s[:-1] + s[1:]), C))
    assert defect > 0.0
    assert abs(paired - (defect + drift)) <= 1e-12 * (defect + abs(drift))


# -- certificate ------------------------------------------------------------------


def test_certificate_accepts_exact_solution():
    grid, traj = _heat_midpoint_solution(n=9, n_steps=4, t_end=0.1)
    v = certificate(build_model("heat"), traj, 1e-6)
    assert isinstance(v, CertificateVerdict)
    assert v.solved
    assert v.scale >= 1.0
    assert set(asdict(v)) == {"solved", "normalized", "defect_norm", "scale",
                              "tol"}


@pytest.mark.parametrize("name", ["heat", "burgers"])
def test_report_and_certificate_share_one_assembly(name):
    g = SpaceGrid(dim=1, n=9)
    traj = _random_trajectory(g, np.random.default_rng(6))
    model = build_model(name)
    # the baseline command reads both off one assembly
    state = benpde.energy._assemble(model, traj)
    report, verdict = state.report, state.verdict(1e-6)
    assert report == eval_energy(model, traj)
    assert verdict == certificate(model, traj, 1e-6)


# -- batched totals -----------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
@pytest.mark.parametrize("name,params", [
    ("heat", {}), ("burgers", {}), ("divergence_form", {"q": 4.0}),
    ("adversarial", {}),
], ids=["heat", "burgers", "divform_q4", "adversarial"])
def test_energy_totals_equal_eval_energy_exactly(name, params, dim, n, batch):
    model = build_model(name, **params)
    rng = np.random.default_rng(11)
    traj = _random_trajectory(SpaceGrid(dim=dim, n=n), rng)
    tails = traj.states[1:] + 0.3 * rng.normal(
        size=(batch,) + traj.states[1:].shape)
    totals = energy_totals(model, traj, tails)
    assert totals.shape == (batch,)
    for i in range(batch):
        assert totals[i] == eval_energy(model, traj.with_tail(tails[i])).total


def test_energy_totals_without_primal_density():
    m = ModelSpec(name="dual_only", density=PowerDensity(1.0, 2.0, 0.0), lam=0)
    rng = np.random.default_rng(12)
    traj = _random_trajectory(SpaceGrid(dim=1, n=9), rng)
    tails = rng.normal(size=(2,) + traj.states[1:].shape)
    assert list(energy_totals(m, traj, tails)) == [
        eval_energy(m, traj.with_tail(t)).total for t in tails]


def test_energy_totals_rejects_bad_tails():
    traj = _random_trajectory(SpaceGrid(dim=1, n=9), np.random.default_rng(13))
    model = build_model("heat")
    tails = np.stack([traj.states[1:]] * 2)
    tails[1, 2, 4] = np.nan
    with pytest.raises(NonFiniteInputError):
        energy_totals(model, traj, tails)
    for bad in (traj.states[1:], tails[:, 1:], tails[..., 1:],
                np.stack([traj.states] * 2)):
        with pytest.raises(ValueError, match="tails shape"):
            energy_totals(model, traj, bad)


def test_certificate_rejects_abandoned_start():
    g = SpaceGrid(dim=1, n=9)
    w0 = np.sin(np.pi * g.node_coords[0])
    states = np.concatenate([w0[None], np.zeros((4, 9))])
    traj = Trajectory(g, uniform_times(0.1, 4), states)
    v = certificate(build_model("heat"), traj, 1e-6)
    assert not v.solved
    assert v.normalized > 1e-2
