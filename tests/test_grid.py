"""Difference calculus, norms, trajectories, and CSV persistence."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from benpde.errors import NonFiniteInputError
from benpde.grid import (
    Field,
    SpaceGrid,
    Trajectory,
    divergence,
    dual_grad_norm,
    grad_norm,
    gradient,
    h_inner,
    h_norm,
    laplacian,
    load_trajectory_csv,
    poisson_solve,
    save_trajectory_csv,
    stencil_bands,
    uniform_times,
)

ADJOINT_TOL = 1e-12
PAIRING_TOL = 1e-12
INVERSE_TOL = 1e-10


def test_grid_validation():
    with pytest.raises(ValueError):
        SpaceGrid(dim=3, n=4)
    with pytest.raises(ValueError):
        SpaceGrid(dim=1, n=0)
    g = SpaceGrid(dim=1, n=3)
    assert g.h == pytest.approx(0.25)
    assert g.n_nodes == 3


def test_single_node_gradient_and_laplacian():
    g = SpaceGrid(dim=1, n=1)
    assert g.h == 0.5
    (grad,) = gradient(g, np.array([1.0]))
    np.testing.assert_allclose(grad, [[2.0, -2.0]], atol=ADJOINT_TOL)
    lap = laplacian(g, np.array([1.0]))
    np.testing.assert_allclose(lap, [[-8.0]], atol=ADJOINT_TOL)


def test_laplacian_exact_on_quadratic():
    g = SpaceGrid(dim=1, n=17)
    x = g.node_coords[0]
    u = x * (1.0 - x)
    lap = laplacian(g, u)
    np.testing.assert_allclose(lap[0], np.full_like(x, -2.0), atol=1e-13)


def test_laplacian_exact_on_separable_quadratic_2d():
    g = SpaceGrid(dim=2, n=9)
    x, y = g.node_coords
    # zero on the boundary, and the 5-point stencil is exact per axis
    u = x * (1.0 - x) * y * (1.0 - y)
    lap = laplacian(g, u)
    expected = -2.0 * y * (1.0 - y) - 2.0 * x * (1.0 - x)
    np.testing.assert_allclose(lap[0], expected, atol=1e-12)


def test_poisson_recovers_parabola():
    g = SpaceGrid(dim=1, n=33)
    x = g.node_coords[0]
    sol = poisson_solve(g, np.full_like(x, -2.0))
    np.testing.assert_allclose(sol[0], x * (1.0 - x), atol=INVERSE_TOL)


@pytest.mark.parametrize("dim,n", [(1, 21), (2, 8)])
def test_poisson_two_sided_inverse(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(42)
    f = rng.normal(size=(2,) + g.shape)
    u = rng.normal(size=(2,) + g.shape)
    np.testing.assert_allclose(laplacian(g, poisson_solve(g, f)), f,
                               atol=INVERSE_TOL)
    np.testing.assert_allclose(poisson_solve(g, laplacian(g, u)), u,
                               atol=INVERSE_TOL)


@pytest.mark.parametrize("dim,n,k", [(1, 13, 1), (1, 6, 2), (2, 5, 1)])
def test_summation_by_parts(dim, n, k):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(k,) + g.shape)
    edges = [rng.normal(size=(k,) + g.edge_shape(a)) for a in range(dim)]
    lhs = sum(g.cell_volume * np.vdot(gu, e)
              for gu, e in zip(gradient(g, u), edges))
    rhs = -h_inner(g, u, divergence(g, edges))
    assert abs(lhs - rhs) <= ADJOINT_TOL * max(1.0, abs(lhs))


def band_matrix(bands):
    """Sparse matrix of :func:`stencil_bands` output."""
    w = bands.shape[0] // 2
    return sp.dia_matrix((bands, np.arange(w, -w - 1, -1)),
                         shape=(bands.shape[1],) * 2).tocsr()


def test_weighted_neg_laplacian_reduces_to_plain():
    g = SpaceGrid(dim=2, n=6)
    w = [np.ones(g.edge_shape(a)) for a in range(2)]
    diff = band_matrix(stencil_bands(g, np.zeros(g.shape), w)) - g.neg_laplacian
    assert abs(diff).max() <= 1e-14


def test_weighted_neg_laplacian_matches_direct_quadratic_form():
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 2.0, size=g.n + 1)
    u = rng.normal(size=g.n)
    mat = band_matrix(stencil_bands(g, np.zeros(g.shape), [w]))
    (gu,) = gradient(g, u)
    # u^T (D^T W D) u == sum_e w_e |grad u|_e^2
    assert float(u @ (mat @ u)) == pytest.approx(float(np.sum(w * gu[0] ** 2)),
                                                 rel=1e-13)


def test_pairing_telescopes():
    g = SpaceGrid(dim=1, n=12)
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        times = uniform_times(float(rng.uniform(0.05, 2.0)), m)
        traj = Trajectory(g, times, rng.normal(size=(m + 1, 1) + g.shape))
        u = traj.states
        acc = sum(
            traj.tau * h_inner(g, 0.5 * (u[k] + u[k + 1]),
                               (u[k + 1] - u[k]) / traj.tau)
            for k in range(traj.n_steps)
        )
        jump = 0.5 * (h_norm(g, traj.states[-1]) ** 2
                      - h_norm(g, traj.states[0]) ** 2)
        assert abs(acc - jump) <= PAIRING_TOL * max(1.0, abs(jump))


def test_grad_norm_single_node():
    g = SpaceGrid(dim=1, n=1)
    # |grad u| = 2 on both edges, h = 1/2: (2 * 0.5 * 2^q)^(1/q) = 2 for all q
    assert grad_norm(g, np.array([1.0]), 2.0) == pytest.approx(2.0)
    assert grad_norm(g, np.array([1.0]), 4.0) == pytest.approx(2.0)


def test_dual_grad_norm_is_lifted_gradient_norm():
    g = SpaceGrid(dim=1, n=15)
    rng = np.random.default_rng(8)
    f = rng.normal(size=(1,) + g.shape)
    z = poisson_solve(g, -f)
    direct = np.sqrt(h_inner(g, z, f))
    assert dual_grad_norm(g, f, 2.0) == pytest.approx(float(direct), rel=1e-12)
    # sup characterisation: every test direction gives a lower bound
    val = dual_grad_norm(g, f, 2.0)
    for _ in range(100):
        d = rng.normal(size=(1,) + g.shape)
        assert h_inner(g, d, f) <= val * grad_norm(g, d, 2.0) + 1e-12


@given(st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_adjointness_any_size(n):
    g = SpaceGrid(dim=1, n=n)
    rng = np.random.default_rng(n)
    u = rng.normal(size=(1,) + g.shape)
    e = [rng.normal(size=(1,) + g.edge_shape(0))]
    lhs = g.cell_volume * np.vdot(gradient(g, u)[0], e[0])
    rhs = -h_inner(g, u, divergence(g, e))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# -- fields and trajectories ----------------------------------------------------


def test_field_validation():
    g = SpaceGrid(dim=1, n=4)
    f = Field(g, np.arange(4.0))
    assert f.k == 1 and f.values.shape == (1, 4)
    with pytest.raises(ValueError):
        Field(g, np.zeros(5))
    with pytest.raises(NonFiniteInputError):
        Field(g, np.array([0.0, np.nan, 0.0, 0.0]))


def test_trajectory_validation_and_lock():
    g = SpaceGrid(dim=1, n=3)
    times = uniform_times(1.0, 4)
    states = np.random.default_rng(1).normal(size=(5, 1, 3))
    traj = Trajectory(g, times, states)
    assert traj.tau == pytest.approx(0.25)
    assert not traj.states.flags.writeable
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 0.5, 0.7]), states[:3])
    with pytest.raises(ValueError):
        Trajectory(g, times, states[:4])

    tail = np.zeros((4, 1, 3))
    t2 = traj.with_tail(tail)
    np.testing.assert_array_equal(t2.states[0], traj.states[0])
    np.testing.assert_array_equal(t2.states[1:], 0.0)


def test_midpoint_and_derivative():
    g = SpaceGrid(dim=1, n=2)
    traj = Trajectory(g, uniform_times(1.0, 2),
                      np.array([[[0.0, 0.0]], [[1.0, 2.0]], [[3.0, 2.0]]]))
    u = traj.states
    np.testing.assert_allclose((u[1] - u[0]) / traj.tau, [[2.0, 4.0]])
    np.testing.assert_allclose(0.5 * (u[1] + u[2]), [[2.0, 2.0]])
    with pytest.raises(IndexError):
        (u[3] - u[2]) / traj.tau


@pytest.mark.parametrize("dim,n,k", [(1, 7, 1), (1, 5, 3), (2, 4, 2)])
def test_csv_round_trip_bit_exact(tmp_path, dim, n, k):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(17)
    traj = Trajectory(g, uniform_times(0.3, 6),
                      rng.normal(size=(7, k) + g.shape) * 1e3)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    back = load_trajectory_csv(path, g)
    assert back.k == k
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.times, traj.times)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert header.split(",")[1] == "node_0"
    assert header.split(",")[-1] == f"node_{k * g.n_nodes - 1}"
