"""Difference calculus, norms, trajectories, and CSV persistence."""

import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.blas import ddot

import benpde.grid
from benpde.errors import NonFiniteInputError
from benpde.grid import (
    SpaceGrid,
    Trajectory,
    bands_apply,
    divergence,
    dual_grad_norm,
    grad_norm,
    gradient,
    h_inner,
    h_norm,
    mixed_inner,
    mixed_norm,
    pad_boundary,
    pair_mean,
    poisson_solve,
    save_trajectory_csv,
    stencil_bands,
    sweep_bands,
    uniform_times,
    write_lines,
)
from benpde.convex import radial_coefficient
from benpde.models import _psi_pair_gap, divergence_form_model
from benpde.solver import constant_initial_trajectory

ADJOINT_TOL = 1e-12
PAIRING_TOL = 1e-12
INVERSE_TOL = 1e-10


def laplacian(g, u):
    """The Dirichlet Laplacian ``div(grad u)``."""
    return divergence(g, gradient(g, u))


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
    np.testing.assert_allclose(grad, [2.0, -2.0], atol=ADJOINT_TOL)
    lap = laplacian(g, np.array([1.0]))
    np.testing.assert_allclose(lap, [-8.0], atol=ADJOINT_TOL)


def test_laplacian_exact_on_quadratic():
    g = SpaceGrid(dim=1, n=17)
    x = g.node_coords[0]
    u = x * (1.0 - x)
    lap = laplacian(g, u)
    np.testing.assert_allclose(lap, np.full_like(x, -2.0), atol=1e-13)


def test_laplacian_exact_on_separable_quadratic_2d():
    g = SpaceGrid(dim=2, n=9)
    x, y = g.node_coords
    # zero on the boundary, and the 5-point stencil is exact per axis
    u = x * (1.0 - x) * y * (1.0 - y)
    lap = laplacian(g, u)
    expected = -2.0 * y * (1.0 - y) - 2.0 * x * (1.0 - x)
    np.testing.assert_allclose(lap, expected, atol=1e-12)


def test_poisson_recovers_parabola():
    g = SpaceGrid(dim=1, n=33)
    x = g.node_coords[0]
    sol = poisson_solve(g, np.full_like(x, -2.0))
    np.testing.assert_allclose(sol, x * (1.0 - x), atol=INVERSE_TOL)


@pytest.mark.parametrize("dim,n", [(1, 21), (2, 8), (1, 1), (2, 1), (1, 2),
                                   (2, 2)])
def test_poisson_two_sided_inverse(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(42)
    f = rng.normal(size=(2,) + g.shape)
    u = rng.normal(size=(2,) + g.shape)
    np.testing.assert_allclose(laplacian(g, poisson_solve(g, f)), f,
                               atol=INVERSE_TOL)
    np.testing.assert_allclose(poisson_solve(g, laplacian(g, u)), u,
                               atol=INVERSE_TOL)


@pytest.mark.parametrize("dim,n", [(1, 13), (2, 5)])
def test_summation_by_parts(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g.shape)
    edges = [rng.normal(size=g.edge_shape(a)) for a in range(dim)]
    lhs = sum(g.cell_volume * np.vdot(gu, e)
              for gu, e in zip(gradient(g, u), edges))
    rhs = -h_inner(g, u, divergence(g, edges))
    assert abs(lhs - rhs) <= ADJOINT_TOL * max(1.0, abs(lhs))


def dense_operators(g):
    """Dense per-axis ``D_a`` and ``Avg_a`` (nodes to edges), Kronecker-built."""
    n = g.n
    d1 = (np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)) * (1.0 / g.h)
    a1 = 0.5 * (np.eye(n + 1, n) + np.eye(n + 1, n, k=-1))
    if g.dim == 1:
        return [d1], [a1]
    eye = np.eye(n)
    return ([np.kron(d1, eye), np.kron(eye, d1)],
            [np.kron(a1, eye), np.kron(eye, a1)])


def dense_neg_laplacian(g):
    """Dense 3/5-point matrix of ``-laplacian``: ``sum_a D_a^T D_a``."""
    return sum(d.T @ d for d in dense_operators(g)[0])


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 5)])
def test_slice_calculus_matches_dense_operators(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(19)
    u = rng.normal(size=(3,) + g.shape)
    flat = u.reshape(-1, g.n_nodes)

    def check(got, want):
        got = got.reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    edges, div = [], 0.0
    for a, (d, avg) in enumerate(zip(*dense_operators(g))):
        e = rng.normal(size=(3,) + g.edge_shape(a))
        ef = e.reshape(-1, d.shape[0])
        check(gradient(g, u)[a], flat @ d.T)
        check(pair_mean(g, pad_boundary(g, u, a), a), flat @ avg.T)
        check(pair_mean(g, e, a), ef @ avg)
        edges.append(e)
        div = div - ef @ d
    check(divergence(g, edges), div)


def band_matrix(bands):
    """Sparse matrix of :func:`stencil_bands` output."""
    w = bands.shape[0] // 2
    return sp.dia_matrix((bands, np.arange(w, -w - 1, -1)),
                         shape=(bands.shape[1],) * 2).tocsr()


def test_weighted_neg_laplacian_reduces_to_plain():
    g = SpaceGrid(dim=2, n=6)
    w = [np.ones(g.edge_shape(a)) for a in range(2)]
    diff = (band_matrix(stencil_bands(g, np.zeros(g.shape), w)).toarray()
            - dense_neg_laplacian(g))
    assert abs(diff).max() <= 1e-14


def test_weighted_neg_laplacian_matches_direct_quadratic_form():
    g = SpaceGrid(dim=1, n=9)
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 2.0, size=g.n + 1)
    u = rng.normal(size=g.n)
    mat = band_matrix(stencil_bands(g, np.zeros(g.shape), [w]))
    (gu,) = gradient(g, u)
    # u^T (D^T W D) u == sum_e w_e |grad u|_e^2
    assert float(u @ (mat @ u)) == pytest.approx(float(np.sum(w * gu ** 2)),
                                                 rel=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 2), (1, 33), (2, 5)])
def test_solve_bands_equals_solve_banded(dim, n):
    # A one-slice sweep_bands solves with the same LAPACK routines as
    # scipy's wrapper, so the same bits: dgtsv for tridiagonal systems,
    # dgbsv otherwise (and for a single node).
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(100 * dim + n)
    w = n ** (dim - 1)
    for _ in range(5):
        bands = rng.normal(size=(2 * w + 1, g.n_nodes))
        bands[w] = np.abs(bands).sum(axis=0) + rng.uniform(0.5, 2.0)
        rhs = rng.normal(size=g.n_nodes)
        want = solve_banded((w, w), bands, rhs)
        x, failed = sweep_bands(bands, rhs[None])
        assert failed is None
        assert np.array_equal(x[1], want)


@pytest.mark.parametrize("first", ["benpde.grid", "scipy.linalg"])
def test_linalg_routines_are_scipys_own(first):
    # grid loads scipy's _flapack and _fblas from their files.  Whichever is
    # imported first, each routine it binds is the very object that
    # scipy.linalg.lapack or scipy.linalg.blas exports, so the same bits.
    package_root = os.path.dirname(os.path.dirname(benpde.grid.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {package_root!r})\n"
         f"import {first}\n"
         "import benpde.grid as grid, scipy.linalg.blas as blas, scipy.linalg.lapack as lapack\n"
         "pairs = [(n, lapack) for n in "
         "('dgbsv', 'dgtsv', 'dpbtrf', 'dpbtrs', 'dpttrf', 'dpttrs')] + [('ddot', blas)]\n"
         "print([n for n, m in pairs if getattr(grid, n) is not getattr(m, n)])"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_missing_scipy_extension_is_an_import_error_naming_the_file():
    stem = os.path.join(os.path.dirname(benpde.grid.scipy.__file__), "linalg",
                        "_no_such_extension")
    with pytest.raises(ImportError, match=re.escape(stem)) as info:
        benpde.grid._scipy_linalg_extension("_no_such_extension")
    assert info.value.path == stem


@pytest.mark.parametrize("transpose", [False, True], ids=["forward", "transpose"])
@pytest.mark.parametrize("dim,n", [(1, 1), (1, 7), (2, 1), (2, 4)])
def test_bands_apply_equals_dense_matrix(dim, n, transpose):
    # Nonsymmetric stencils (node coefficients), three slices side by side.
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(7 * dim + n)
    lead = (3,)
    bands = stencil_bands(
        g, rng.normal(size=lead + g.shape),
        [rng.uniform(0.5, 2.0, size=lead + g.edge_shape(a)) for a in range(dim)],
        [rng.normal(size=lead + g.shape) for _ in range(dim)])
    x = rng.normal(size=(3, g.n_nodes))
    dense = band_matrix(bands)
    want = (dense.T if transpose else dense) @ x.ravel()
    np.testing.assert_allclose(bands_apply(g, bands, x, transpose).ravel(), want,
                               rtol=1e-14, atol=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 7), (2, 4)],
                         ids=["1x1", "tridiagonal", "2d"])
def test_one_slice_sweep_reports_singular_without_warning(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    ones = [np.ones(g.edge_shape(a)) for a in range(dim)]
    bands = stencil_bands(g, np.ones(g.shape), ones)
    bands[:, 0] = 0.0  # a zero first column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, failed = sweep_bands(bands, np.ones((1, g.n_nodes)))
    assert failed == 0
    np.testing.assert_array_equal(x, 0.0)


def test_pairing_telescopes():
    g = SpaceGrid(dim=1, n=12)
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(1, 9))
        times = uniform_times(float(rng.uniform(0.05, 2.0)), m)
        traj = Trajectory(g, times, rng.normal(size=(m + 1,) + g.shape))
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


def test_h_norm_per_field():
    # One norm per field ``shape`` over the leading axes, a float for a
    # single field, inf once the squares overflow.
    g = SpaceGrid(dim=2, n=3)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(4, 2) + g.shape)
    norms = h_norm(g, u)
    assert norms.shape == (4, 2)
    for i in range(4):
        for j in range(2):
            assert norms[i, j] == pytest.approx(np.sqrt(h_inner(g, u[i, j], u[i, j])),
                                                rel=1e-14)
    assert isinstance(h_norm(g, u[0, 0]), float)
    assert list(h_norm(g, np.stack([u[0, 0], 1e200 * u[0, 0]]))) == [norms[0, 0], np.inf]


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4)])
def test_h_inner_batch_equals_single_fields_bit_for_bit(dim, n):
    # One dot per field over its space, whatever the batch.
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(11)
    u, w = rng.normal(size=(2, 3, 5) + g.shape)
    batch = h_inner(g, u, w)
    assert batch.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            single = h_inner(g, u[i, j], w[i, j])
            assert isinstance(single, float) and batch[i, j] == single


def test_h_norm_is_the_root_of_h_inner_bit_for_bit():
    g = SpaceGrid(dim=2, n=5)
    u = np.random.default_rng(12).normal(size=(4, 2) + g.shape)
    assert np.array_equal(h_norm(g, u), np.sqrt(h_inner(g, u, u)))
    assert h_norm(g, u[0, 0]) == np.sqrt(h_inner(g, u[0, 0], u[0, 0]))


@pytest.mark.parametrize("dim,n", [(1, 17), (2, 5)])
def test_mixed_norm_is_the_time_weighted_sum_of_h_inner(dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(13)
    traj = Trajectory(g, uniform_times(0.3, 16), rng.normal(size=(17,) + g.shape))
    x = rng.normal(size=traj.states.shape)
    for values in (None, x):
        v = traj.states if values is None else x
        want = np.sqrt(traj.tau * sum(h_inner(g, s, s) for s in v))
        assert mixed_norm(traj, values) == pytest.approx(want, rel=1e-15)
    # the pairing is one ddot over the whole trajectory, not a sum of fields
    u, w = x, rng.normal(size=x.shape)
    total = mixed_inner(traj, u, w)
    assert total == traj.tau * (g.cell_volume * ddot(u.ravel(), w.ravel()))
    assert total == pytest.approx(
        traj.tau * sum(h_inner(g, a, b) for a, b in zip(u, w)), rel=1e-14)
    assert mixed_norm(traj, x) == np.sqrt(mixed_inner(traj, x, x))
    with pytest.raises(ValueError, match="differ"):
        mixed_inner(traj, u, w[1:])


def test_h_inner_overflow_reads_inf_without_a_warning():
    g = SpaceGrid(dim=1, n=6)
    u = np.full((2,) + g.shape, 1e200)
    u[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(h_inner(g, u, u)) == [g.cell_volume * g.n, np.inf]
        assert h_inner(g, u[1], u[1]) == np.inf
        assert h_norm(g, u[1]) == np.inf


def _edge_pair_gap(density, grid, base, bump):
    """``<bump, DPsi(base + bump) - DPsi(base)>_H`` summed on the edges:
    ``<grad bump, Dpsi(grad(base + bump)) - Dpsi(grad base)>``."""
    axes = tuple(range(1, grid.dim + 1))
    def dpsi(u):  # per axis: the radial gradient law on the edges
        return [radial_coefficient(density, np.abs(e)) * e
                for e in gradient(grid, u)]

    return sum(grid.cell_volume * np.sum((ga - gb) * gh, axis=axes)
               for ga, gb, gh in zip(dpsi(base + bump), dpsi(base),
                                     gradient(grid, bump)))


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5)])
@pytest.mark.parametrize("q", [2.0, 4.0])
def test_psi_pair_gap_is_the_edge_sum_by_parts(dim, n, q):
    g = SpaceGrid(dim=dim, n=n)
    model = divergence_form_model(q=q)
    rng = np.random.default_rng(14)
    base, bump = rng.normal(size=(2, 32) + g.shape)
    np.testing.assert_allclose(_psi_pair_gap(model, g, base, bump),
                               _edge_pair_gap(model.density, g, base, bump),
                               rtol=1e-13, atol=0.0)


def test_dual_grad_norm_is_lifted_gradient_norm():
    g = SpaceGrid(dim=1, n=15)
    rng = np.random.default_rng(8)
    f = rng.normal(size=g.shape)
    z = poisson_solve(g, -f)
    direct = np.sqrt(h_inner(g, z, f))
    assert dual_grad_norm(g, f, 2.0) == pytest.approx(float(direct), rel=1e-12)
    # sup characterisation: every test direction gives a lower bound
    val = dual_grad_norm(g, f, 2.0)
    for _ in range(100):
        d = rng.normal(size=g.shape)
        assert h_inner(g, d, f) <= val * grad_norm(g, d, 2.0) + 1e-12


@given(st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_adjointness_any_size(n):
    g = SpaceGrid(dim=1, n=n)
    rng = np.random.default_rng(n)
    u = rng.normal(size=g.shape)
    e = [rng.normal(size=g.edge_shape(0))]
    lhs = g.cell_volume * np.vdot(gradient(g, u)[0], e[0])
    rhs = -h_inner(g, u, divergence(g, e))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# -- fields and trajectories ----------------------------------------------------


def test_field_validation():
    # A single state is a plain grid.shape array, checked where it enters
    # a trajectory.
    g, times = SpaceGrid(dim=1, n=4), uniform_times(1.0, 2)
    traj = constant_initial_trajectory(g, times, np.arange(4.0))
    assert traj.states.shape == (3, 4)
    np.testing.assert_array_equal(traj.states, [np.arange(4.0)] * 3)
    with pytest.raises(ValueError):
        constant_initial_trajectory(g, times, np.zeros(5))
    for shape in ((1, 4), (2, 4)):  # no component axis
        with pytest.raises(ValueError, match=re.escape(f"w0 shape {shape}")):
            constant_initial_trajectory(g, times, np.zeros(shape))
    with pytest.raises(NonFiniteInputError):
        constant_initial_trajectory(g, times, np.array([0.0, np.nan, 0.0, 0.0]))


def test_trajectory_validation_and_lock():
    g = SpaceGrid(dim=1, n=3)
    times = uniform_times(1.0, 4)
    states = np.random.default_rng(1).normal(size=(5, 3))
    traj = Trajectory(g, times, states)
    assert traj.states.shape == (5, 3)
    assert traj.tau == pytest.approx(0.25)
    assert not traj.states.flags.writeable
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 0.5, 0.7]), states[:3])
    with pytest.raises(ValueError):
        Trajectory(g, times, states[:4])

    tail = np.zeros((4, 3))
    t2 = traj.with_tail(tail)
    np.testing.assert_array_equal(t2.states[0], traj.states[0])
    np.testing.assert_array_equal(t2.states[1:], 0.0)


@pytest.mark.parametrize("dim,n", [(1, 3), (2, 2)])
def test_states_carry_no_component_axis(dim, n):
    # Two values per node are rejected, naming the shape.  A length-one
    # axis after time, the layout of perfbench/kernels.py, is dropped.
    g = SpaceGrid(dim=dim, n=n)
    times = uniform_times(1.0, 4)
    states = np.random.default_rng(2).normal(size=(5, 1) + g.shape)
    with pytest.raises(ValueError, match=re.escape(f"states shape {(5, 2) + g.shape}")):
        Trajectory(g, times, np.concatenate([states, states], axis=1))
    traj = Trajectory(g, times, states)
    assert traj.states.shape == (5,) + g.shape
    np.testing.assert_array_equal(traj.states, states[:, 0])


def test_with_tail_rejects_a_mis_ordered_tail():
    # the right number of entries with the axes in the wrong order
    g = SpaceGrid(dim=1, n=9)
    traj = Trajectory(g, uniform_times(1.0, 4), np.zeros((5, 9)))
    with pytest.raises(ValueError, match="tail shape"):
        traj.with_tail(np.arange(36.0).reshape(9, 4))
    with pytest.raises(ValueError, match="tail shape"):
        traj.with_tail(np.arange(36.0).reshape(4, 1, 9))


def test_midpoint_and_derivative():
    g = SpaceGrid(dim=1, n=2)
    traj = Trajectory(g, uniform_times(1.0, 2),
                      np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 2.0]]))
    u = traj.states
    np.testing.assert_allclose((u[1] - u[0]) / traj.tau, [2.0, 4.0])
    np.testing.assert_allclose(0.5 * (u[1] + u[2]), [2.0, 2.0])
    with pytest.raises(IndexError):
        (u[3] - u[2]) / traj.tau


def read_trajectory_csv(path, grid):
    """The trajectory a ``trajectory.csv`` holds."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(grid, data[:, 0], data[:, 1:].reshape(-1, *grid.shape))


@pytest.mark.parametrize("dim,n", [(1, 7), (2, 4)])
def test_csv_round_trip_bit_exact(tmp_path, dim, n):
    g = SpaceGrid(dim=dim, n=n)
    rng = np.random.default_rng(17)
    traj = Trajectory(g, uniform_times(0.3, 6),
                      rng.normal(size=(7,) + g.shape) * 1e3)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    back = read_trajectory_csv(path, g)
    assert back.states.shape == traj.states.shape
    np.testing.assert_array_equal(back.states, traj.states)
    np.testing.assert_array_equal(back.times, traj.times)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    assert header.split(",")[1] == "node_0"
    assert header.split(",")[-1] == f"node_{g.n_nodes - 1}"
    # two values per node are not a trajectory on this grid
    save_trajectory_csv(Trajectory(SpaceGrid(dim=1, n=2 * g.n_nodes), traj.times,
                                   traj.states.reshape(7, -1).repeat(2, axis=1)),
                        path)
    with pytest.raises(ValueError, match=re.escape(f"states shape {(14,) + g.shape}")):
        read_trajectory_csv(path, g)


@pytest.fixture
def umask_077():
    old = os.umask(0o077)
    yield 0o077
    os.umask(old)


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
def test_write_lines_rewrites_a_plain_file_in_place(tmp_path, umask_077,
                                                    mode):
    # Shorter text is written through the old inode and cut to length, so
    # a reader opened before sees the new text, and the mode ignores the
    # umask.
    path = tmp_path / "a.csv"
    path.write_text("old text that is longer than the new\n")
    path.chmod(mode)
    before = os.stat(path)
    with open(path, "rb") as old:
        write_lines(path, ["x,y", "1,2"])
        assert old.read() == b"x,y\n1,2\n"
    after = os.stat(path)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert stat.S_IMODE(after.st_mode) == mode
    assert path.read_bytes() == b"x,y\n1,2\n"


def test_write_lines_keeps_what_was_written_when_lines_raise(tmp_path):
    def lines():
        yield "first"
        yield "second"
        raise RuntimeError("no third line")

    path = tmp_path / "a.csv"
    path.write_text("stale\n" * 10)
    inode = os.stat(path).st_ino
    with pytest.raises(RuntimeError, match="no third line"):
        write_lines(path, lines())
    assert os.stat(path).st_ino == inode
    assert path.read_bytes() == b"first\nsecond\n"


def test_write_lines_creates_a_file_with_the_umask_mode(tmp_path, umask_077):
    path = tmp_path / "a.csv"
    write_lines(path, ["new"])
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask_077
    assert path.read_bytes() == b"new\n"


def test_write_lines_writes_to_the_null_device():
    write_lines(os.devnull, ["a", "b"])  # it has no length to cut


@pytest.mark.parametrize("getter, field", [("geteuid", "st_uid"),
                                           ("getegid", "st_gid")])
def test_write_lines_writes_through_a_file_of_another_owner(tmp_path,
                                                            monkeypatch,
                                                            getter, field):
    # A new file would belong to the writer, so another user's or group's
    # file keeps its inode, owner and mode.
    path = tmp_path / "a.csv"
    path.write_text("stale\n" * 10)
    path.chmod(0o664)
    before = os.stat(path)
    monkeypatch.setattr(os, getter, lambda: getattr(before, field) + 1)
    write_lines(path, ["new"])
    after = os.stat(path)
    assert (after.st_ino, after.st_uid, after.st_gid, after.st_mode) == (
        before.st_ino, before.st_uid, before.st_gid, before.st_mode)
    assert path.read_bytes() == b"new\n"


@pytest.mark.skipif(os.geteuid() != 0, reason="only root may write it")
def test_write_lines_writes_a_read_only_file_through(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("stale\n" * 10)
    path.chmod(0o444)
    before = os.stat(path)
    write_lines(path, ["new"])
    after = os.stat(path)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert path.read_bytes() == b"new\n"


def test_write_lines_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n" * 10)
    link.symlink_to(target)
    write_lines(link, ["new"])
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_write_lines_writes_through_a_hard_link(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("stale\n" * 10)
    os.link(first, second)
    write_lines(second, ["new"])
    assert os.stat(first).st_ino == os.stat(second).st_ino
    assert first.read_bytes() == second.read_bytes() == b"new\n"


def test_write_lines_writes_through_a_fifo(tmp_path):
    path = tmp_path / "pipe"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # so open("w") returns
    try:
        write_lines(path, ["a", "b"])
        assert os.read(reader, 100) == b"a\nb\n"
    finally:
        os.close(reader)
    assert path.is_fifo()
