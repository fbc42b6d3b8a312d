"""Uniform Dirichlet grids, staggered difference calculus, and trajectories.

The spatial domain is the unit interval (or square) with homogeneous
Dirichlet boundary conditions.  A grid with ``n`` interior nodes per axis
has spacing ``h = 1/(n+1)``.  Nodal values live on interior nodes only;
gradients live on the staggered edge lattice (``n+1`` edges per axis line),
with the boundary value zero folded into the first and last edge.

All difference calculus is expressed through one sparse matrix per axis,

    (D_a u)_e = (u_right - u_left) / h,

so that the discrete divergence is exactly ``-D_a^T``, the (negative)
Laplacian is the SPD matrix ``sum_a D_a^T D_a``, and summation by parts

    <grad u, E> = -<u, div E>

holds to roundoff by construction.  The H inner product carries the cell
volume ``h^dim``; dual-space elements are represented as nodal densities
paired through the same weighted sum.

In one dimension (the fully supported case) the gradient of a k-component
field is a k-vector per edge and the power densities of
:mod:`benpde.convex` act on it radially.  In two dimensions the two
gradient components live on different staggered lattices, so densities act
per axis (anisotropically); the quadratic case is identical to the usual
five-point scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from .errors import NonFiniteInputError

__all__ = [
    "SpaceGrid",
    "Field",
    "Trajectory",
    "gradient",
    "divergence",
    "laplacian",
    "poisson_solve",
    "stencil_bands",
    "solve_bands",
    "h_inner",
    "h_inner_batch",
    "h_norm",
    "grad_norm",
    "grad_magnitudes",
    "dual_grad_norm",
    "mixed_norm",
    "uniform_times",
    "save_trajectory_csv",
    "load_trajectory_csv",
]

FMT = "%.17g"


@dataclass(frozen=True)
class SpaceGrid:
    """Interior-node grid on the unit interval/square with spacing 1/(n+1)."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def edge_shape(self, axis: int) -> tuple:
        s = list(self.shape)
        s[axis] += 1
        return tuple(s)

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Coordinates of interior nodes, shape ``(dim, *shape)``."""
        x = (np.arange(1, self.n + 1)) * self.h
        if self.dim == 1:
            return x[None, :]
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.stack([xx, yy])

    def padded_coords(self, axis: int) -> np.ndarray:
        """Node coordinates padded by the boundary layer along one axis.

        Shape ``(dim, *shape_with_axis_grown_by_2)``; used to sample
        space-dependent model terms at the boundary nodes folded into the
        first and last staggered edges.
        """
        interior = np.arange(1, self.n + 1) * self.h
        padded = np.arange(0, self.n + 2) * self.h
        axes = [padded if a == axis else interior for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][None, :]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([xx, yy])

    @cached_property
    def diff_ops(self) -> list:
        """Per-axis sparse forward-difference operators, nodes -> edges."""
        n, h = self.n, self.h
        d1 = sp.diags_array([np.full(n, 1.0 / h)], offsets=[0], shape=(n + 1, n))
        d1 = (d1 + sp.diags_array([np.full(n, -1.0 / h)], offsets=[-1],
                                  shape=(n + 1, n))).tocsr()
        if self.dim == 1:
            return [d1]
        eye = sp.identity(n, format="csr")
        return [sp.kron(d1, eye, format="csr"), sp.kron(eye, d1, format="csr")]

    @cached_property
    def avg_ops(self) -> list:
        """Per-axis node->edge arithmetic averaging (zero beyond boundary)."""
        n = self.n
        a1 = sp.diags_array([np.full(n, 0.5)], offsets=[0], shape=(n + 1, n))
        a1 = (a1 + sp.diags_array([np.full(n, 0.5)], offsets=[-1],
                                  shape=(n + 1, n))).tocsr()
        if self.dim == 1:
            return [a1]
        eye = sp.identity(n, format="csr")
        return [sp.kron(a1, eye, format="csr"), sp.kron(eye, a1, format="csr")]

    @cached_property
    def neg_laplacian(self) -> sp.csr_matrix:
        """SPD matrix of ``-laplacian`` on flattened nodal values."""
        mat = sum(d.T @ d for d in self.diff_ops)
        return mat.tocsr()

    @cached_property
    def _poisson_lu(self):
        return splu(self.neg_laplacian.tocsc())

    def solve_neg_laplacian(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve ``(-laplacian) z = rhs`` for flat rhs (vector or matrix)."""
        return self._poisson_lu.solve(np.asarray(rhs_flat, dtype=float))


@dataclass
class Field:
    """Nodal values of a k-component function (or dual density) on a grid."""

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape == self.grid.shape:
            arr = arr[None, ...]
        if arr.ndim != self.grid.dim + 1 or arr.shape[1:] != self.grid.shape:
            raise ValueError(
                f"values shape {arr.shape} incompatible with grid shape "
                f"{self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("field values contain non-finite entries")
        self.values = arr

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(self.k, -1)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


# -- difference calculus ------------------------------------------------------
#
# Linear operators act on the trailing ``dim`` (spatial) axes; every leading
# axis (components, time slices, samples) is carried through as a batch.


def _batched(values, grid: SpaceGrid) -> np.ndarray:
    if isinstance(values, Field):
        values = values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim == grid.dim:
        arr = arr[None, ...]
    if arr.shape[-grid.dim:] != grid.shape:
        raise ValueError(
            f"trailing axes {arr.shape[-grid.dim:]} do not match grid shape "
            f"{grid.shape}"
        )
    return arr


def gradient(grid: SpaceGrid, values) -> list:
    """Staggered gradient; per axis an array of shape ``(..., *edge_shape)``."""
    arr = _batched(values, grid)
    prefix = arr.shape[:-grid.dim]
    flat = arr.reshape(-1, grid.n_nodes)
    out = []
    for a, d in enumerate(grid.diff_ops):
        # C order, so reductions over a row do not depend on the batch size
        g = np.ascontiguousarray((d @ flat.T).T)
        out.append(g.reshape(*prefix, *grid.edge_shape(a)))
    return out


def divergence(grid: SpaceGrid, edge_arrays: list) -> np.ndarray:
    """Adjoint divergence: ``<grad u, E> = -<u, div E>`` holds exactly."""
    total = None
    prefix = None
    for a, d in enumerate(grid.diff_ops):
        e = np.asarray(edge_arrays[a], dtype=float)
        if e.shape == grid.edge_shape(a):
            e = e[None, ...]
        prefix = e.shape[: -grid.dim]
        ef = e.reshape(-1, int(np.prod(e.shape[-grid.dim:])))
        contrib = -(d.T @ ef.T).T
        total = contrib if total is None else total + contrib
    return total.reshape(*prefix, *grid.shape)


def laplacian(grid: SpaceGrid, values) -> np.ndarray:
    """Five/three-point Dirichlet Laplacian via ``div(grad(.))``."""
    return divergence(grid, gradient(grid, values))


def poisson_solve(grid: SpaceGrid, rhs) -> np.ndarray:
    """Solve ``laplacian(z) = rhs`` with zero boundary values (batched)."""
    arr = _batched(rhs, grid)
    prefix = arr.shape[:-grid.dim]
    flat = arr.reshape(-1, grid.n_nodes)
    sol = grid.solve_neg_laplacian(-flat.T).T
    return sol.reshape(*prefix, *grid.shape)


def stencil_bands(grid: SpaceGrid, diag, edge_weights=(), node_coefs=()):
    """Bands of ``diag(d) + sum_a D_a^T diag(w_a) D_a + D_a^T Avg_a diag(c_a)``.

    ``diag`` and the node coefficients ``c_a`` have shape ``(..., *shape)``,
    the edge weights ``w_a`` ``(..., *edge_shape(a))``; the matrix is
    block-diagonal over the leading axes of ``diag``.  The bands are
    ``(2w + 1, slices * n_nodes)`` in :func:`scipy.linalg.solve_banded`
    layout, ``w = n^(dim-1)``.  Along axis ``a`` (stride ``s``) column ``j``
    holds ``-w_left/h^2 - c_j/(2h)`` in row ``j - s`` and
    ``-w_right/h^2 + c_j/(2h)`` in row ``j + s``.
    """
    n, dim, inv_h = grid.n, grid.dim, 1.0 / grid.h
    width = n ** (dim - 1)
    d = np.asarray(diag, dtype=float)
    bands = np.zeros((2 * width + 1,) + d.shape)
    for a in range(dim):
        stride = n ** (dim - 1 - a)
        up, down = bands[width - stride], bands[width + stride]
        tail = (slice(None),) * (dim - 1 - a)
        after = (Ellipsis, slice(1, None)) + tail  # j_a >= 1
        before = (Ellipsis, slice(None, -1)) + tail  # j_a <= n-2
        if len(edge_weights):
            w = edge_weights[a] * inv_h * inv_h
            bands[width] += w[before] + w[after]
            inner = w[before][after]  # interior edges, each shared by two nodes
            up[after] -= inner
            down[before] -= inner
        if len(node_coefs):
            c = node_coefs[a] * (0.5 * inv_h)
            up[after] -= c[after]
            down[before] += c[before]
    bands[width] += d
    return bands.reshape(2 * width + 1, -1)


def solve_bands(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with :func:`stencil_bands` output; raises
    :class:`numpy.linalg.LinAlgError` when the system is singular or the
    solution is not finite."""
    width = bands.shape[0] // 2
    with np.errstate(all="ignore"):  # a singular 1 x 1 system divides by 0
        x = solve_banded((width, width), bands, rhs, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("singular or non-finite banded solve")
    return x


# -- inner products and norms --------------------------------------------------


def h_inner(grid: SpaceGrid, u, w) -> float:
    """Volume-weighted inner product ``h^dim * sum(u * w)`` over components."""
    ua = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    wa = w.values if isinstance(w, Field) else np.asarray(w, dtype=float)
    return grid.cell_volume * float(np.vdot(ua, wa))


def h_inner_batch(grid: SpaceGrid, u, w) -> np.ndarray:
    """H inner product reduced over components and space, batched in front."""
    ua = _batched(u, grid)
    wa = _batched(w, grid)
    axes = tuple(range(-(grid.dim + 1), 0))
    return grid.cell_volume * np.sum(ua * wa, axis=axes)


def h_norm(grid: SpaceGrid, u) -> float:
    return float(np.sqrt(max(h_inner(grid, u, u), 0.0)))


def grad_magnitudes(grid: SpaceGrid, values) -> list:
    """Per-axis k-vector magnitudes of the staggered gradient.

    The component axis is the one just before the spatial axes; leading
    batch axes pass through.
    """
    comp_axis = -(grid.dim + 1)
    return [np.sqrt(np.sum(g**2, axis=comp_axis)) for g in gradient(grid, values)]


def grad_norm(grid: SpaceGrid, values, q: float):
    """Sobolev-type seminorm ``(sum_edges h^dim |grad u|^q)^{1/q}``.

    Returns a float for a single field and an array over leading batch axes
    for batched input.
    """
    arr = _batched(values, grid)
    single = arr.ndim == grid.dim + 1
    if single:
        arr = arr[None, ...]
    spatial = tuple(range(-grid.dim, 0))
    acc = None
    for mag in grad_magnitudes(grid, arr):
        term = grid.cell_volume * np.sum(mag**q, axis=spatial)
        acc = term if acc is None else acc + term
    out = acc ** (1.0 / q)
    return float(out[0]) if single else out


def dual_grad_norm(grid: SpaceGrid, density, p: float) -> float:
    """Negative-Sobolev norm of a nodal density: ``|grad((-lap)^{-1} f)|_p``.

    For ``p = 2`` this is the exact dual norm of the Dirichlet energy space;
    for other exponents it is the same lifted-gradient construction with the
    corresponding Lebesgue norm.
    """
    z = poisson_solve(grid, -np.asarray(density.values if isinstance(density, Field)
                                        else density, dtype=float))
    return grad_norm(grid, z, p)


# -- trajectories --------------------------------------------------------------


def uniform_times(t_end: float, n_steps: int, t_start: float = 0.0) -> np.ndarray:
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not t_end > t_start:
        raise ValueError("time interval must have positive length")
    return np.linspace(t_start, t_end, n_steps + 1)


@dataclass
class Trajectory:
    """States of a field at uniformly spaced time nodes.

    ``states`` has shape ``(M+1, k, *grid.shape)``.  The initial state is
    locked: the underlying array is read-only, and derived trajectories are
    produced through :meth:`with_tail`, which preserves row 0.
    """

    grid: SpaceGrid
    times: np.ndarray
    states: np.ndarray
    initial_locked: bool = field(default=True)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("times must hold at least two nodes")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise ValueError("times must be strictly increasing")
        if np.max(dt) - np.min(dt) > 1e-12 * max(abs(t[-1]), 1.0):
            raise ValueError("times must be uniformly spaced")
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim == self.grid.dim + 1:
            arr = arr[:, None, ...]
        if (arr.ndim != self.grid.dim + 2 or arr.shape[0] != t.size
                or arr.shape[2:] != self.grid.shape):
            raise ValueError(
                f"states shape {np.shape(self.states)} incompatible with "
                f"{t.size} time nodes on grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("trajectory states contain non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        self.times = t.copy()
        self.times.flags.writeable = False
        self.states = arr

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def k(self) -> int:
        return self.states.shape[1]

    @property
    def tau(self) -> float:
        return float(self.times[1] - self.times[0])

    def state(self, idx: int) -> Field:
        return Field(self.grid, self.states[idx].copy())

    def with_tail(self, tail: np.ndarray) -> "Trajectory":
        """New trajectory with the same locked initial state and new rows 1..M."""
        arr = np.asarray(tail, dtype=float).reshape(self.n_steps,
                                                    *self.states.shape[1:])
        return Trajectory(self.grid, self.times,
                          np.concatenate([self.states[:1], arr], axis=0))


def mixed_norm(traj: Trajectory, values=None) -> float:
    """Space-time L2 norm ``sqrt(tau * h^dim * sum(values^2))`` on the
    trajectory's grid and time step; ``values`` defaults to its states."""
    x = traj.states if values is None else np.asarray(values, dtype=float)
    return float(np.sqrt(traj.tau * traj.grid.cell_volume * np.sum(x * x)))


# -- persistence ---------------------------------------------------------------


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,node_0,...`` rows; %.17g so floats round-trip exactly."""
    n_vals = traj.k * traj.grid.n_nodes
    header = "t," + ",".join(f"node_{i}" for i in range(n_vals))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for t, state in zip(traj.times, traj.states):
            row = [FMT % t] + [FMT % v for v in state.ravel()]
            fh.write(",".join(row) + "\n")


def load_trajectory_csv(path, grid: SpaceGrid) -> Trajectory:
    """Read a trajectory written by :func:`save_trajectory_csv`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    n_vals = data.shape[1] - 1
    if n_vals % grid.n_nodes != 0:
        raise ValueError(
            f"{n_vals} value columns do not tile grid with {grid.n_nodes} nodes"
        )
    k = n_vals // grid.n_nodes
    states = data[:, 1:].reshape(times.size, k, *grid.shape)
    return Trajectory(grid, times, states)
