"""Uniform Dirichlet grids, staggered difference calculus, and trajectories.

The spatial domain is the unit interval (or square) with homogeneous
Dirichlet boundary conditions.  A grid with ``n`` interior nodes per axis
has spacing ``h = 1/(n+1)``.  Nodal values live on interior nodes only;
gradients live on the staggered edge lattice (``n+1`` edges per axis line),
with the boundary value zero folded into the first and last edge.

All difference calculus is arithmetic on shifted slices of the trailing
spatial axes.  Along each axis the nodal values are padded with the zero
boundary layer (:func:`pad_boundary`), and the staggered forward difference

    (D_a u)_e = (u_right - u_left) / h

takes the padded nodes to edges.  The discrete divergence applies the same
difference to edge arrays, so it is exactly ``-D_a^T``; the (negative)
Laplacian is ``sum_a D_a^T D_a``, and summation by parts

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgbsv, dgtsv, dpbtrf, dpbtrs, dpttrf, dpttrs

from .errors import NonFiniteInputError

__all__ = [
    "SpaceGrid",
    "Field",
    "Trajectory",
    "gradient",
    "divergence",
    "pad_boundary",
    "pair_mean",
    "laplacian",
    "poisson_solve",
    "stencil_bands",
    "sweep_bands",
    "bands_apply",
    "h_inner",
    "h_inner_batch",
    "h_norm",
    "edge_magnitude",
    "edge_sum",
    "grad_norm",
    "dual_grad_norm",
    "mixed_norm",
    "uniform_times",
    "format_rows",
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
        x = np.arange(1, self.n + 1) * self.h
        return np.stack(np.meshgrid(*[x] * self.dim, indexing="ij"))

    @cached_property
    def padded_coords(self) -> tuple:
        """Per axis, the node coordinates padded by the boundary layer along
        it, ``(dim, *shape_with_axis_grown_by_2)``: space-dependent model
        terms are sampled at the boundary nodes folded into the first and
        last staggered edges."""
        interior = np.arange(1, self.n + 1) * self.h
        padded = np.arange(0, self.n + 2) * self.h
        return tuple(np.stack(np.meshgrid(
            *[padded if a == axis else interior for a in range(self.dim)],
            indexing="ij")) for axis in range(self.dim))

    @cached_property
    def _poisson_factor(self) -> tuple:
        """``dpttrs`` or ``dpbtrs`` and the LAPACK Cholesky factors of
        ``-laplacian`` it reads: ``dpttrf``'s ``(d, e)`` when the bands are
        tridiagonal, else ``dpbtrf``'s upper ``w + 1`` bands."""
        ones = [np.ones(self.edge_shape(a)) for a in range(self.dim)]
        bands = stencil_bands(self, np.zeros(self.shape), ones)
        w = bands.shape[0] // 2
        if w == 1 and self.n_nodes > 1:  # f2py's dpttrf rejects an empty e
            solve, (*factor, info) = dpttrs, dpttrf(bands[1], bands[0, 1:])
        else:
            solve, (*factor, info) = dpbtrs, dpbtrf(bands[:w + 1])
        if info != 0:
            raise np.linalg.LinAlgError(f"Poisson factorization: info {info}")
        return (solve, *factor)


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


def _neighbours(grid: SpaceGrid, values, axis: int):
    """Left and right neighbour views of ``values`` along spatial ``axis``."""
    tail = (slice(None),) * (grid.dim - 1 - axis)
    return (values[(Ellipsis, slice(None, -1)) + tail],
            values[(Ellipsis, slice(1, None)) + tail])


def pad_boundary(grid: SpaceGrid, values, axis: int) -> np.ndarray:
    """Nodal values with the zero boundary layer added at both ends of ``axis``."""
    shape = list(values.shape)
    shape[axis - grid.dim] = 1
    zero = np.zeros(shape)
    return np.concatenate([zero, values, zero], axis=axis - grid.dim)


def pair_mean(grid: SpaceGrid, values, axis: int) -> np.ndarray:
    """Mean of neighbours along ``axis``: padded nodes to edges (``Avg_a``),
    or edges to nodes (``Avg_a^T``)."""
    left, right = _neighbours(grid, values, axis)
    return 0.5 * (left + right)


def _difference(grid: SpaceGrid, values, axis: int) -> np.ndarray:
    left, right = _neighbours(grid, values, axis)
    inv_h = 1.0 / grid.h
    # scale before subtracting, as the matrix with entries +-1/h does
    return right * inv_h - left * inv_h


def gradient(grid: SpaceGrid, values) -> list:
    """Staggered gradient; per axis an array of shape ``(..., *edge_shape)``."""
    arr = _batched(values, grid)
    return [_difference(grid, pad_boundary(grid, arr, a), a)
            for a in range(grid.dim)]


def divergence(grid: SpaceGrid, edge_arrays: list) -> np.ndarray:
    """Adjoint divergence, ``(..., *edge_shape(a))`` per axis to
    ``(..., *shape)``: ``<grad u, E> = -<u, div E>`` holds exactly."""
    total = None
    for a, e in enumerate(edge_arrays):
        contrib = _difference(grid, np.asarray(e, dtype=float), a)
        total = contrib if total is None else total + contrib
    return total


def laplacian(grid: SpaceGrid, values) -> np.ndarray:
    """Five/three-point Dirichlet Laplacian via ``div(grad(.))``."""
    return divergence(grid, gradient(grid, values))


def poisson_solve(grid: SpaceGrid, rhs) -> np.ndarray:
    """Solve ``laplacian(z) = rhs`` with zero boundary values (batched)."""
    arr = _batched(rhs, grid)
    solve, *factor = grid._poisson_factor
    z, info = solve(*factor, -arr.reshape(-1, grid.n_nodes).T, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Poisson solve: info {info}")
    return z.T.reshape(arr.shape)


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


def sweep_bands(bands: np.ndarray, rhs: np.ndarray, lag: float = 0.0,
                carry: bool = False):
    """Forward sweep ``x_0 = 0``, ``x_{k+1} = A_k^{-1}(rhs_k + lag x_k)``,
    minus ``x_k`` if ``carry``, over the rows of ``rhs`` ``(slices, size)``, the
    :func:`stencil_bands` bands of every ``A_k`` side by side in ``bands``.
    The bands are split once into per-slice LAPACK storage (``dgtsv``
    diagonals, or padded Fortran-ordered ``dgbsv`` blocks), each slice is
    solved in place, and finiteness is checked once after the loop.  Returns
    ``x`` and the first slice whose solve is singular or not finite, or
    ``None``; the rows after that slice are zero.
    """
    (slices, size), width = rhs.shape, bands.shape[0] // 2
    per = bands.reshape(2 * width + 1, slices, size)
    tri = width == 1 and size > 1  # f2py's dgtsv rejects empty off-diagonals
    if tri:
        dl, d, du = per[2, :, :-1].copy(), per[1].copy(), per[0, :, 1:].copy()
    else:
        ab = np.zeros((slices, size, 3 * width + 1)).transpose(0, 2, 1)
        ab[:, width:] = per.transpose(1, 0, 2)
    x, failed = np.zeros((slices + 1, size)), slices
    with np.errstate(all="ignore"):  # non-finite rows are found below
        for k in range(slices):
            b = rhs[k] + lag * x[k] if lag else rhs[k].copy()
            if tri:
                *_, b, info = dgtsv(dl[k], d[k], du[k], b, 1, 1, 1, 1)
            else:
                *_, b, info = dgbsv(width, width, ab[k], b, 1, 1)
            if info != 0:
                failed = k
                break
            x[k + 1] = b - x[k] if carry else b
    bad = np.flatnonzero(~np.isfinite(x[1:failed + 1]).all(axis=1))
    failed = int(bad[0]) if bad.size else failed
    x[failed + 1:] = 0.0
    return x, (None if failed == slices else failed)


def bands_apply(grid: SpaceGrid, bands: np.ndarray, x: np.ndarray,
                transpose: bool = False) -> np.ndarray:
    """``A_k x_k`` (``A_k^T x_k`` if ``transpose``) for every row ``x_k`` of
    ``x`` ``(slices, size)``, the :func:`stencil_bands` bands of every
    ``A_k`` side by side in ``bands``: column ``j`` of band ``w + d``,
    ``A_{j+d,j}``, takes ``x_j`` to ``y_{j+d}`` (``x_{j+d}`` to ``y_j``)."""
    width = bands.shape[0] // 2
    per = bands.reshape((2 * width + 1,) + x.shape)
    y = per[width] * x
    for d in {grid.n ** a for a in range(grid.dim)}:  # the nonzero offsets
        head, tail = np.s_[:, :-d], np.s_[:, d:]
        to, fro = (head, tail) if transpose else (tail, head)
        y[to] += per[width + d][head] * x[fro]
        y[fro] += per[width - d][tail] * x[to]
    return y


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


def h_norm(grid: SpaceGrid, u):
    """H norm of each field ``(..., k, *shape)`` by one BLAS dot, batched in
    front (a float for a single field); an overflowed norm reads inf."""
    arr, comp = _batched(u, grid), -(grid.dim + 1)
    rows = arr.reshape(-1, 1, arr.shape[comp] * grid.n_nodes)
    with np.errstate(over="ignore"):
        out = np.sqrt(grid.cell_volume * (rows @ rows.transpose(0, 2, 1)))
    out = out.reshape(arr.shape[:comp])
    return float(out) if out.ndim == 0 else out


def edge_magnitude(grid: SpaceGrid, g) -> np.ndarray:
    """``|g|`` of staggered gradients ``(..., k, *edge_shape)`` over the
    component axis, kept at length 1: ``abs`` for k = 1, which cannot
    overflow, else ``sqrt(sum g^2)``."""
    comp = -(grid.dim + 1)
    return (np.abs(g) if g.shape[comp] == 1
            else np.sqrt(np.sum(g**2, axis=comp, keepdims=True)))


def edge_sum(grid: SpaceGrid, values, f) -> np.ndarray:
    """``sum_edges h^dim f(|grad u|)`` per field, ``|grad u|`` being the
    :func:`edge_magnitude` of the staggered gradient.  Returns an array over
    the leading batch axes, 0-d for a single field."""
    arr = _batched(values, grid)
    comp, spatial = -(grid.dim + 1), tuple(range(-grid.dim, 0))
    acc = None
    for g in gradient(grid, arr[None] if arr.ndim == grid.dim + 1 else arr):
        term = grid.cell_volume * np.sum(f(edge_magnitude(grid, g)),
                                         axis=spatial)
        acc = term if acc is None else acc + term
    return acc.reshape(arr.shape[:comp])


def grad_norm(grid: SpaceGrid, values, q: float):
    """Sobolev-type seminorm ``(sum_edges h^dim |grad u|^q)^{1/q}``.

    Returns a float for a single field and an array over leading batch axes
    for batched input.
    """
    out = edge_sum(grid, values, lambda s: s**q) ** (1.0 / q)
    return float(out) if out.ndim == 0 else out


def dual_grad_norm(grid: SpaceGrid, density, p: float) -> float:
    """Negative-Sobolev norm of a nodal density: ``|grad((-lap)^{-1} f)|_p``.

    For ``p = 2`` this is the exact dual norm of the Dirichlet energy space;
    for other exponents it is the same lifted-gradient construction with the
    corresponding Lebesgue norm.
    """
    z = poisson_solve(grid, -_batched(density, grid))
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

    def with_tail(self, tail: np.ndarray) -> "Trajectory":
        """New trajectory with the same locked initial state and new rows
        1..M; raises ``ValueError`` unless ``tail`` has their shape."""
        arr = np.asarray(tail, dtype=float)
        if arr.shape != self.states[1:].shape:
            raise ValueError(f"tail shape {arr.shape} is not {self.states[1:].shape}")
        return Trajectory(self.grid, self.times,
                          np.concatenate([self.states[:1], arr], axis=0))


def mixed_norm(traj: Trajectory, values=None) -> float:
    """Space-time L2 norm ``sqrt(tau * h^dim * sum(values^2))`` on the
    trajectory's grid and time step; ``values`` defaults to its states."""
    x = traj.states if values is None else np.asarray(values, dtype=float)
    return float(np.sqrt(traj.tau * traj.grid.cell_volume * np.sum(x * x)))


# -- persistence ---------------------------------------------------------------


def format_rows(rows, sep: str = ","):
    """Yield the ``%.17g`` text of each row of a 2-D array, values joined by
    ``sep``: one prebuilt format string applied to plain floats."""
    rows = np.asarray(rows, dtype=float)
    line = sep.join([FMT] * rows.shape[1])
    return (line % tuple(row.tolist()) for row in rows)


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,node_0,...`` rows; %.17g so floats round-trip exactly."""
    n_vals = traj.k * traj.grid.n_nodes
    header = "t," + ",".join(f"node_{i}" for i in range(n_vals))
    rows = format_rows(np.column_stack([traj.times, traj.states.reshape(-1, n_vals)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


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
