"""Fixed-input kernel timings for the traced run, at two working-set sizes.

Heat energy kernels use n=33, M=64 (17 KB of state) and n=257, M=256
(0.5 MB); the q=4 conjugate uses n=17, M=16 and n=65, M=64.  On the
measuring machine (2 MiB L2 per core, 300 MiB shared L3) both states fit in
L2, and the temporaries of the large kernels stay far inside L3, so these
timings make no memory-bandwidth claim.  ``kernel.bytes.large`` is computed
from array sizes, not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from benpde.energy import conjugate_on_dual, energy_and_gradient, eval_energy
from benpde.grid import SpaceGrid, Trajectory, uniform_times
from benpde.models import divergence_form_model, heat_model, lambda_density

#: Each kernel repeats until this many seconds have passed (at least
#: MIN_REPEATS calls, at most MAX_REPEATS) and reports the median call.
BUDGET_S = 0.4
MIN_REPEATS = 3
MAX_REPEATS = 200

HEAT_SIZES = {"small": (33, 64), "large": (257, 256)}
CONJUGATE_SIZES = {"small": (17, 16), "large": (65, 64)}


def _median_ms(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or (
            time.perf_counter() - start < BUDGET_S and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _noisy_trajectory(rng, n, m, t_end, noise):
    """Sine initial state plus Gaussian noise on every later time node."""
    grid = SpaceGrid(dim=1, n=n)
    times = uniform_times(t_end, m)
    w0 = np.sin(np.pi * grid.node_coords[0])
    states = w0 + noise * rng.normal(size=(m + 1, 1, n))
    states[0, 0] = w0
    return Trajectory(grid, times, states)


def kernel_metrics(seed: int) -> dict:
    """Median milliseconds per call of each kernel, plus the large state size."""
    rng = np.random.default_rng(seed)
    out = {}
    heat = heat_model()
    for size, (n, m) in HEAT_SIZES.items():
        traj = _noisy_trajectory(rng, n, m, 0.1, 0.5)
        out[f"kernel.eval_energy_ms.{size}"] = _median_ms(
            lambda: eval_energy(heat, traj))
        out[f"kernel.energy_and_gradient_ms.{size}"] = _median_ms(
            lambda: energy_and_gradient(heat, traj))
        if size == "large":
            out["kernel.bytes.large"] = float(traj.states.nbytes)
    q4 = divergence_form_model(q=4.0)
    for size, (n, m) in CONJUGATE_SIZES.items():
        traj = _noisy_trajectory(rng, n, m, 0.05, 0.25)
        u = traj.states
        mids = 0.5 * (u[1:] + u[:-1])
        t_mid = 0.5 * (traj.times[1:] + traj.times[:-1])
        dual = -(u[1:] - u[:-1]) / traj.tau - lambda_density(q4, traj.grid,
                                                              mids, t_mid)
        out[f"kernel.conjugate_q4_ms.{size}"] = _median_ms(
            lambda: conjugate_on_dual(q4.density, traj.grid, dual))
    return out
