"""Uniqueness probe: the minimizer restarted from several random starts.

A test helper, not library API: acceptance criterion 6 and the solver
tests use it to expose (non-)uniqueness of the reachable minimizer.
"""

from dataclasses import dataclass, field
from itertools import combinations

from benpde.grid import SpaceGrid, mixed_norm
from benpde.models import ModelSpec
from benpde.solver import (SolveOptions, compare, minimize,
                           random_initial_trajectory)

#: Mixed-norm scale below which trajectories count as collapsed to zero;
#: the probe compares such pairs absolutely, because a relative comparison
#: of two roundoff-sized minimizers is noise against noise.
DEGENERATE_SCALE = 1e-9


@dataclass
class ProbeResult:
    """Uniqueness probe outcome: worst pairwise discrepancy among the
    minimizers that converged, plus per-seed convergence flags."""

    max_pairwise: float
    seeds: list
    converged: list
    outcomes: list = field(repr=False)


def uniqueness_probe(model: ModelSpec, grid: SpaceGrid, times, w0,
                     opts: SolveOptions = SolveOptions(), n_seeds: int = 3,
                     noise: float = 0.5, seed: int = 0) -> ProbeResult:
    """Minimize from the random starts of seeds ``seed, seed + 1, ...`` and
    report the worst pairwise discrepancy among converged minimizers.

    Seeds that fail (line-search stall or no convergence) are recorded, not
    fatal; the probe raises ``RuntimeError`` only when fewer than two runs
    converge.
    Pairs of minimizers that both collapsed below :data:`DEGENERATE_SCALE`
    are scored by their absolute mixed-norm difference instead of the
    relative one.
    """
    if n_seeds < 2:
        raise ValueError("uniqueness probe needs at least two seeds")
    seeds = [seed + i for i in range(n_seeds)]
    outcomes = []
    flags = []
    for s in seeds:
        init = random_initial_trajectory(grid, times, w0, seed=s, noise=noise)
        out = minimize(model, init, opts)
        outcomes.append(out)
        flags.append(out.converged)
    converged = [o for o, f in zip(outcomes, flags) if f]
    if len(converged) < 2:
        raise RuntimeError(f"uniqueness probe: only {len(converged)} of "
                           f"{n_seeds} runs converged")

    worst = 0.0
    for a, b in combinations([o.trajectory for o in converged], 2):
        if max(mixed_norm(a), mixed_norm(a, b.states)) <= DEGENERATE_SCALE:
            worst = max(worst, mixed_norm(a, a.states - b.states))
        else:
            worst = max(worst, compare(a, b).rel_l2)
    return ProbeResult(max_pairwise=worst, seeds=seeds, converged=flags,
                       outcomes=outcomes)
