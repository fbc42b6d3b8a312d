"""Evolution models in divergence form and their structural condition checks.

A model couples a convex dissipation density ``psi`` with a (possibly zero)
first-order operator assembled weakly from two ingredients, both optional:

* a reaction ``theta(B, x, t)`` tested directly against perturbations,
* a flux ``xi(B, x, t)`` tested against perturbation gradients (the
  Burgers flux ``u^2/2``, truncated to stay Lipschitz, is one).

The weak form on the Dirichlet grid reads, for any test field ``delta``,

    <delta, Lambda_t(u)> = sum_edges h^d xi . grad(delta)
                         - sum_nodes h^d theta . delta,

so ``Lambda_t(u)`` is carried as the nodal density
``-div(edge_avg(xi)) - theta``.  The flux is sampled at the nodes
(including the zero boundary layer) and averaged onto the staggered edges;
the divergence is the exact adjoint of the staggered gradient, so
summation-by-parts identities hold to roundoff.

Every model stores constants for the structural inequalities the
well-posedness theory needs (coercive growth, derivative growth, one-sided
monotonicity, energy positivity, uniform convexity, Lipschitz bounds).  The
constants are derived from the declared Lipschitz data of the terms plus a
declared one-sided reaction bound ``B * theta(B) <= rho (B^2 + 1)``; a model
whose reaction pumps energy faster than its declaration is caught by the
positivity check (see :func:`adversarial_model`).  A constant calibrated
against the samples instead is marked fitted.  :func:`check_all_conditions`
checks all six on one draw: each sample, a time and two fields, is read
once from three NumPy streams spawned from ``seed`` (times, white noise,
smoothing coins), and what several margins share is priced once.

All operator entry points accept leading batch axes, so a whole trajectory
or a checker block of :data:`BLOCK_SIZE` samples evaluates in one vectorised
sweep of scalar fields ``(..., *grid.shape)``.  The linearization of
``Lambda`` exists once, as the bands of :func:`jacobian_bands`: the
Gauss-Newton sweep solves them, ``grad phi`` applies them through
:func:`~benpde.grid.bands_apply`, and ``J``'s gradient and the checker's
margins through :func:`dlambda_density` (``DLambda v`` or ``DLambda^T v``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .convex import PowerDensity, radial_coefficient, radial_value
from .errors import ModelEvaluationError
from .grid import (
    SpaceGrid,
    _batched,
    bands_apply,
    divergence,
    dual_grad_norm,
    edge_sum,
    grad_norm,
    gradient,
    h_inner,
    pad_boundary,
    pair_mean,
    poisson_solve,
    stencil_bands,
)

__all__ = [
    "ReactionTerm",
    "FluxTerm",
    "ConditionConstants",
    "ModelSpec",
    "ConditionReport",
    "lambda_density",
    "dlambda_density",
    "jacobian_bands",
    "psi_total",
    "psi_gradient_density",
    "psi_hessian_edge_weights",
    "heat_model",
    "burgers_model",
    "divergence_form_model",
    "adversarial_model",
    "build_model",
    "fit_constants",
    "check_all_conditions",
    "CONDITION_NAMES",
]

#: Margin threshold below which a sampled condition is declared failed.
MARGIN_FLOOR = -1e-9

#: Maximum number of failing samples recorded in a report.
MAX_WITNESSES = 5

#: Samples per checker block, and time slices per ``energy_totals`` call of
#: ``gradcheck``.  All six checks of the burgers verify config take 13 / 6.5 /
#: 6.4 ms at 64 / 256 / 1024, at tracemalloc peaks of 0.2 / 0.8 / 2.8 MB
#: (medians of 15, 2-core x86_64).  Larger batches allocate temporaries that
#: the allocator maps and unmaps on every call.
BLOCK_SIZE = 256

#: Discrete Poincare constant bound: smallest eigenvalue of the 1-D
#: Dirichlet second-difference matrix is (4/h^2) sin^2(pi h / 2) >= 8 for
#: every admissible spacing h <= 1/2, so |u|_H <= |grad u|_H / sqrt(8).
POINCARE = 1.0 / np.sqrt(8.0)


# -- term containers -----------------------------------------------------------


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction ``theta(B, x, t)``: tested against the perturbation itself.

    ``func``/``deriv`` map ``(B, x, t) -> array like B`` elementwise;
    ``deriv`` is d(theta)/dB.  ``lipschitz`` bounds ``|deriv|`` globally;
    ``dissipation`` is the declared one-sided bound rho with
    ``B * theta(B, x, t) <= rho (B^2 + 1)``.
    """

    func: Callable
    deriv: Callable
    lipschitz: float
    dissipation: float = 0.0


@dataclass(frozen=True)
class FluxTerm:
    """Flux ``xi(B, x, t)``: tested against perturbation gradients.

    ``func``/``deriv`` have signature ``(B, x, t, axis) -> array like B``
    returning one spatial component at a time.  ``lipschitz`` bounds the
    total derivative magnitude.
    """

    func: Callable
    deriv: Callable
    lipschitz: float


@dataclass(frozen=True)
class ConditionConstants:
    """Constants entering the sampled structural inequalities; ``fitted``
    names the conditions whose constants were calibrated, not derived."""

    growth_c0: float
    deriv_g: float
    mono_ghat: float
    pos_ctilde: float
    pos_mubar: float
    uniconv_c0: float
    fitted: tuple = ()


@dataclass(frozen=True)
class ModelSpec:
    """A dissipation density plus optional divergence-form drift terms.

    ``lam`` is the binary switch of the trajectory functional: 1 couples the
    density to the state (gradient-flow structure), 0 leaves only the dual
    residual term.
    """

    name: str
    density: PowerDensity
    lam: int = 1
    reaction: Optional[ReactionTerm] = None
    flux: Optional[FluxTerm] = None
    constants: Optional[ConditionConstants] = None

    def __post_init__(self):
        if self.lam not in (0, 1):
            raise ValueError(f"lam must be 0 or 1, got {self.lam}")
        if self.density.exponent > 2.0 and self.density.regularizer <= 0.0:
            raise ValueError(
                "exponent > 2 requires a positive regularizer: the assembled "
                "dual solves need a strongly monotone gradient at the origin"
            )
        if self.constants is None:
            object.__setattr__(self, "constants", fit_constants(self))


# -- integrated dissipation machinery -------------------------------------------


def psi_total(density: PowerDensity, grid: SpaceGrid, values):
    """Integrated density ``sum_edges h^d psi(grad u)``, batched in front."""
    out = edge_sum(grid, values, lambda s: radial_value(density, s))
    return float(out) if out.ndim == 0 else out


def psi_gradient_density(density: PowerDensity, grid: SpaceGrid, values):
    """Nodal density of the integrated-density gradient: ``-div(Dpsi(grad u))``,
    ``Dpsi`` by the radial gradient law on each axis's edges."""
    return -divergence(grid, [radial_coefficient(density, np.abs(g)) * g
                              for g in gradient(grid, values)])


def psi_hessian_edge_weights(density: PowerDensity, grid: SpaceGrid, values) -> list:
    """Per-axis edge weights ``(..., *edge_shape)`` of ``D^2 psi`` at fields
    ``(..., *shape)``: the edge scalars ``a (q-1) |g|^{q-2} + eps``.
    :func:`~benpde.grid.stencil_bands` turns them into the SPD weighted
    Laplacian the 2-D dual Newton solves; :func:`jacobian_bands` adds them to
    the drift's bands, the one set that the Gauss-Newton sweep solves and
    that ``grad phi``, ``J``'s gradient and the condition checker apply.
    """
    return [radial_coefficient(density, np.abs(g), curvature=True)
            for g in gradient(grid, values)]


# -- Lambda assembly -------------------------------------------------------------


def _time_broadcast(t, extra_axes: int):
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return arr.reshape(arr.shape + (1,) * extra_axes)


def _check_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
        idx = tuple(np.argwhere(~np.isfinite(arr))[0])
        raise ModelEvaluationError(f"{what} produced non-finite value at index {idx}")


def _edge_flux(model: ModelSpec, grid: SpaceGrid, B: np.ndarray, t) -> list:
    """The flux sampled on the padded lattice and averaged onto edges.

    It is evaluated at the boundary nodes too, because ``xi(0, x)`` need not
    vanish: padding the interior values is not enough.
    """
    edges = []
    tb = _time_broadcast(t, grid.dim)
    for axis in range(grid.dim):
        w = model.flux.func(pad_boundary(grid, B, axis),
                            grid.padded_coords[axis], tb, axis)
        _check_finite(w, f"flux term of model '{model.name}'")
        edges.append(pair_mean(grid, w, axis))
    return edges


def lambda_density(model: ModelSpec, grid: SpaceGrid, values, t):
    """Nodal density of ``Lambda_t(u)``; batched over leading axes.

    ``values`` has shape ``(..., *grid.shape)``; ``t`` is a scalar or an
    array matching the batch prefix.
    """
    B = _batched(values, grid)
    acc = np.zeros_like(B)
    if model.flux is not None:
        acc = acc + -divergence(grid, _edge_flux(model, grid, B, t))
    if model.reaction is not None:
        tb = _time_broadcast(t, grid.dim)
        theta = model.reaction.func(B, grid.node_coords, tb)
        _check_finite(theta, f"reaction term of model '{model.name}'")
        acc = acc - theta
    return acc


def jacobian_bands(model: ModelSpec, grid: SpaceGrid, values, t, shift: float,
                   theta: float) -> np.ndarray:
    """Bands (:func:`~benpde.grid.stencil_bands`) of ``shift I + theta
    (DLambda_t(u) + lam D^2Psi(lam u))``, the one linearization of ``Lambda``,
    block-diagonal over the leading axes of the states ``values``
    ``(..., *shape)`` at times ``t``."""
    B = _batched(values, grid)
    tb, x = _time_broadcast(t, grid.dim), grid.node_coords
    diag, weights, coefs = np.full_like(B, shift), (), ()
    if model.reaction is not None:
        diag = diag - theta * model.reaction.deriv(B, x, tb)
    if model.flux is not None:
        coefs = [theta * model.flux.deriv(B, x, tb, a) for a in range(grid.dim)]
    if model.lam:  # lam = 1
        weights = [theta * w for w in
                   psi_hessian_edge_weights(model.density, grid, values)]
    return stencil_bands(grid, diag, weights, coefs)


def dlambda_density(model: ModelSpec, grid: SpaceGrid, values, t, vector,
                    transpose: bool = False):
    """``DLambda_t(u) v``, or ``DLambda_t(u)^T v`` with ``transpose``, as a
    nodal density: the :func:`jacobian_bands` of ``Lambda`` alone through
    :func:`~benpde.grid.bands_apply`, so the two H pairings agree to roundoff."""
    arr, vec = _batched(values, grid), _batched(vector, grid)
    if model.reaction is None and model.flux is None:
        return np.zeros(np.broadcast_shapes(arr.shape, vec.shape))
    bands = jacobian_bands(replace(model, lam=0), grid, arr, t, 0.0, 1.0)
    return bands_apply(grid, bands, vec.reshape(-1, grid.n_nodes),
                       transpose).reshape(vec.shape)


# -- built-in models --------------------------------------------------------------


def _square_flux(amp: float, cap: float) -> FluxTerm:
    """Flux ``amp * u^2/2`` along the first axis, zero across, continued
    linearly beyond ``|u| = cap`` (C^1, globally Lipschitz ``amp * cap``)."""

    def func(u, x, t, axis):
        if axis != 0:
            return np.zeros_like(u)
        au = np.abs(u)
        return amp * np.where(au <= cap, 0.5 * u**2, cap * au - 0.5 * cap**2)

    def deriv(u, x, t, axis):
        return amp * np.clip(u, -cap, cap) if axis == 0 else np.zeros_like(u)

    return FluxTerm(func=func, deriv=deriv, lipschitz=amp * cap)


def _affine_reaction(const: float, slope: float, dissipation: float) -> ReactionTerm:
    """Reaction ``const + slope * u`` with the declared one-sided bound."""
    return ReactionTerm(
        func=lambda u, x, t: const + slope * u,
        deriv=lambda u, x, t: np.broadcast_to(float(slope), np.shape(u)).astype(float),
        lipschitz=abs(slope), dissipation=dissipation)


def _require(kind: str, **params) -> None:
    """Raise ``ValueError("<name>: must be finite")``, or ``"... must be
    <kind>"``, for the first of ``params`` that is not finite, or not
    ``kind`` ("positive" or "nonnegative"; "finite" asks for nothing more)."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name}: must be finite")
        if value < 0.0 and kind != "finite" or value == 0.0 and kind == "positive":
            raise ValueError(f"{name}: must be {kind}")


def heat_model(a: float = 1.0) -> ModelSpec:
    """Plain gradient flow of the Dirichlet energy ``(a/2)|grad u|^2``."""
    _require("positive", a=a)
    return ModelSpec(name="heat", density=PowerDensity(a, 2.0, 0.0), lam=1)


def burgers_model(a: float = 1.0, u_max: float = 10.0) -> ModelSpec:
    """Viscous Burgers drift: flux ``F(u) = u^2/2`` truncated at ``u_max``.

    The truncation keeps F globally Lipschitz (constant ``u_max``) without
    touching states of the expected magnitude.  The flux acts along the
    first spatial axis.
    """
    _require("positive", a=a, u_max=u_max)
    return ModelSpec(name="burgers", density=PowerDensity(a, 2.0, 0.0), lam=1,
                     flux=_square_flux(1.0, u_max))


def divergence_form_model(q: float = 2.0, a: float = 1.0, eps: float | None = None,
                          flux_amp: float = 0.4, flux_cap: float = 2.0,
                          reaction_const: float = 0.5,
                          reaction_slope: float = 1.0) -> ModelSpec:
    """Divergence-form model with truncated-polynomial flux and affine reaction.

    ``xi(B) = flux_amp * trunc(B^2/2)`` along the first axis and
    ``theta(B) = reaction_const - reaction_slope * B``; for ``q > 2`` the
    density carries a quadratic regularizer (default 1) so the dual solves
    stay uniformly elliptic.
    """
    if q not in (2.0, 4.0):
        raise ValueError(f"q: divergence-form model supports q in {{2, 4}}, got {q}")
    if eps is None:
        eps = 0.0 if q == 2.0 else 1.0
    _require("positive", a=a, flux_cap=flux_cap)
    _require("nonnegative", flux_amp=flux_amp, reaction_slope=reaction_slope)
    _require("nonnegative" if q == 2.0 else "positive", eps=eps)
    _require("finite", reaction_const=reaction_const)
    # one-sided bound: B(c - sB) <= c^2/(4s) pointwise (s > 0)
    rho = reaction_const**2 / (4.0 * reaction_slope) if reaction_slope > 0 \
        else abs(reaction_const)
    model = ModelSpec(name=f"divergence_form_q{int(q)}",
                      density=PowerDensity(a, q, eps), lam=1,
                      reaction=_affine_reaction(reaction_const, -reaction_slope, rho),
                      flux=_square_flux(flux_amp, flux_cap))
    if q == 4.0:
        # Sample-range-fitted uniform-convexity constant: the regularizer
        # only controls the quadratic part of the gap, so the constant is
        # calibrated against the checker's sampling distribution.
        model = replace(model, constants=replace(
            model.constants, uniconv_c0=2.0e5, fitted=("uniform_convexity",)))
    return model


def adversarial_model(kappa: float = 50.0, a: float = 1.0) -> ModelSpec:
    """Reaction ``theta(B) = +kappa B`` declared as non-pumping (rho = 0).

    The declaration is deliberately wrong: the drift feeds energy in at rate
    kappa, so the positivity check fails with explicit witnesses while the
    purely Lipschitz-based conditions still pass.  Used to demonstrate that
    the checkers catch broken structural certificates.
    """
    _require("positive", a=a)
    _require("nonnegative", kappa=kappa)
    return ModelSpec(name="adversarial", density=PowerDensity(a, 2.0, 0.0), lam=1,
                     reaction=_affine_reaction(0.0, kappa, 0.0))


_BUILDERS = {
    "heat": heat_model,
    "burgers": burgers_model,
    "divergence_form": divergence_form_model,
    "adversarial": adversarial_model,
}


def build_model(name: str, **params) -> ModelSpec:
    """Construct a built-in model by name (heat, burgers, divergence_form,
    adversarial).  A ``ValueError`` from a builder starts with the name of
    the parameter out of range (each must be finite, ``a`` and the caps
    positive, the others nonnegative, ``eps`` positive when ``q > 2``)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown model '{name}'; available: {sorted(_BUILDERS)}")
    return _BUILDERS[name](**params)


# -- fitted constants --------------------------------------------------------------


def fit_constants(model: ModelSpec) -> ConditionConstants:
    """Derive structural-inequality constants from declared Lipschitz data.

    The derivations are Young-inequality arithmetic: the flux pairing is
    bounded by ``L |h|_H |grad h|_2`` and absorbed into the uniformly convex
    part of the density, the reaction by its Lipschitz constant or its
    declared one-sided bound.  A factor-two safety margin is applied
    throughout.
    """
    a = model.density.coefficient
    q = model.density.exponent
    eps = model.density.regularizer
    qstar = q / (q - 1.0)
    l_theta = model.reaction.lipschitz if model.reaction else 0.0
    rho = model.reaction.dissipation if model.reaction else 0.0
    l_flux = model.flux.lipschitz if model.flux else 0.0
    c_unif = eps + (a if q == 2.0 else 0.0)

    growth_c0 = 2.0 * max(q / a, a / q + eps + 1.0)
    deriv_g = 2.0 * (l_flux * POINCARE + l_theta * POINCARE**2) + 1.0
    mono_ghat = l_theta + (l_flux**2) / (4.0 * c_unif) + 1.0 if c_unif > 0 \
        else l_theta + 1.0
    # positivity: absorb c_absorb * |x|_X^q of the flux pairing into the
    # density's (a/q) |x|_X^q; Young constant for s*t <= c t^q + Cy s^{q*}
    c_absorb = a / (2.0 * q)
    cy = 1.0 / (qstar * (q * c_absorb) ** (qstar / q))
    s_slope = np.sqrt(2.0) * l_flux
    pos_mubar = rho + cy * (2.0**qstar) * (s_slope**qstar + 1.0) + 1.0
    uniconv_c0 = 2.0 / c_unif if q == 2.0 else 4.0 / eps

    return ConditionConstants(
        growth_c0=float(growth_c0),
        deriv_g=float(deriv_g),
        mono_ghat=float(mono_ghat),
        pos_ctilde=float(2.0 * q / a),
        pos_mubar=float(pos_mubar),
        uniconv_c0=float(uniconv_c0),
    )


# -- sampled condition checks --------------------------------------------------------


@dataclass
class ConditionReport:
    """Outcome of a sampled structural-condition check."""

    condition: str
    samples: int
    worst_margin: float
    witnesses: list
    passed: bool
    provenance: str  # "derived" or "fitted": how its constants were set

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["verdict"] = "pass" if out.pop("passed") else "fail"
        return out


def _draw_block(grid: SpaceGrid, rngs, count: int, amplitude: float, t_range):
    """Times ``(count,)`` and fields ``(2, count, *shape)`` of the next
    ``count`` samples from ``rngs``, the streams of times, white noise (per
    sample, field after field) and per-field coins, each read in sample
    order: a block draws what its samples would one by one.

    Per field, a coin below 0.5 keeps the white noise (rough regime, stressing
    gradient terms); otherwise it is Poisson-smoothed to peak ``amplitude``
    (smooth regime, stressing reaction signs), in one solve per block.
    """
    t_rng, noise_rng, coin_rng = rngs
    t = t_rng.uniform(*t_range, size=count)
    raw = noise_rng.standard_normal((count, 2) + grid.shape)
    smooth = coin_rng.random((count, 2)) >= 0.5
    fields = amplitude * raw
    if smooth.any():
        z = poisson_solve(grid, raw[smooth])
        peak = np.max(np.abs(z), axis=tuple(range(1, z.ndim)), keepdims=True)
        fields[smooth] = amplitude * z / np.maximum(peak, 1e-30)
    return t, fields.swapaxes(0, 1)


class _Block:
    """A block of samples, times ``t`` ``(S,)`` and fields ``x``, ``h``
    ``(S, *shape)``, with the quantities that several margins read, each
    computed once, on first use."""

    def __init__(self, model: ModelSpec, grid: SpaceGrid, t, x, h):
        self.model, self.grid, self.t, self.x, self.h = model, grid, t, x, h
        self.q = model.density.exponent

    @cached_property
    def x_norm(self):  # |grad x|_q
        return grad_norm(self.grid, self.x, self.q)

    @cached_property
    def h_norm(self):  # |grad h|_q
        return grad_norm(self.grid, self.h, self.q)

    @cached_property
    def psi(self):  # Psi(x)
        return psi_total(self.model.density, self.grid, self.x)

    @cached_property
    def lam(self):  # Lambda_t(x)
        return lambda_density(self.model, self.grid, self.x, self.t)

    @cached_property
    def dlam(self):  # DLambda_t(x) h
        return dlambda_density(self.model, self.grid, self.x, self.t, self.h)

    @cached_property
    def psi_pair_gap(self):  # <h, DPsi(x + h) - DPsi(x)>_H
        d, g = self.model.density, self.grid
        return h_inner(g, self.h, psi_gradient_density(d, g, self.x + self.h)
                       - psi_gradient_density(d, g, self.x))


def _scale(a, b):
    """Elementwise ``max(1, a, b)``: the normaliser of every margin."""
    return np.maximum(np.maximum(1.0, a), b)


def _margin_growth(b):
    c0 = b.model.constants.growth_c0
    xq = b.x_norm ** b.q
    upper = c0 * xq + c0 - b.psi
    lower = b.psi - (xq / c0 - c0)
    return np.minimum(upper, lower) / _scale(np.abs(b.psi), c0 * xq + c0)


def _margin_deriv_growth(b):
    lhs = dual_grad_norm(b.grid, b.dlam, b.q / (b.q - 1.0))
    rhs = b.model.constants.deriv_g * (b.x_norm ** (b.q - 2.0) + 1.0) * b.h_norm
    return (rhs - lhs) / _scale(lhs, rhs)


def _margin_monotonicity(b):
    lhs = h_inner(b.grid, b.h, b.dlam)
    if b.model.lam:
        lhs = b.psi_pair_gap + lhs
    hh = h_inner(b.grid, b.h, b.h)
    rhs = b.model.constants.mono_ghat * (b.x_norm ** b.q + 1.0) * hh
    return (lhs + rhs) / _scale(np.abs(lhs), rhs)


def _margin_positivity(b):
    pair = h_inner(b.grid, b.x, b.lam)
    ctilde, mubar = b.model.constants.pos_ctilde, b.model.constants.pos_mubar
    lhs = b.psi + pair
    rhs = b.x_norm ** b.q / ctilde - mubar * (h_inner(b.grid, b.x, b.x) + 1.0)
    return (lhs - rhs) / _scale(np.abs(lhs), np.abs(rhs))


def _margin_uniform_convexity(b):
    lhs = b.psi_pair_gap
    c0 = b.model.constants.uniconv_c0
    rhs = (b.x_norm ** (b.q - 2.0) + 1.0) * b.h_norm ** 2 / c0
    return (lhs - rhs) / _scale(np.abs(lhs), rhs)


def _margin_lipschitz(b):
    du = b.lam - lambda_density(b.model, b.grid, b.h, b.t)
    lhs = dual_grad_norm(b.grid, du, b.q / (b.q - 1.0))
    rhs = b.model.constants.deriv_g * grad_norm(b.grid, b.x - b.h, b.q)
    return (rhs - lhs) / _scale(lhs, rhs)


#: condition name -> (margin function, reads the second field ``h``); margin
#: functions map a :class:`_Block` of ``S`` samples to ``(S,)``.
_CONDITIONS = {
    "growth": (_margin_growth, False),
    "deriv_growth": (_margin_deriv_growth, True),
    "monotonicity": (_margin_monotonicity, True),
    "positivity": (_margin_positivity, False),
    "uniform_convexity": (_margin_uniform_convexity, True),
    "lipschitz": (_margin_lipschitz, True),
}

CONDITION_NAMES = tuple(_CONDITIONS)


def check_all_conditions(model: ModelSpec, grid: SpaceGrid, *, samples=1000,
                         seed=0, amplitude=1.0, t_range=(0.0, 1.0)) -> list:
    """Sample every structural inequality on one draw of samples, and return
    their reports in :data:`CONDITION_NAMES` order: each passes iff its
    worst normalised margin stays above ``-1e-9``.

    Every sample is a time and two fields ``x`` and ``h``; a condition of
    one field reads ``x``.  The times, white noise and smoothing coins come
    from three streams, ``SeedSequence(seed).spawn(3)``, each read in sample
    order, and the samples are evaluated in blocks of :data:`BLOCK_SIZE`:
    samples, verdicts and witnesses do not depend on the block size (margins
    only up to summation order).  Each block's margins run in
    :data:`CONDITION_NAMES` order, and the first margin that is not finite
    raises :class:`ModelEvaluationError`; a negative ``seed`` raises
    :class:`ValueError`.  A report keeps the worst margin, the first
    :data:`MAX_WITNESSES` failing samples in index order and the provenance
    of the constants."""
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(3)]
    worst = dict.fromkeys(CONDITION_NAMES, np.inf)
    witnesses = {name: [] for name in CONDITION_NAMES}
    for start in range(0, samples, BLOCK_SIZE):
        with np.errstate(all="ignore"):  # a margin that is not finite raises
            t, (x, h) = _draw_block(grid, rngs, min(BLOCK_SIZE, samples - start),
                                    amplitude, t_range)
            block = _Block(model, grid, t, x, h)
            for name, (margin, needs_h) in _CONDITIONS.items():
                m = margin(block)
                if not np.isfinite(m).all():
                    raise ModelEvaluationError(
                        f"{name}: the margin of sample "
                        f"{start + np.argmin(np.isfinite(m))} is not finite")
                worst[name] = min(worst[name], float(np.min(m)))
                room = MAX_WITNESSES - len(witnesses[name])
                for j in np.flatnonzero(m < MARGIN_FLOOR)[:room]:
                    wit = {"margin": float(m[j]), "t": float(t[j]),
                           "x": x[j].ravel().tolist()}
                    if needs_h:
                        wit["h"] = h[j].ravel().tolist()
                    witnesses[name].append(wit)
    return [ConditionReport(
        condition=name, samples=samples, worst_margin=worst[name],
        witnesses=witnesses[name], passed=worst[name] >= MARGIN_FLOOR,
        provenance="fitted" if name in model.constants.fitted else "derived")
        for name in CONDITION_NAMES]
