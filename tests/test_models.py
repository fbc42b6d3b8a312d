"""Model assembly, derivative consistency, and structural condition checks."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from benpde import models
from benpde.convex import PowerDensity
from benpde.errors import ModelEvaluationError, NonFiniteInputError
from benpde.grid import (
    SpaceGrid,
    h_inner,
    h_norm,
    laplacian,
    poisson_solve,
    stencil_bands,
)
from benpde.models import (
    CONDITION_NAMES,
    MARGIN_FLOOR,
    MAX_WITNESSES,
    ConditionReport,
    ModelSpec,
    ReactionTerm,
    adversarial_model,
    build_model,
    burgers_model,
    check_all_conditions,
    check_condition,
    condition_margin,
    divergence_form_model,
    dlambda_adjoint_density,
    dlambda_density,
    heat_model,
    jacobian_bands,
    lambda_density,
    psi_gradient_density,
    psi_hessian_edge_weights,
    psi_total,
)

FD_TOL = 5e-6
ADJOINT_TOL = 1e-11
ORACLE_TOL = 1e-13
CHECK_SAMPLES = 300
# Batched and one-at-a-time margins sum in different orders; normalised
# margins then agree to 1e-14 * max(1, |m|).
REPLAY_TOL = 1e-14
PAIR_CONDITIONS = ("deriv_growth", "monotonicity", "uniform_convexity",
                   "lipschitz")


def _oracle_lambda_1d(model, grid, u, t):
    """Dense loop assembly of the nodal drift density for 1-D scalar models."""
    n, h = grid.n, grid.h
    u_pad = np.zeros(n + 2)
    u_pad[1:-1] = u
    x_pad = grid.padded_coords(0)
    f_pad = np.zeros(n + 2)
    for term in (model.flux, model.scalar_flux):
        if term is not None:
            f_pad += term.func(u_pad, x_pad, t, 0)
    edge = 0.5 * (f_pad[:-1] + f_pad[1:])
    out = np.zeros(n)
    for j in range(n):
        out[j] -= (edge[j + 1] - edge[j]) / h
    if model.reaction is not None:
        out -= model.reaction.func(u, grid.node_coords, t)
    return out


# -- assembly ------------------------------------------------------------------


def test_heat_model_has_zero_drift():
    g = SpaceGrid(dim=1, n=9)
    m = heat_model()
    rng = np.random.default_rng(3)
    u = rng.normal(size=(1, 9))
    np.testing.assert_array_equal(lambda_density(m, g, u, 0.3), np.zeros((1, 9)))
    assert not m.has_terms


def test_burgers_drift_frozen_two_node_example():
    # h = 1/3, u = (1, 2): padded flux (0, 1/2, 2, 0), edge means
    # (1/4, 5/4, 1), divergence (3, -3/4), density = -divergence.
    g = SpaceGrid(dim=1, n=2)
    m = burgers_model()
    out = lambda_density(m, g, np.array([[1.0, 2.0]]), 0.0)
    np.testing.assert_allclose(out, [[-3.0, 0.75]], atol=ORACLE_TOL)


def test_divergence_form_drift_frozen_two_node_example():
    # Flux 0.4 * u^2/2 -> padded (0, 0.2, 0.8, 0), edges (0.1, 0.5, 0.4),
    # -div = (-1.2, 0.3); reaction 0.5 - u = (-0.5, -1.5) enters negated.
    g = SpaceGrid(dim=1, n=2)
    m = divergence_form_model(2.0)
    out = lambda_density(m, g, np.array([[1.0, 2.0]]), 0.0)
    np.testing.assert_allclose(out, [[-0.7, 1.8]], atol=ORACLE_TOL)


@pytest.mark.parametrize("name", ["burgers", "divergence_form", "adversarial"])
def test_drift_matches_dense_oracle(name):
    g = SpaceGrid(dim=1, n=13)
    m = build_model(name, **({"q": 2.0} if name == "divergence_form" else {}))
    rng = np.random.default_rng(11)
    for trial in range(5):
        u = 1.4 * rng.normal(size=13)
        want = _oracle_lambda_1d(m, g, u, 0.25)
        got = lambda_density(m, g, u[None, :], 0.25)[0]
        np.testing.assert_allclose(got, want, atol=ORACLE_TOL, rtol=0)


def test_time_dependent_reaction_plumbing():
    g = SpaceGrid(dim=1, n=5)

    def theta(u, x, t):
        return t * u

    def thetap(u, x, t):
        return np.broadcast_to(t, np.shape(u)).astype(float)

    m = ModelSpec(name="ramp", density=PowerDensity(1.0, 2.0, 0.0),
                  reaction=ReactionTerm(func=theta, deriv=thetap, lipschitz=2.0,
                                        dissipation=2.0))
    u = np.linspace(-1.0, 1.0, 5)[None, :]
    np.testing.assert_allclose(lambda_density(m, g, u, 0.0), np.zeros_like(u))
    np.testing.assert_allclose(lambda_density(m, g, u, 2.0), -2.0 * u)
    # batched time: one scalar per leading batch entry
    batch = np.stack([u, u])
    t = np.array([0.0, 2.0])
    out = lambda_density(m, g, batch, t)
    np.testing.assert_allclose(out[0], np.zeros_like(u))
    np.testing.assert_allclose(out[1], -2.0 * u)


def test_space_dependent_flux_sees_boundary_layer():
    g = SpaceGrid(dim=1, n=3)
    seen = []

    def f(u, x, t, axis):
        seen.append(np.asarray(x[0]).ravel().copy())
        return 0.0 * u

    def fp(u, x, t, axis):
        return 0.0 * u

    from benpde.models import FluxTerm

    m = ModelSpec(name="probe", density=PowerDensity(1.0, 2.0, 0.0),
                  flux=FluxTerm(func=f, deriv=fp, lipschitz=0.0))
    lambda_density(m, g, np.zeros((1, 3)), 0.0)
    np.testing.assert_allclose(seen[0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_non_finite_term_output_is_reported():
    g = SpaceGrid(dim=1, n=4)

    def theta(u, x, t):
        out = np.array(u, dtype=float)
        out[..., 2] = np.nan
        return out

    m = ModelSpec(name="broken", density=PowerDensity(1.0, 2.0, 0.0),
                  reaction=ReactionTerm(func=theta, deriv=lambda u, x, t: 0.0 * u,
                                        lipschitz=1.0))
    with pytest.raises(ModelEvaluationError, match="broken"):
        lambda_density(m, g, np.ones((1, 4)), 0.0)


def test_terms_require_scalar_fields():
    g = SpaceGrid(dim=1, n=4)
    with pytest.raises(ValueError, match="scalar"):
        lambda_density(burgers_model(), g, np.ones((2, 4)), 0.0)


# -- integrated density machinery -----------------------------------------------


def test_psi_gradient_density_is_negative_laplacian_for_quadratic():
    g = SpaceGrid(dim=1, n=17)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(1, 17))
    d = PowerDensity(1.5, 2.0, 0.0)
    got = psi_gradient_density(d, g, u)
    np.testing.assert_allclose(got, -1.5 * laplacian(g, u), atol=1e-12)


def test_psi_total_frozen_quartic_value():
    # h = 1/3, u = (1, 2): edge gradients (3, 3, -6);
    # (1/4)(81 + 81 + 1296)/3 + (1/2)(9 + 9 + 36)/3 = 130.5.
    g = SpaceGrid(dim=1, n=2)
    d = PowerDensity(1.0, 4.0, 1.0)
    assert psi_total(d, g, np.array([[1.0, 2.0]])) == pytest.approx(130.5)


def test_psi_hessian_edge_weights_frozen_quartic():
    g = SpaceGrid(dim=1, n=2)
    d = PowerDensity(1.0, 4.0, 1.0)
    (w,) = psi_hessian_edge_weights(d, g, np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(w, [28.0, 28.0, 109.0], atol=1e-12)


def test_psi_gradient_pairs_like_directional_derivative():
    g = SpaceGrid(dim=2, n=6)
    rng = np.random.default_rng(7)
    u = rng.normal(size=(1, 6, 6))
    delta = rng.normal(size=(1, 6, 6))
    d = PowerDensity(0.8, 4.0, 0.5)
    e = 1e-6
    fd = (psi_total(d, g, u + e * delta) - psi_total(d, g, u - e * delta)) / (2 * e)
    pair = h_inner(g, delta, psi_gradient_density(d, g, u))
    assert abs(pair - fd) <= FD_TOL * max(1.0, abs(fd))


# -- derivative and adjoint consistency ------------------------------------------


@pytest.mark.parametrize("dim,builder", [
    (1, lambda: burgers_model()),
    (1, lambda: divergence_form_model(4.0)),
    (2, lambda: divergence_form_model(2.0)),
])
def test_dlambda_matches_central_differences(dim, builder):
    n = 9 if dim == 1 else 5
    g = SpaceGrid(dim=dim, n=n)
    m = builder()
    rng = np.random.default_rng(17)
    u = 0.8 * rng.normal(size=(1,) + g.shape)
    for trial in range(4):
        delta = rng.normal(size=(1,) + g.shape)
        e = 1e-5
        fd = (lambda_density(m, g, u + e * delta, 0.4)
              - lambda_density(m, g, u - e * delta, 0.4)) / (2 * e)
        an = dlambda_density(m, g, u, 0.4, delta)
        err = h_norm(g, an - fd) / max(1.0, h_norm(g, fd))
        assert err <= FD_TOL


@pytest.mark.parametrize("dim", [1, 2])
def test_dlambda_adjoint_identity(dim):
    n = 11 if dim == 1 else 5
    g = SpaceGrid(dim=dim, n=n)
    m = divergence_form_model(2.0) if dim == 2 else burgers_model()
    rng = np.random.default_rng(23)
    u = rng.normal(size=(1,) + g.shape)
    for trial in range(6):
        b = rng.normal(size=(1,) + g.shape)
        delta = rng.normal(size=(1,) + g.shape)
        lhs = h_inner(g, b, dlambda_density(m, g, u, 0.1, delta))
        rhs = h_inner(g, delta, dlambda_adjoint_density(m, g, u, 0.1, b))
        assert abs(lhs - rhs) <= ADJOINT_TOL * max(1.0, abs(lhs))


def test_lambda_batch_matches_loop():
    g = SpaceGrid(dim=1, n=9)
    m = divergence_form_model(2.0)
    rng = np.random.default_rng(29)
    batch = rng.normal(size=(4, 1, 9))
    t = np.array([0.0, 0.3, 0.6, 0.9])
    out = lambda_density(m, g, batch, t)
    for i in range(4):
        np.testing.assert_array_equal(out[i], lambda_density(m, g, batch[i], t[i]))


def band_matrix(bands):
    """Sparse matrix of banded-solver output."""
    w = bands.shape[0] // 2
    return sp.dia_matrix((bands, np.arange(w, -w - 1, -1)),
                         shape=(bands.shape[1],) * 2).tocsr()


@pytest.mark.parametrize("dim,builder", [
    (1, lambda: divergence_form_model(4.0)),
    (1, lambda: _ramp_model()),
    (2, lambda: burgers_model()),
])
def test_slice_jacobians_assemble_block_diagonally(dim, builder):
    # With a leading slice axis both builders return the block-diagonal
    # matrix of their one-slice results, each at its own slice time.
    g = SpaceGrid(dim=dim, n=9 if dim == 1 else 4)
    m = builder()
    rng = np.random.default_rng(31)
    u = rng.normal(size=(3, 1) + g.shape)
    t = np.array([0.0, 0.4, 0.8])
    delta = rng.normal(size=(1,) + g.shape)

    def drift(v, tv):  # DLambda alone: lam = 0, no shift
        return band_matrix(jacobian_bands(replace(m, lam=0), g, v, tv, 0.0, 1.0))

    def lap(weights):
        lead = np.shape(weights[0])[: -g.dim]
        return band_matrix(stencil_bands(g, np.zeros(lead + g.shape), weights))

    one = [drift(u[s], t[s]) for s in range(3)]
    np.testing.assert_array_equal(drift(u, t).toarray(),
                                  block_diag(*[b.toarray() for b in one]))
    for s in range(3):
        want = dlambda_density(m, g, u[s], t[s], delta)
        np.testing.assert_allclose(one[s] @ delta.ravel(), want.ravel(),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    weights = psi_hessian_edge_weights(m.density, g, u)
    one = [lap([w[s] for w in weights]).toarray() for s in range(3)]
    np.testing.assert_array_equal(lap(weights).toarray(), block_diag(*one))


# -- model construction ------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError, match="lam"):
        ModelSpec(name="bad", density=PowerDensity(1.0, 2.0, 0.0), lam=2)
    with pytest.raises(ValueError, match="regularizer"):
        ModelSpec(name="bad", density=PowerDensity(1.0, 4.0, 0.0))
    with pytest.raises(ValueError, match="q in"):
        divergence_form_model(3.0)
    with pytest.raises(ValueError, match="unknown model"):
        build_model("advection")


def test_fitted_constants_heat():
    c = heat_model().constants
    assert c.growth_c0 == pytest.approx(4.0)
    assert c.pos_ctilde == pytest.approx(4.0)
    assert c.uniconv_c0 == pytest.approx(2.0)
    assert c.deriv_g == pytest.approx(1.0)
    assert c.lipschitz_c == pytest.approx(1.0)


def test_builder_registry_round_trip():
    assert build_model("heat").name == "heat"
    assert build_model("divergence_form", q=4.0).name == "divergence_form_q4"
    assert build_model("adversarial", kappa=9.0).reaction.lipschitz == 9.0


# -- sampled condition checks -------------------------------------------------------


def test_condition_names_cover_all_checks():
    assert set(CONDITION_NAMES) == {
        "growth", "deriv_growth", "monotonicity", "positivity",
        "uniform_convexity", "lipschitz",
    }


@pytest.mark.parametrize("builder", [
    heat_model,
    burgers_model,
    lambda: divergence_form_model(2.0),
    lambda: divergence_form_model(4.0),
])
def test_builtin_models_pass_all_conditions(builder):
    g = SpaceGrid(dim=1, n=33)
    reports = check_all_conditions(builder(), g, samples=CHECK_SAMPLES, seed=0,
                                   amplitude=1.0, t_range=(0.0, 0.1))
    failing = [r.condition for r in reports if not r.passed]
    assert failing == []
    assert all(r.samples == CHECK_SAMPLES for r in reports)


def test_adversarial_fails_positivity_with_witnesses():
    g = SpaceGrid(dim=1, n=33)
    m = adversarial_model()
    r = check_condition(m, g, "positivity", samples=CHECK_SAMPLES, seed=0,
                        amplitude=1.0, t_range=(0.0, 0.1))
    assert not r.passed
    assert 1 <= len(r.witnesses) <= 5
    for wit in r.witnesses:
        assert wit["margin"] < -1e-9
        assert len(wit["x"]) == g.n_nodes
        # stored samples replay to the recorded margin
        replay = condition_margin(m, g, "positivity", np.array(wit["x"]),
                                  t=wit["t"])
        assert replay == pytest.approx(wit["margin"], rel=1e-12)


def test_adversarial_passes_lipschitz_style_conditions():
    g = SpaceGrid(dim=1, n=33)
    m = adversarial_model()
    for cond in ("growth", "deriv_growth", "lipschitz"):
        r = check_condition(m, g, cond, samples=CHECK_SAMPLES, seed=0,
                            amplitude=1.0, t_range=(0.0, 0.1))
        assert r.passed, cond


def test_explicit_smooth_mode_violates_adversarial_positivity():
    g = SpaceGrid(dim=1, n=33)
    mode = np.sin(np.pi * g.node_coords[0])
    assert condition_margin(adversarial_model(), g, "positivity", mode) < 0.0
    assert condition_margin(heat_model(), g, "positivity", mode) > 0.0


def test_condition_margin_validation():
    g = SpaceGrid(dim=1, n=4)
    m = heat_model()
    with pytest.raises(ValueError, match="unknown condition"):
        condition_margin(m, g, "positiveness", np.zeros(4))
    with pytest.raises(ValueError, match="second field"):
        condition_margin(m, g, "monotonicity", np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        condition_margin(m, g, "growth", np.zeros(5))
    with pytest.raises(NonFiniteInputError):
        condition_margin(m, g, "growth", np.full(4, np.nan))


def test_report_json_shape():
    g = SpaceGrid(dim=1, n=9)
    r = check_condition(heat_model(), g, "growth", samples=10, seed=1)
    d = r.to_json_dict()
    assert set(d) == {"condition", "samples", "worst_margin", "witnesses",
                      "verdict"}
    assert d["verdict"] == "pass"
    assert isinstance(r, ConditionReport)


def test_check_condition_is_deterministic():
    g = SpaceGrid(dim=1, n=9)
    m = burgers_model()
    a = check_condition(m, g, "monotonicity", samples=40, seed=7)
    b = check_condition(m, g, "monotonicity", samples=40, seed=7)
    assert a.worst_margin == b.worst_margin


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=7, max_size=7))
def test_heat_positivity_margin_is_pointwise_nonnegative(values):
    # For the pure quadratic flow the inequality holds identically, not just
    # on the sampling distribution, so any field is a certificate.
    g = SpaceGrid(dim=1, n=7)
    x = np.array(values)
    assert condition_margin(heat_model(), g, "positivity", x) >= -1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7),
       st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7))
def test_heat_monotonicity_margin_is_pointwise_nonnegative(xs, hs):
    g = SpaceGrid(dim=1, n=7)
    m = condition_margin(heat_model(), g, "monotonicity", np.array(xs),
                         np.array(hs))
    assert m >= -1e-12


# -- batched checker against a one-sample replay --------------------------------


def _ramp_model():
    """Reaction ``theta = 50 (1 + t) u`` declared non-pumping: its margins read
    the sample time, and its positivity check fails with witnesses."""

    def theta(u, x, t):
        return 50.0 * (1.0 + t) * u

    def thetap(u, x, t):
        return np.broadcast_to(50.0 * (1.0 + t), np.shape(u)).astype(float)

    return ModelSpec(name="ramp", density=PowerDensity(1.0, 2.0, 0.0),
                     reaction=ReactionTerm(func=theta, deriv=thetap,
                                           lipschitz=100.0))


def _replay(model, grid, condition, samples, seed, amplitude, t_range):
    """``(t, fields, margin)`` per sample, drawn one at a time from the
    documented ``(seed, condition, index)`` streams and evaluated by
    ``condition_margin``."""
    tag = sorted(CONDITION_NAMES).index(condition)
    out = []
    for i in range(samples):
        rng = np.random.default_rng([seed, tag, i])
        t = float(rng.uniform(*t_range))
        fields = []
        for _ in range(2 if condition in PAIR_CONDITIONS else 1):
            raw = rng.normal(size=grid.shape)
            if rng.uniform() < 0.5:
                fields.append(amplitude * raw)
            else:
                z = poisson_solve(grid, raw)[0]
                fields.append(amplitude * z / max(np.max(np.abs(z)), 1e-30))
        out.append((t, fields, condition_margin(model, grid, condition,
                                                *fields, t=t)))
    return out


def _assert_margin_close(got, want):
    assert abs(got - want) <= REPLAY_TOL * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("case", [
    ("heat", 1, heat_model),
    ("heat_2d", 2, heat_model),
    ("burgers", 1, burgers_model),
    ("divform_q4", 1, lambda: divergence_form_model(4.0)),
    ("adversarial", 1, adversarial_model),
    ("ramp", 1, _ramp_model),
], ids=lambda case: case[0])
def test_batched_check_matches_one_sample_replay(case):
    _, dim, builder = case
    g = SpaceGrid(dim=dim, n=9 if dim == 1 else 5)
    m = builder()
    for cond in CONDITION_NAMES:
        rep = check_condition(m, g, cond, samples=64, seed=3, amplitude=1.0,
                              t_range=(0.0, 1.0))
        replay = _replay(m, g, cond, 64, 3, 1.0, (0.0, 1.0))
        _assert_margin_close(rep.worst_margin, min(r[2] for r in replay))
        failing = [r for r in replay if r[2] < MARGIN_FLOOR][:MAX_WITNESSES]
        assert len(rep.witnesses) == len(failing), cond
        for wit, (t, fields, margin) in zip(rep.witnesses, failing):
            assert wit["t"] == t
            _assert_margin_close(wit["margin"], margin)
            np.testing.assert_allclose(wit["x"], fields[0].ravel(),
                                       rtol=REPLAY_TOL, atol=0.0)
            if cond in PAIR_CONDITIONS:
                np.testing.assert_allclose(wit["h"], fields[1].ravel(),
                                           rtol=REPLAY_TOL, atol=0.0)


def test_time_dependent_model_yields_witnesses():
    # Keeps the replay test above sensitive to per-sample times: the ramp
    # model's failing margins all depend on t.
    g = SpaceGrid(dim=1, n=9)
    rep = check_condition(_ramp_model(), g, "positivity", samples=64, seed=3,
                          t_range=(0.0, 1.0))
    assert len(rep.witnesses) == MAX_WITNESSES
    assert len({w["t"] for w in rep.witnesses}) == MAX_WITNESSES


@pytest.mark.parametrize("block", [1, 7])
def test_report_does_not_depend_on_block_size(monkeypatch, block):
    g = SpaceGrid(dim=1, n=9)
    m = _ramp_model()
    want = check_condition(m, g, "positivity", samples=64, seed=3)
    monkeypatch.setattr(models, "BLOCK_SIZE", block)
    got = check_condition(m, g, "positivity", samples=64, seed=3)
    assert got.passed == want.passed
    _assert_margin_close(got.worst_margin, want.worst_margin)
    assert len(got.witnesses) == len(want.witnesses)
    for a, b in zip(got.witnesses, want.witnesses):
        assert (a["t"], a["x"]) == (b["t"], b["x"])
        _assert_margin_close(a["margin"], b["margin"])


@pytest.mark.parametrize("builder", [
    heat_model, burgers_model, lambda: divergence_form_model(4.0),
    adversarial_model,
], ids=["heat", "burgers", "divform_q4", "adversarial"])
def test_one_sample_margin_equals_its_block_margin_bit_for_bit(builder):
    # Reductions over a sample must not depend on how many samples are
    # batched with it, so C-ordered gradients make these exact.
    g = SpaceGrid(dim=1, n=9)
    m = builder()
    for cond in CONDITION_NAMES:
        margin_fn, needs_h = models._CONDITIONS[cond]
        key = (3, sorted(CONDITION_NAMES).index(cond))
        t, fields = models._draw_block(g, key, range(64), 1.0, (0.0, 1.0),
                                       2 if needs_h else 1)
        x, h = fields[0], (fields[1] if needs_h else None)
        block = margin_fn(m, g, x, h, t)
        for j in range(64):
            one = condition_margin(m, g, cond, x[j, 0],
                                   h[j, 0] if needs_h else None, t=t[j])
            assert one == block[j], (cond, j)
