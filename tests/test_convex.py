"""Pointwise density operations: values, gradients, conjugates, gaps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benpde.convex import (
    ConjugateValue,
    PowerDensity,
    conjugate_radius,
    eval_conjugate,
    eval_psi,
    fenchel_gap,
    grad_psi,
)
from benpde.errors import NonFiniteInputError
from benpde.grid import SpaceGrid, weighted_neg_laplacian
from benpde.models import psi_gradient_density, psi_hessian_edge_weights

GAP_FLOOR = -1e-12
INVERSE_RTOL = 1e-10
EXACT_TOL = 1e-12


def sup_oracle(density, y_mag, radius_hi, n=2_000_001):
    """Dense-grid supremum of r*|y| - psi(r); independent of the Newton path."""
    r = np.linspace(0.0, radius_hi, n)
    a, q, eps = density.coefficient, density.exponent, density.regularizer
    vals = r * y_mag - (a / q) * r**q - 0.5 * eps * r**2
    i = int(np.argmax(vals))
    return float(vals[i]), float(r[i])


# -- construction -------------------------------------------------------------


def test_density_validation():
    with pytest.raises(ValueError):
        PowerDensity(coefficient=0.0, exponent=2.0)
    with pytest.raises(ValueError):
        PowerDensity(coefficient=1.0, exponent=1.5)
    with pytest.raises(ValueError):
        PowerDensity(coefficient=1.0, exponent=2.0, regularizer=-0.1)
    PowerDensity(coefficient=1.0, exponent=2.0, regularizer=0.0)


def test_non_finite_inputs_rejected():
    d = PowerDensity(1.0, 2.0)
    with pytest.raises(NonFiniteInputError):
        eval_psi(d, [np.nan, 0.0])
    with pytest.raises(NonFiniteInputError):
        grad_psi(d, [np.inf])
    with pytest.raises(NonFiniteInputError):
        eval_conjugate(d, [1.0, -np.inf])


# -- frozen point values -------------------------------------------------------


def test_psi_quadratic_point():
    d = PowerDensity(1.0, 2.0)
    assert eval_psi(d, [3.0, 4.0]) == pytest.approx(12.5, abs=EXACT_TOL)


def test_psi_quartic_point():
    d = PowerDensity(1.0, 4.0)
    assert eval_psi(d, [2.0]) == pytest.approx(4.0, abs=EXACT_TOL)
    np.testing.assert_allclose(grad_psi(d, [2.0]), [8.0], atol=EXACT_TOL)


def test_conjugate_quadratic_is_halved_square():
    d = PowerDensity(1.0, 2.0)
    cv = eval_conjugate(d, [3.0, 4.0])
    assert isinstance(cv, ConjugateValue)
    assert cv.value == pytest.approx(12.5, abs=EXACT_TOL)
    np.testing.assert_allclose(cv.argmax, [3.0, 4.0], atol=EXACT_TOL)


def test_conjugate_quartic_point():
    d = PowerDensity(1.0, 4.0)
    cv = eval_conjugate(d, [1.0])
    # closed form: psi*(y) = (3/4)|y|^{4/3} for psi = |.|^4/4
    assert cv.value == pytest.approx(0.75, abs=EXACT_TOL)
    np.testing.assert_allclose(cv.argmax, [1.0], atol=1e-10)


def test_conjugate_regularized_cubic_point():
    # Frozen from the dense-grid oracle and the quadratic-formula radius:
    #   0.7 r^2 + 0.3 r = 2.5  =>  r = 1.6876467079563358
    d = PowerDensity(0.7, 3.0, regularizer=0.3)
    cv = eval_conjugate(d, [2.5])
    assert cv.value == pytest.approx(2.6703369427167662, abs=1e-12)
    np.testing.assert_allclose(cv.argmax, [1.6876467079563358], atol=1e-12)

    val, rad = sup_oracle(d, 2.5, radius_hi=5.0)
    assert cv.value == pytest.approx(val, abs=1e-6)
    assert np.linalg.norm(cv.argmax) == pytest.approx(rad, abs=1e-5)


def test_conjugate_at_zero():
    for q in (2.0, 3.0, 4.0):
        cv = eval_conjugate(PowerDensity(1.0, q, 0.1), np.zeros(3))
        assert cv.value == 0.0
        np.testing.assert_array_equal(cv.argmax, np.zeros(3))


def test_fenchel_gap_orthogonal_pair():
    d = PowerDensity(1.0, 2.0)
    assert fenchel_gap(d, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=EXACT_TOL)


def test_fenchel_gap_shape_mismatch():
    with pytest.raises(ValueError):
        fenchel_gap(PowerDensity(1.0, 2.0), [1.0, 0.0], [1.0])


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_gap_nonnegative_bulk(q, eps):
    d = PowerDensity(1.3, q, eps)
    rng = np.random.default_rng(1234)
    x = rng.normal(scale=2.0, size=(10_000, 3))
    y = rng.normal(scale=2.0, size=(10_000, 3))
    worst = min(fenchel_gap(d, xi, yi) for xi, yi in zip(x, y))
    assert worst >= GAP_FLOOR


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_gap_vanishes_on_gradient_pairs(q):
    d = PowerDensity(1.0, q)
    rng = np.random.default_rng(99)
    for _ in range(200):
        x = rng.normal(size=4)
        assert abs(fenchel_gap(d, x, grad_psi(d, x))) <= 1e-10


@pytest.mark.parametrize("q,eps", [(2.0, 0.0), (3.0, 0.0), (4.0, 0.25)])
def test_inverse_gradient_roundtrip(q, eps):
    d = PowerDensity(0.8, q, eps)
    rng = np.random.default_rng(7)
    for _ in range(500):
        y = rng.normal(scale=rng.uniform(0.1, 10.0), size=3)
        z = eval_conjugate(d, y).argmax
        back = grad_psi(d, z)
        assert np.linalg.norm(back - y) <= INVERSE_RTOL * np.linalg.norm(y)


@given(
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
)
@settings(max_examples=300, deadline=None)
def test_gradient_monotone(x0, x1, z0, z1):
    d = PowerDensity(1.0, 3.0, 0.1)
    x = np.array([x0, x1])
    z = np.array([z0, z1])
    assert np.dot(grad_psi(d, x) - grad_psi(d, z), x - z) >= -1e-9


@given(st.floats(0.0, 1e3), st.sampled_from([2.0, 2.5, 3.0, 4.0]))
@settings(max_examples=300, deadline=None)
def test_radial_solve_inverts_slope(s, q):
    from benpde.convex import radial_slope

    d = PowerDensity(1.1, q, 0.2)
    r, _ = conjugate_radius(d, s)
    assert abs(float(radial_slope(d, r)) - s) <= 1e-12 * max(1.0, s)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_conjugate_growth_two_sided(q):
    # With psi <= (a + eps*q/2)/q * s^q + eps/2 and psi >= (a/q) s^q the
    # conjugate is sandwiched by the dual power laws of those envelopes.
    a, eps = 0.9, 0.3
    d = PowerDensity(a, q, eps)
    qs = q / (q - 1.0)
    rng = np.random.default_rng(2024)
    mags = np.exp(rng.uniform(np.log(1.0), np.log(1e3), size=400))
    upper_c = a ** (-1.0 / (q - 1.0)) / qs
    lower_a = a + eps * q / 2.0
    lower_c = lower_a ** (-1.0 / (q - 1.0)) / qs
    for s in mags:
        val = eval_conjugate(d, [s]).value
        assert val <= upper_c * s**qs + 1e-9
        assert val >= lower_c * s**qs - eps / 2.0 - 1e-9


def test_hessian_matches_gradient_differences():
    # The weighted Laplacian of the Hessian edge weights is the Jacobian the
    # dual Newton solves and the implicit stepper factorize.
    d = PowerDensity(1.2, 4.0, 0.1)
    grid = SpaceGrid(dim=1, n=8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=(1, grid.n))
        h = 1e-6 * rng.normal(size=(1, grid.n))
        lhs = (psi_gradient_density(d, grid, x + h)
               - psi_gradient_density(d, grid, x - h)).ravel()
        jac = weighted_neg_laplacian(grid, psi_hessian_edge_weights(d, grid, x))
        rhs = 2.0 * jac @ h.ravel()
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * max(np.linalg.norm(rhs), 1e-12)


def test_conjugate_radius_batch_matches_scalar():
    d = PowerDensity(0.7, 3.0, 0.0)
    s = np.array([0.0, 0.5, 1.0, 10.0, 1e3])
    batch, _ = conjugate_radius(d, s)
    singles = np.array([conjugate_radius(d, float(v))[0] for v in s])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-13)
