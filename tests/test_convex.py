"""Pointwise density operations: values, gradients, conjugates, gaps."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from benpde.convex import (
    NEWTON_TOL,
    PowerDensity,
    radial_coefficient,
    radial_value,
    solve_radius,
)
from benpde.errors import ConjugateSolveError
from benpde.grid import SpaceGrid, stencil_bands
from benpde.models import psi_gradient_density, psi_hessian_edge_weights

GAP_FLOOR = -1e-12
INVERSE_RTOL = 1e-10
EXACT_TOL = 1e-12


def converged_radius(density, s):
    """:func:`solve_radius` of ``s`` as ``(r, iterations)``, all converged."""
    r, iterations, failures = solve_radius(density, s)
    assert not failures, failures
    return r, iterations


def fenchel_young_gap(density, x, y):
    """``psi(x) + psi*(y) - <x, y>`` for each pair of rows of ``x``, ``y``."""
    s = np.linalg.norm(y, axis=-1)
    r, _ = converged_radius(density, s)
    return (radial_value(density, np.linalg.norm(x, axis=-1))
            + (r * s - radial_value(density, r)) - np.sum(x * y, axis=-1))


def gradient(density, x):
    """``Dpsi`` of each row of ``x``."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return radial_coefficient(density, norm) * x


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


# -- frozen point values -------------------------------------------------------


def test_psi_quadratic_point():
    d = PowerDensity(1.0, 2.0)
    assert radial_value(d, 5.0) == pytest.approx(12.5, abs=EXACT_TOL)


def test_psi_quartic_point():
    d = PowerDensity(1.0, 4.0)
    assert radial_value(d, 2.0) == pytest.approx(4.0, abs=EXACT_TOL)
    np.testing.assert_allclose(gradient(d, np.array([2.0])), [8.0],
                               atol=EXACT_TOL)


def test_conjugate_quadratic_is_halved_square():
    d = PowerDensity(1.0, 2.0)
    r, _ = converged_radius(d, 5.0)
    assert 5.0 * r - radial_value(d, r) == pytest.approx(12.5, abs=EXACT_TOL)
    np.testing.assert_allclose(r / 5.0 * np.array([3.0, 4.0]), [3.0, 4.0],
                               atol=EXACT_TOL)


def test_conjugate_quartic_point():
    d = PowerDensity(1.0, 4.0)
    r, _ = converged_radius(d, 1.0)
    # closed form: psi*(y) = (3/4)|y|^{4/3} for psi = |.|^4/4
    assert r - radial_value(d, r) == pytest.approx(0.75, abs=EXACT_TOL)
    assert r == pytest.approx(1.0, abs=1e-10)


def test_conjugate_regularized_cubic_point():
    # Frozen from the dense-grid oracle and the quadratic-formula radius:
    #   0.7 r^2 + 0.3 r = 2.5  =>  r = 1.6876467079563358
    d = PowerDensity(0.7, 3.0, regularizer=0.3)
    r, _ = converged_radius(d, 2.5)
    value = 2.5 * r - radial_value(d, r)
    assert value == pytest.approx(2.6703369427167662, abs=1e-12)
    assert r == pytest.approx(1.6876467079563358, abs=1e-12)

    val, rad = sup_oracle(d, 2.5, radius_hi=5.0)
    assert value == pytest.approx(val, abs=1e-6)
    assert r == pytest.approx(rad, abs=1e-5)


def test_conjugate_at_zero():
    for q in (2.0, 3.0, 4.0):
        d = PowerDensity(1.0, q, 0.1)
        r, _ = converged_radius(d, 0.0)
        assert r == 0.0 and radial_value(d, r) == 0.0


def test_fenchel_gap_orthogonal_pair():
    d = PowerDensity(1.0, 2.0)
    gap = fenchel_young_gap(d, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert gap == pytest.approx(1.0, abs=EXACT_TOL)


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_gap_nonnegative_bulk(q, eps):
    d = PowerDensity(1.3, q, eps)
    rng = np.random.default_rng(1234)
    x = rng.normal(scale=2.0, size=(10_000, 3))
    y = rng.normal(scale=2.0, size=(10_000, 3))
    assert np.min(fenchel_young_gap(d, x, y)) >= GAP_FLOOR


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_gap_vanishes_on_gradient_pairs(q):
    d = PowerDensity(1.0, q)
    x = np.random.default_rng(99).normal(size=(200, 4))
    assert np.max(np.abs(fenchel_young_gap(d, x, gradient(d, x)))) <= 1e-10


@pytest.mark.parametrize("q,eps", [(2.0, 0.0), (3.0, 0.0), (4.0, 0.25)])
def test_inverse_gradient_roundtrip(q, eps):
    d = PowerDensity(0.8, q, eps)
    rng = np.random.default_rng(7)
    y = np.array([rng.normal(scale=rng.uniform(0.1, 10.0), size=3)
                  for _ in range(500)])
    s = np.linalg.norm(y, axis=1, keepdims=True)
    r, _ = converged_radius(d, s)
    back = gradient(d, r / s * y)
    assert np.all(np.linalg.norm(back - y, axis=1) <= INVERSE_RTOL * s[:, 0])


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
    assert np.dot(gradient(d, x) - gradient(d, z), x - z) >= -1e-9


@given(st.floats(0.0, 1e3), st.sampled_from([2.0, 2.5, 3.0, 4.0]))
@settings(max_examples=300, deadline=None)
def test_radial_solve_inverts_slope(s, q):
    d = PowerDensity(1.1, q, 0.2)
    r, _ = converged_radius(d, s)
    assert abs(1.1 * r ** (q - 1.0) + 0.2 * r - s) <= 1e-12 * max(1.0, s)


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
    r, _ = converged_radius(d, mags)
    val = r * mags - radial_value(d, r)
    assert np.all(val <= upper_c * mags**qs + 1e-9)
    assert np.all(val >= lower_c * mags**qs - eps / 2.0 - 1e-9)


def test_hessian_matches_gradient_differences():
    # The weighted Laplacian of the Hessian edge weights is the Jacobian the
    # dual Newton solves and the implicit stepper factorize.
    d = PowerDensity(1.2, 4.0, 0.1)
    grid = SpaceGrid(dim=1, n=8)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=grid.n)
        h = 1e-6 * rng.normal(size=grid.n)
        lhs = (psi_gradient_density(d, grid, x + h)
               - psi_gradient_density(d, grid, x - h)).ravel()
        bands = stencil_bands(grid, np.zeros(grid.shape),
                              psi_hessian_edge_weights(d, grid, x))
        jac = sp.dia_matrix((bands, [1, 0, -1]), shape=(grid.n, grid.n))
        rhs = 2.0 * jac @ h.ravel()
        assert np.linalg.norm(lhs - rhs) <= 1e-7 * max(np.linalg.norm(rhs), 1e-12)


def test_general_q_radius_at_huge_magnitudes():
    # The Newton iterate r/R stays in [1/2, 1], so nothing overflows where
    # the root is finite; numpy warnings are errors in this suite.
    for q, s in ((10.0, 1e100), (3.0, 1e300), (6.0, 1e150), (2.5, 1e250),
                 (2.5, 1e308), (10.0, 1e308)):
        d = PowerDensity(1.0, q)
        r, iters = converged_radius(d, s)
        assert r == pytest.approx(s ** (1.0 / (q - 1.0)), rel=1e-12)
        assert abs(r ** (q - 1.0) - s) <= 1e-13 * s
        assert iters <= 60


def test_general_q_radius_at_a_large_exponent():
    # One float of rho = r/R moves rho^999 by about 1e-13, the tolerance;
    # the solve stops on its Newton step, which stays small, and converges.
    r, _ = converged_radius(PowerDensity(1e-10, 1000.0), 1e300)
    root = np.exp((np.log(1e300) - np.log(1e-10)) / 999.0)
    assert r == pytest.approx(root, rel=1e-14)


@pytest.mark.parametrize("q", [3.0, 10.0])
def test_general_q_radius_at_the_float_maximum(q):
    # The root's r^{q-1} sits at the float maximum: an r one float above
    # the root overflows it.
    s = np.finfo(float).max
    d = PowerDensity(1.0, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, iters = converged_radius(d, s)
        slope = r ** (q - 1.0)
    assert r == pytest.approx(s ** (1.0 / (q - 1.0)), rel=1e-14)
    assert abs(slope - s) <= 1e-13 * s
    assert iters <= 10


@pytest.mark.parametrize("a,q,eps,s", [
    (1e-300, 3.0, 0.0, 1e300), (1e-300, 3.0, 0.0, np.finfo(float).max),
    (1e-300, 2.5, 1e-300, 1e300), (1e-10, 2.0000001, 1.0, 1e300)])
def test_radius_bracket_overflow_warns_nowhere(a, q, eps, s):
    # The root's r^{q-1}, or the scale R = (s/a)^{1/(q-1)}, overflows; the
    # suite's filter turns any numpy warning into an error, and no caller
    # needs an errstate of its own.
    d = PowerDensity(a, q, eps)
    r, iters, failures = solve_radius(d, s)
    with np.errstate(all="ignore"):
        wrapped = solve_radius(d, s)
    assert np.array(r).tobytes() == np.array(wrapped[0]).tobytes()
    assert (iters, list(failures)) == (wrapped[1], list(wrapped[2]))


def test_radius_of_a_negative_magnitude_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_radius(PowerDensity(1.0, 3.0), [1.0, -1e-300])


@pytest.mark.parametrize("s", [2.4007924772804366e93, 1e300,
                               np.finfo(float).max])
def test_general_q_radius_at_a_tiny_coefficient(s):
    # The root sqrt(s/a) is finite, though r^2 overflows at 4.9e196, 1e300
    # and 1.34e304; a r^2 = (a r) r does not.
    r, _ = converged_radius(PowerDensity(1e-300, 3.0), s)
    assert abs((1e-300 * r) * r - s) <= NEWTON_TOL * s
    assert r == pytest.approx(np.sqrt(s) * 1e150, rel=1e-15)


def test_radius_of_a_nan_magnitude_fails():
    # Alone or beside a finite magnitude, NaN fails and leaves r NaN.
    d = PowerDensity(1e-300, 3.0)
    for mags in (np.nan, [1.0, np.nan]):
        r, _, failures = solve_radius(d, mags)
        assert np.isnan(r).tolist() == np.isnan(mags).tolist()
        assert list(failures) == np.flatnonzero(np.isnan(mags)).tolist()
        assert str(next(iter(failures.values()))).endswith("|y|=nan")


def test_radius_beyond_the_float_range_fails():
    # The root (s/a)^{2/3} is about 1e400 at s = 1e300: no float holds it.
    # test_mixed_pair_keeps_the_stopped_entry has it beside a finite root.
    r, _, failures = solve_radius(PowerDensity(1e-300, 2.5, 1e-300), 1e300)
    assert np.isnan(r) and list(failures) == [0]
    assert str(failures[0]).endswith("|y|=1e+300")
    assert failures[0].residual == np.inf


def test_solve_radius_batch_matches_scalar():
    d = PowerDensity(0.7, 3.0, 0.0)
    s = np.array([0.0, 0.5, 1.0, 10.0, 1e3])
    batch, _ = converged_radius(d, s)
    singles = np.array([converged_radius(d, float(v))[0] for v in s])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-13)


#: Magnitudes from zero and the smallest subnormal to the float maximum.
BATCH_MAGNITUDES = np.concatenate((
    [0.0, 5e-324], 10.0 ** np.arange(-300, 301, 25), [0.5, 7.3, 2.0**1023],
    [np.finfo(float).max]))


def _solved_alone(density, s):
    """The radius of a solve of the magnitude ``s`` alone, or its error."""
    r, _, failures = solve_radius(density, s)
    return failures[0] if failures else r


@pytest.mark.parametrize("q, a, eps, mags", [
    (3.0, 1e-300, 0.0, BATCH_MAGNITUDES),
    (2.5, 1e-300, 1e-300, BATCH_MAGNITUDES),
    (2.0000001, 1e-10, 1.0, BATCH_MAGNITUDES),
    (10.0, 1.0, 0.0, BATCH_MAGNITUDES),
    (3.0, 0.7, 1e-8, BATCH_MAGNITUDES),
    (6.0, 1e300, 1e300, BATCH_MAGNITUDES),
    (3.0, 1e-300, 0.0, [2.4007924772804366e93, 1e300]),
    (2.5, 1e-300, 1e-300, [1.6506483698471513e58, 1e300]),
], ids=["q3-tiny-a", "q2.5-tiny-a-eps", "q2-plus-eps1", "q10", "q3",
        "q6-huge-a-eps", "q3-mixed-pair", "q2.5-mixed-pair"])
def test_batched_radius_equals_solves_alone(q, a, eps, mags):
    # Each entry stops on its own and keeps the r of its solve alone, and
    # an entry is reported failed exactly when its own solve raises, with
    # that solve's message.
    d = PowerDensity(a, q, eps)
    mags = np.asarray(mags, dtype=float)
    r, _, failures = solve_radius(d, mags)
    alone = [_solved_alone(d, float(s)) for s in mags]
    assert sorted(failures) == [i for i, v in enumerate(alone)
                                if isinstance(v, ConjugateSolveError)]
    for i, v in enumerate(alone):
        if i in failures:
            assert np.isnan(r[i]) and str(failures[i]) == str(v)
        else:
            assert np.float64(v).tobytes() == r[i].tobytes(), mags[i]


@pytest.mark.parametrize("q, a, eps, first, radius, second", [
    (3.0, 1e-300, 0.0, 2.4007924772804366e93, 4.899788237547044e196,
     9.999999999999999e299),
    (2.5, 1e-300, 1e-300, 1.6506483698471513e58, 6.482905806387753e238,
     None),
])
def test_mixed_pair_keeps_the_stopped_entry(q, a, eps, first, radius, second):
    # The first magnitude's root is finite though r^{q-1} overflows there.
    # The second's root, 1e300 at q = 3, is finite too; at q = 2.5 it is
    # about 1e400, beyond the float range, and that entry alone fails.
    r, _, failures = solve_radius(PowerDensity(a, q, eps), [first, 1e300])
    assert r[0] == radius
    if second is None:
        assert np.isnan(r[1]) and list(failures) == [1]
        assert str(failures[1]).endswith("|y|=1e+300")
    else:
        assert r[1] == second and not failures
