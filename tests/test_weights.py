import math
from fractions import Fraction

import numpy as np
import pytest

from hplab.errors import ConfigError, NumericalError
from hplab.orthopoly import orthonormal_basis
from hplab.weights import (
    GRAM_MAX_N,
    WeightSpec,
    _gauge_factor,
    disc_weight_nodes,
    gram_matrix,
    moment_quadrature,
    moment_series,
    radial_monomial_integral,
    weight_eval,
)

DELTAS = (0.0, 1.0, complex(1.0, 2.0), complex(-0.3, 0.0), complex(-0.3, 0.7))
# the delta set plus the extremes that the DPP's gauge bound meets, as in test_dpp
BOUND_DELTAS = DELTAS + (2j, complex(-0.45, 2.0), 3.0)


def test_weight_spec_validation():
    WeightSpec("hp", 2, 1.0)
    WeightSpec("bergman", 1)
    with pytest.raises(ValueError):
        WeightSpec("other", 1)
    with pytest.raises(ValueError):
        WeightSpec("hp", 0)
    with pytest.raises(ValueError):
        WeightSpec("hp", 1, -0.7)


def test_weight_eval_formulas():
    z = np.array([0.3 + 0.4j, -0.5j, 0.0])
    bergman = weight_eval(WeightSpec("bergman", 3), z)
    assert np.allclose(bergman, (3 / math.pi) * (1 - np.abs(z) ** 2) ** 2)

    delta = complex(0.5, -1.0)
    hp = weight_eval(WeightSpec("hp", 2, delta), z)
    direct = (
        np.abs(1 - z) ** (2 * delta.real)
        * np.exp(-2 * delta.imag * np.angle(1 - z))
        * (1 - np.abs(z) ** 2)
    )
    assert np.allclose(hp, direct, rtol=1e-14)

    # delta = 0 reduces to the radial factor alone
    flat = weight_eval(WeightSpec("hp", 1, 0.0), z)
    assert np.allclose(flat, 1.0)


def test_gauge_factor_is_the_weight_ratio_and_the_circle_closed_form():
    rng = np.random.default_rng(3)
    z = 0.99 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
    assert np.all(_gauge_factor(z, 0j) == 1.0)
    for m in (1, 3):
        for delta in BOUND_DELTAS:
            delta = complex(delta)
            radial = (1.0 - np.abs(z) ** 2) ** (m - 1)
            np.testing.assert_allclose(
                weight_eval(WeightSpec("hp", m, delta), z),
                _gauge_factor(z, delta) * radial, rtol=1e-14, atol=0)
    # on z = e^(i theta), the form whose log-concavity the DPP's kernel bound
    # (hplab.dpp._gauge_sups) uses; a sign slip in either copy fails here
    theta = 2.0 * np.pi * (np.arange(4096) + 0.5) / 4096
    for delta in BOUND_DELTAS:
        delta = complex(delta)
        for c in (delta, delta - min(delta.real, 0.0)):
            circle = (2.0 * np.sin(0.5 * theta)) ** (2.0 * c.real) * np.exp(-c.imag * (theta - np.pi))
            np.testing.assert_allclose(_gauge_factor(np.exp(1j * theta), c), circle,
                                       rtol=1e-12, atol=0, err_msg=str(c))


def test_weight_eval_rejects_boundary():
    with pytest.raises(ValueError):
        weight_eval(WeightSpec("hp", 1, 0.0), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        weight_eval(WeightSpec("bergman", 2), np.array([0.2, 1.3j]))


def test_radial_monomial_integral_exact():
    for p in range(0, 9):
        for m in range(1, 6):
            exact = Fraction(math.factorial(p) * math.factorial(m - 1), math.factorial(p + m))
            got = radial_monomial_integral(p, m) / math.pi
            assert abs(got - float(exact)) < 1e-15 * max(1.0, float(exact))
    with pytest.raises(ConfigError, match="m must be >= 1"):
        radial_monomial_integral(0, 0)
    with pytest.raises(ValueError, match="p must be nonnegative"):
        radial_monomial_integral(-1, 1)


def test_moment_hand_values():
    # independently derived reference moments
    assert abs(moment_series(0, 0, 1, 0.0) - math.pi) < 1e-10
    assert abs(moment_series(0, 0, 1, 1.0) - 1.5 * math.pi) < 1e-10
    assert abs(moment_series(1, 1, 2, 0.0) - math.pi / 6) < 1e-10
    assert abs(moment_series(0, 1, 1, 1.0) - (-0.5 * math.pi)) < 1e-10
    assert abs(moment_series(1, 1, 1, 1.0) - 5.0 * math.pi / 6.0) < 1e-10
    # non-integer exponent, checked against adaptive numerical integration
    assert abs(moment_series(0, 0, 1, -0.3) - 3.376137709029689) < 1e-10


def test_moment_hermitian_symmetry():
    for delta in DELTAS:
        a = moment_series(3, 1, 2, delta)
        b = moment_series(1, 3, 2, delta)
        assert abs(a - np.conj(b)) < 1e-14 * max(1.0, abs(a))


def test_moment_series_matches_quadrature():
    for delta in DELTAS:
        for m in (1, 2, 4):
            for j, k in ((0, 0), (1, 0), (2, 2), (5, 3), (6, 6)):
                s = moment_series(j, k, m, delta)
                q = moment_quadrature(j, k, m, delta)
                assert abs(s - q) < 1e-11 * max(1.0, abs(s)), (j, k, m, delta)


def test_moment_delta_zero_is_radial():
    for m in (1, 3):
        for j, k in ((0, 0), (2, 2), (4, 4)):
            assert abs(moment_series(j, k, m, 0.0) - radial_monomial_integral(j, m)) < 1e-12
        # off-diagonal moments vanish by rotational symmetry
        assert abs(moment_series(3, 1, m, 0.0)) < 1e-12


def test_disc_nodes_properties():
    z, w = disc_weight_nodes(2, complex(1.0, 2.0))
    assert np.all(np.abs(z) < 1.0)
    assert np.all(w > 0)
    # rule integrates the constant to the zeroth moment
    assert abs(np.sum(w) - moment_series(0, 0, 2, complex(1.0, 2.0))) < 1e-11


def test_disc_nodes_integrate_polynomials():
    m, delta = 1, complex(-0.3, 0.7)
    z, w = disc_weight_nodes(m, delta)
    for j, k in ((1, 0), (2, 1), (3, 3)):
        got = np.sum(w * z**j * np.conj(z) ** k)
        assert abs(got - moment_series(j, k, m, delta)) < 1e-11


def test_gram_matrix_structure():
    for delta in (1.0, complex(-0.3, 0.7)):
        g = gram_matrix(6, 2, delta)
        assert g.shape == (6, 6)
        assert np.allclose(g, g.conj().T, rtol=0, atol=1e-13)
        evals = np.linalg.eigvalsh(g)
        assert evals.min() > 0
        for j in range(6):
            for k in range(6):
                assert abs(g[j, k] - moment_series(j, k, 2, delta)) < 1e-12


def test_gram_matrix_cap():
    gram_matrix(GRAM_MAX_N, 1, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(GRAM_MAX_N + 1, 1, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(0, 1, 0.0)


def test_moment_argument_validation():
    with pytest.raises(ValueError):
        moment_series(-1, 0, 1, 0.0)
    with pytest.raises(ValueError):
        moment_series(0, 0, 0, 0.0)
    with pytest.raises(ValueError):
        moment_series(0, 0, 1, -0.6)
    with pytest.raises(ValueError):
        moment_quadrature(0, 0, 1, 0.0, radial_nodes=8)


# Spread entries of the n = 48 Gram matrix, corners included.
GRAM48_ENTRIES = (
    [(47, 0), (47, 47), (0, 0), (47, 46), (46, 1), (1, 0), (1, 1)]
    + [(j, (7 * j) % (j + 1)) for j in range(3, 46, 3)]
    + [(40, 40), (33, 20), (24, 12)]
)


@pytest.mark.parametrize(
    "m, delta",
    [(m, d) for m in (1, 4) for d in (complex(1, 2), -0.3, complex(-0.3, 0.7))]
    + [(1, d) for d in (-0.33, -0.4, -0.45, complex(-0.49, 0.5))],
)
def test_gram_matrix_matches_quadrature_at_n48(m, delta):
    # the tail holds for every Re delta > -1/2; m = 1 below Re delta = -0.3
    # once gave silently wrong entries, NaN or a huge value
    g = gram_matrix(48, m, delta)
    assert len(GRAM48_ENTRIES) >= 25
    for j, k in GRAM48_ENTRIES:
        q = moment_quadrature(j, k, m, delta, 256, 1024)
        assert abs(g[j, k] - q) <= 1e-10 * abs(q), (j, k, g[j, k], q)


def test_moment_series_at_large_degree():
    # far beyond the Gram cap the head runs to T = 2j, so the tail stays exact
    s = moment_series(1000, 1000, 1, complex(-0.3, 0.7), tol=1e-12)
    q = moment_quadrature(1000, 1000, 1, complex(-0.3, 0.7), 512, 4096)
    assert abs(s - q) <= 1e-10 * abs(q)


@pytest.mark.parametrize("delta", [2.5j, 3j, -0.3 + 2j, -0.45 + 2j, 1 + 3j])
@pytest.mark.parametrize("n", [1, 2, 20])
def test_gram_matrix_longer_head_at_moderate_imaginary_delta(n, delta):
    # the 80-step head leaves a tail error estimate over 1e-14 here, and
    # gram_matrix(1, 1, 3j) once raised; the entries are summed again with a
    # longer head.  Errors are on the scale sqrt(c_jj c_kk) that bounds |c_jk|.
    g = gram_matrix(n, 1, delta)
    for j in range(n):
        for k in range(j + 1):
            q = moment_quadrature(j, k, 1, delta)
            scale = math.sqrt(abs(g[j, j] * g[k, k]))
            assert abs(g[j, k] - q) <= 1e-12 * scale, (j, k, g[j, k], q)


def test_gram_matrix_tolerance_refused():
    with pytest.raises(NumericalError, match=r"j=\d+ k=\d+ m=1 delta=\(1\+2j\)"):
        gram_matrix(48, 1, complex(1.0, 2.0), tol=1e-20)


def test_basis_orthonormal_near_the_lower_delta_bound():
    basis = orthonormal_basis(4, 1, -0.45)
    z, w = disc_weight_nodes(1, -0.45, 96, 256)
    vals = basis.evaluate(z)
    inner = (vals * w) @ vals.conj().T
    assert np.max(np.abs(inner - np.eye(4))) <= 1e-9
