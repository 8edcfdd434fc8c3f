import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sp

from hplab.errors import ConfigError, NumericalError
from hplab.orthopoly import orthonormal_basis
from hplab.weights import (
    GRAM_MAX_N,
    WeightSpec,
    _LGAMMA_TERMS,
    _gauge_factor,
    _lgamma_ratio_coeffs,
    _moments,
    disc_weight_nodes,
    gram_matrix,
    moment_quadrature,
    weight_eval,
)

from reference import radial_monomial_integral

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
    assert abs(gram_matrix(1, 1, 0.0)[0, 0] - math.pi) < 1e-10
    assert abs(gram_matrix(2, 2, 0.0)[1, 1] - math.pi / 6) < 1e-10
    g = gram_matrix(2, 1, 1.0)
    assert abs(g[0, 0] - 1.5 * math.pi) < 1e-10
    assert abs(g[0, 1] - (-0.5 * math.pi)) < 1e-10
    assert abs(g[1, 1] - 5.0 * math.pi / 6.0) < 1e-10
    # non-integer exponent, checked against adaptive numerical integration
    assert abs(gram_matrix(1, 1, -0.3)[0, 0] - 3.376137709029689) < 1e-10


def test_moment_hermitian_symmetry():
    # both triangles of the block are summed; gram_matrix mirrors the lower one
    for delta in DELTAS:
        c = _moments(4, 2, complex(delta))
        assert abs(c[3, 1] - np.conj(c[1, 3])) < 1e-14 * max(1.0, abs(c[3, 1]))


def test_moment_series_matches_quadrature():
    for delta in DELTAS:
        for m in (1, 2, 4):
            g = gram_matrix(7, m, delta)
            for j, k in ((0, 0), (1, 0), (2, 2), (5, 3), (6, 6)):
                q = moment_quadrature(j, k, m, delta)
                assert abs(g[j, k] - q) < 1e-11 * max(1.0, abs(g[j, k])), (j, k, m, delta)


def test_moment_delta_zero_is_radial():
    for m in (1, 3):
        g = gram_matrix(5, m, 0.0)
        for j in (0, 2, 4):
            assert abs(g[j, j] - radial_monomial_integral(j, m)) < 1e-12
        # off-diagonal moments vanish by rotational symmetry
        assert abs(g[3, 1]) < 1e-12


def test_disc_nodes_properties():
    z, w = disc_weight_nodes(2, complex(1.0, 2.0))
    assert np.all(np.abs(z) < 1.0)
    assert np.all(w > 0)
    # rule integrates the constant to the zeroth moment
    assert abs(np.sum(w) - gram_matrix(1, 2, complex(1.0, 2.0))[0, 0]) < 1e-11


def test_disc_nodes_integrate_polynomials():
    m, delta = 1, complex(-0.3, 0.7)
    z, w = disc_weight_nodes(m, delta)
    g = gram_matrix(4, m, delta)
    for j, k in ((1, 0), (2, 1), (3, 3)):
        got = np.sum(w * z**j * np.conj(z) ** k)
        assert abs(got - g[j, k]) < 1e-11


def test_gram_matrix_structure():
    for delta in (1.0, complex(-0.3, 0.7)):
        g = gram_matrix(6, 2, delta)
        assert g.shape == (6, 6)
        assert np.allclose(g, g.conj().T, rtol=0, atol=1e-13)
        evals = np.linalg.eigvalsh(g)
        assert evals.min() > 0
        # the mirrored triangle matches the one the series summed
        assert np.max(np.abs(g - _moments(6, 2, complex(delta)))) < 1e-12


def test_gram_matrix_cap():
    gram_matrix(GRAM_MAX_N, 1, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(GRAM_MAX_N + 1, 1, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(0, 1, 0.0)


def test_moment_argument_validation():
    with pytest.raises(ValueError):
        moment_quadrature(-1, 0, 1, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(1, 0, 0.0)
    with pytest.raises(ValueError):
        gram_matrix(1, 1, -0.6)
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


@pytest.mark.parametrize("m, delta", [(1, complex(-0.3, 0.7)), (4, complex(1, 2)), (1, -0.45), (2, 3j)])
def test_gram_matrix_matches_moment_series_at_n48(m, delta):
    # the block up to top = max(j, k) cuts its series at T = 2 top or top + 80,
    # the n = 48 Gram matrix all of its entries at T = 127, so the two tails
    # differ; j < k reads the small block's upper triangle, summed through the
    # column factor's conjugate, against the mirrored lower one at n = 48
    g = gram_matrix(48, m, delta)
    for j, k in GRAM48_ENTRIES + [(k, j) for j, k in GRAM48_ENTRIES if j > k]:
        c = _moments(max(j, k) + 1, m, complex(delta))[j, k]
        assert abs(g[j, k] - c) <= 1e-14 * max(1.0, abs(c)), (j, k, g[j, k], c)


@pytest.mark.parametrize(
    "delta", [complex(1, 2), -0.3, complex(-0.3, 0.7), 2j, complex(-0.45, 2), -0.49, 4j, 5.5]
)
def test_lgamma_ratio_coeffs_match_the_bernoulli_loop(delta):
    # the coefficients come from one table product; the loop over orders is
    # the reference, in another summation order, so they agree to rounding
    # in each term's size at the smallest argument, s = 80 (the series only
    # uses them at non-integer delta)
    alpha = -complex(delta)
    bern = sp.bernoulli(_LGAMMA_TERMS)
    ref = []
    for k in range(2, _LGAMMA_TERMS + 1):
        bk = sum(math.comb(k, i) * bern[i] * (alpha ** (k - i) - 1.0) for i in range(k + 1))
        ref.append((-1) ** k * bk / (k * (k - 1)))
    scale = 80.0 ** (1 - np.arange(2, _LGAMMA_TERMS + 1))
    sizes = np.abs(ref) * scale
    kept = np.flatnonzero(sizes >= 1e-20)[-1] + 1
    coeffs, lg_err = _lgamma_ratio_coeffs(alpha)
    assert len(coeffs) == kept
    assert abs(lg_err - sizes[-1]) <= 1e-12 * sizes[-1]
    gap = np.abs(coeffs[::-1] - ref[:kept]) * scale[:kept]
    assert np.max(gap) <= 1e-15 * np.max(sizes)


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
    # at |Im delta| = 50 the longest head still leaves estimates far over
    # 1e-14; the refusal names the worst entry
    with pytest.raises(NumericalError, match=r"j=1 k=1 m=1 delta=\(-0\.3\+50j\)"):
        gram_matrix(2, 1, complex(-0.3, 50.0))


def test_basis_orthonormal_near_the_lower_delta_bound():
    basis = orthonormal_basis(4, 1, -0.45)
    z, w = disc_weight_nodes(1, -0.45, 96, 256)
    vals = basis.evaluate(z)
    inner = (vals * w) @ vals.conj().T
    assert np.max(np.abs(inner - np.eye(4))) <= 1e-9
