import math
import time

import numpy as np
import pytest

from hplab.errors import NumericalError
from hplab.rng import RngStream
from hplab.sampling import (
    HPParams,
    MHConfig,
    _mh_accept_probability,
    _rejection_acceptance,
    _rejection_stack,
    hp_log_weight,
    hp_log_weights,
    sample_ginibre,
    sample_haar_unitaries,
    sample_haar_unitary,
    sample_hua_pickrell_mh,
    sample_hua_pickrell_rejection,
    unitarity_defect,
)


def test_params_validation():
    HPParams(2, 1, 0.0)
    with pytest.raises(ValueError):
        HPParams(0, 1, 0.0)
    with pytest.raises(ValueError):
        HPParams(2, 0, 0.0)
    with pytest.raises(ValueError):
        HPParams(2, 1, -0.5)
    with pytest.raises(ValueError):
        HPParams(2, 1, complex(-0.6, 1.0))
    assert HPParams(3, 2, 1.0).dim == 5


def test_mh_config_validation():
    assert MHConfig().thinning == 5
    assert MHConfig().burn_in == 1000
    with pytest.raises(ValueError):
        MHConfig(burn_in=-1)
    with pytest.raises(ValueError):
        MHConfig(thinning=0)


def test_ginibre_moments():
    rng = RngStream(7)
    g = sample_ginibre(40, 40, rng)
    assert g.shape == (40, 40)
    assert g.dtype == np.complex128
    # entries are standard complex normals: E|g|^2 = 1, E g = 0
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.1
    assert abs(np.mean(g)) < 0.1


def test_haar_unitary_is_unitary():
    rng = RngStream(11)
    for dim in (1, 2, 5, 20):
        u = sample_haar_unitary(dim, rng)
        assert unitarity_defect(u) < 1e-12


def test_haar_determinism():
    a = sample_haar_unitary(6, RngStream(3))
    b = sample_haar_unitary(6, RngStream(3))
    assert np.array_equal(a, b)


def test_haar_stack_matches_consecutive_draws():
    rng = RngStream(3)
    singles = np.array([sample_haar_unitary(4, rng) for _ in range(5)])
    stack = sample_haar_unitaries(4, 5, RngStream(3))
    assert stack.shape == (5, 4, 4)
    assert stack.tobytes() == singles.tobytes()
    assert sample_haar_unitaries(4, 0, RngStream(3)).shape == (0, 4, 4)


def test_haar_singular_ginibre_raises():
    class ZeroStream:
        def standard_normal(self, size):
            return np.zeros(size)

    with pytest.raises(NumericalError):
        sample_haar_unitaries(3, 4, ZeroStream())


def test_haar_eigenvalue_rotation_invariance():
    # eigenvalue arguments of a Haar unitary are uniform on the circle
    rng = RngStream(13)
    args = np.concatenate(
        [np.angle(np.linalg.eigvals(sample_haar_unitary(4, rng))) for _ in range(600)]
    )
    hist, _ = np.histogram(args, bins=8, range=(-np.pi, np.pi))
    expected = len(args) / 8
    chi2 = np.sum((hist - expected) ** 2 / expected)
    # chi-square with 7 dof: the 0.999 quantile is about 24.3
    assert chi2 < 24.3


def test_log_weight_matches_determinant():
    rng = RngStream(17)
    for delta in (1.0, 0.5, complex(1.0, 2.0), complex(-0.3, 0.7)):
        u = sample_haar_unitary(4, rng)
        det = np.linalg.det(np.eye(4) - u)
        expected = 2.0 * (complex(delta) * complex(math.log(abs(det)), np.angle(det))).real
        assert abs(hp_log_weight(u, delta) - expected) < 1e-8


def test_log_weight_negated_identity():
    # I - U = 2I when U = -I, so log|det(I-U)^delta|^2 = 2 Re(delta) dim log 2
    dim = 3
    u = -np.eye(dim, dtype=complex)
    for delta in (1.0, complex(0.5, -1.5)):
        expected = 2.0 * complex(delta).real * dim * math.log(2.0)
        assert abs(hp_log_weight(u, delta) - expected) < 1e-12


def test_log_weight_unit_eigenvalue():
    u = np.eye(2, dtype=complex)
    assert hp_log_weight(u, 1.0) == float("-inf")
    assert hp_log_weight(u, -0.3) == float("inf")
    assert hp_log_weight(u, 1j) == 0.0


def _stack_with_unit_eigenvalue(rng):
    # row 2 has the exact eigenvalue 1, so its log-weight takes the -inf/+inf/0
    # conventions; the other rows must be unaffected
    u = sample_haar_unitaries(3, 6, rng)
    u[2] = np.diag([1.0, -1.0, 1j])
    return u


def test_stacked_log_weights_match_single_matrix():
    u = _stack_with_unit_eigenvalue(RngStream(19))
    for delta in (1.0, 0.5, complex(1.0, 2.0), complex(-0.3, 0.7), 1j):
        got = hp_log_weights(u, delta)
        ref = np.array([hp_log_weight(x, delta) for x in u])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert np.all(np.isfinite(np.delete(got, 2)))
    assert hp_log_weights(u, 1.0)[2] == float("-inf")
    assert hp_log_weights(u, complex(1.0, 2.0))[2] == float("-inf")
    assert hp_log_weights(u, complex(-0.3, 0.7))[2] == float("inf")
    assert hp_log_weights(u, -0.3)[2] == float("inf")
    # 1j: the singular factor is dropped, leaving 2 Re(i (log 2 + Log(1 - i))) = pi/2
    assert abs(hp_log_weights(u, 1j)[2] - math.pi / 2) < 1e-12
    assert hp_log_weights(u[:0], 1.0).shape == (0,)


def test_real_delta_log_weight_matches_eigenvalue_formula():
    # real delta uses slogdet(I - U); the eigenvalue form 2 delta sum log|1 - lambda|
    # is the branch-aware path it replaces
    u = sample_haar_unitaries(5, 50, RngStream(37))
    lam = np.linalg.eigvals(u)
    for delta in (1.0, 0.5, -0.3, 2.5):
        ref = 2.0 * delta * np.sum(np.log(np.abs(1.0 - lam)), axis=1)
        np.testing.assert_allclose(hp_log_weights(u, delta), ref, rtol=0, atol=1e-10)


def test_log_weight_rejects_non_unitary():
    with pytest.raises(ValueError):
        hp_log_weight(np.eye(3) * 1.5, 1.0)


def test_mh_accept_probability_infinities():
    inf = float("inf")
    # arguments are (proposal, current)
    assert _mh_accept_probability(inf, -1.0) == 1.0
    assert _mh_accept_probability(inf, inf) == 0.0
    assert _mh_accept_probability(-1.0, inf) == 0.0
    assert _mh_accept_probability(-1.0, -inf) == 1.0
    assert _mh_accept_probability(-inf, -1.0) == 0.0
    assert _mh_accept_probability(-1.0, -1.0) == 1.0
    assert 0.0 < _mh_accept_probability(-2.0, -1.0) < 1.0


def test_rejection_requires_nonnegative_real_part():
    with pytest.raises(ValueError):
        sample_hua_pickrell_rejection(3, complex(-0.3, 0.0), RngStream(0))


def test_hopeless_rejection_draw_refused():
    # on U(120) at delta = 1+2i the acceptance underflows to 0.0, so one draw
    # would need unboundedly many proposals; it is refused before sampling
    t0 = time.perf_counter()
    with pytest.raises(NumericalError, match="unboundedly many"):
        sample_hua_pickrell_rejection(120, 1 + 2j, RngStream(0))
    assert time.perf_counter() - t0 < 1.0


def test_rejection_acceptance_rate():
    # for delta = 1 the average acceptance ratio is (dim + 1) / 2^(2 dim)
    dim, delta, count = 3, 1.0, 400
    rng = RngStream(23)
    proposals = 0
    for i in range(count):
        u, used = _rejection_stack(dim, delta, 1, rng)
        proposals += used
        if i < 20:
            assert unitarity_defect(u) < 1e-12
    rate = count / proposals
    p = (dim + 1) / 2 ** (2 * dim)
    se = math.sqrt(p * (1 - p) / proposals)
    assert abs(rate - p) < 5 * se


def test_rejection_proposals_count_to_the_accepted_one():
    # counts are geometric, so a count of 1 has probability p; a count that
    # took in the rest of a block of proposals would never be 1
    dim, delta, count = 3, 1.0, 1600
    rng = RngStream(29)
    ones = sum(_rejection_stack(dim, delta, 1, rng)[1] == 1 for _ in range(count))
    p = (dim + 1) / 2 ** (2 * dim)
    assert abs(ones - count * p) < 5 * math.sqrt(count * p * (1 - p))


def test_rejection_acceptance_closed_form():
    # prod_j Gamma(j) Gamma(j+2a) / |Gamma(j+delta)|^2 / (4^(aN) e^(pi N |b|))
    assert abs(_rejection_acceptance(3, 1 + 0j) - 1 / 16) < 1e-14
    assert abs(_rejection_acceptance(3, 1 + 2j) / 4.36e-8 - 1) < 1e-3
    assert abs(_rejection_acceptance(4, 0j) - 1) < 1e-14
    for dim in (2, 3, 5):
        # delta = 1: (dim + 1) / 4^dim, the rate measured above
        assert abs(_rejection_acceptance(dim, 1 + 0j) * 4**dim / (dim + 1) - 1) < 1e-12


def test_rejection_determinism():
    a = sample_hua_pickrell_rejection(2, 1.0, RngStream(5))
    b = sample_hua_pickrell_rejection(2, 1.0, RngStream(5))
    assert np.array_equal(a, b)


def test_mh_accepts_everything_at_delta_zero():
    # at delta = 0 every proposal is accepted without a uniform, so the chain
    # is the Haar stream itself: state burn_in + thinning * k is retained
    dim, count, cfg = 3, 100, MHConfig(burn_in=10, thinning=2)
    samples = sample_hua_pickrell_mh(dim, 0.0, count, cfg, RngStream(31))
    haar = sample_haar_unitaries(dim, 1 + cfg.burn_in + cfg.thinning * count, RngStream(31))
    kept = cfg.burn_in + cfg.thinning * np.arange(1, count + 1)
    assert samples.shape == (count, dim, dim)
    assert samples.tobytes() == haar[kept].tobytes()


def test_mh_determinism():
    cfg = MHConfig(burn_in=20, thinning=2)
    a = sample_hua_pickrell_mh(2, complex(-0.25, 0.0), 30, cfg, RngStream(41))
    b = sample_hua_pickrell_mh(2, complex(-0.25, 0.0), 30, cfg, RngStream(41))
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_mh_matches_rejection_distribution():
    # compare mean log-weight under both samplers at delta = 1
    dim, delta, count = 2, 1.0, 1500
    rng = RngStream(43)
    lw_rej = np.array(
        [hp_log_weight(sample_hua_pickrell_rejection(dim, delta, rng), delta) for _ in range(count)]
    )
    mh = sample_hua_pickrell_mh(
        dim, delta, count, MHConfig(burn_in=500, thinning=10), RngStream(44)
    )
    lw_mh = np.array([hp_log_weight(u, delta) for u in mh])
    pooled_se = math.sqrt(np.var(lw_rej) / count + np.var(lw_mh) / count)
    # thinned chain still carries some correlation; allow a generous band
    assert abs(np.mean(lw_rej) - np.mean(lw_mh)) < 6 * pooled_se
