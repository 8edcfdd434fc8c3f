import math
import time

import numpy as np
import pytest

from hplab import sampling
from hplab.errors import NumericalError
from hplab.rng import RngStream
from hplab.sampling import (
    HPParams,
    MHConfig,
    _mh_accept_probability,
    _reflection_rows,
    _reflection_vectors,
    _rejection_acceptance,
    _rejection_stack,
    _verblunsky_coefficients,
    hp_log_weight,
    hp_log_weights,
    sample_haar_unitaries,
    sample_haar_unitary,
    sample_hua_pickrell_mh,
    sample_hua_pickrell_rejection,
    unitarity_defect,
)

from reference import reflection_product


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


def test_haar_nan_draw_raises():
    class NanStream:
        def standard_normal(self, size):
            return np.full(size, np.nan)

    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not unitary"):
        sample_haar_unitaries(3, 4, NanStream())


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
    # for delta = 1 the average acceptance ratio is (dim + 1) / 2^(2 dim), for
    # the full matrix and for a 1 x 1 corner alike: every coefficient is weighed
    dim, delta, count = 3, 1.0, 400
    rng = RngStream(23)
    p = (dim + 1) / 2 ** (2 * dim)
    for keep in (dim, 1):
        proposals = 0
        for i in range(count):
            u, used = _rejection_stack(dim, keep, delta, 1, rng)
            assert u.shape == (1, keep, keep)
            proposals += used
            if i < 20 and keep == dim:
                assert unitarity_defect(u) < 1e-12
        rate = count / proposals
        se = math.sqrt(p * (1 - p) / proposals)
        assert abs(rate - p) < 5 * se, keep


def test_rejection_proposals_count_to_the_accepted_one():
    # counts are geometric, so a count of 1 has probability p; a count that
    # took in the rest of a block of proposals would never be 1
    dim, delta, count = 3, 1.0, 1600
    rng = RngStream(29)
    ones = sum(_rejection_stack(dim, dim, delta, 1, rng)[1] == 1 for _ in range(count))
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


def test_rejection_nan_draw_raises():
    # the proposals are real, their completions NaN: the row block's
    # orthonormality check stops the NaN before it reaches the caller
    class NanNormals(RngStream):
        def standard_normal(self, size=None):
            return np.full(size, np.nan)

    with np.errstate(invalid="ignore"):
        for keep in (3, 1):
            with pytest.raises(NumericalError, match="not unitary"):
                _rejection_stack(3, keep, 1.0, 5, NanNormals(47))
        with pytest.raises(NumericalError, match="not unitary"):
            sample_hua_pickrell_rejection(2, 1 + 1j, NanNormals(47))


def _reflections(dim, count, seed):
    rng = RngStream(seed)
    gamma = _verblunsky_coefficients(dim, count, rng)
    return gamma, _reflection_vectors(gamma, dim, rng)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_verblunsky_coefficients_have_haar_moments(dim):
    # |gamma_k|^2 ~ Beta(1, d - 1) with d = dim - k + 1 has mean 1/d; the last
    # coefficient is on the circle, and every angle is uniform
    count = 20_000
    gamma = _verblunsky_coefficients(dim, count, RngStream(900 + dim))
    assert gamma.shape == (count, dim)
    r2 = np.abs(gamma) ** 2
    d = dim - np.arange(dim)
    se = r2.std(axis=0) / math.sqrt(count)
    assert np.all(np.abs(r2[:, :-1].mean(axis=0) - 1 / d[:-1]) < 5 * se[:-1])
    np.testing.assert_allclose(r2[:, -1], 1.0, rtol=0, atol=1e-15)
    phase = gamma / np.abs(gamma)
    assert np.all(np.abs(phase.mean(axis=0)) < 5 / math.sqrt(count))


@pytest.mark.parametrize("dim", [2, 3, 5, 10])
def test_reflection_product_carries_det_i_minus_u(dim):
    # det(I - U) = prod_k (1 - gamma_k), with the principal branches summing
    # alike: sum_i Log(1 - lambda_i) = sum_k Log(1 - gamma_k)
    gamma, v = _reflections(dim, 500, 910 + dim)
    u = _reflection_rows(v)
    lam = np.linalg.eigvals(u)
    lhs = np.sum(np.log(1.0 - lam), axis=1)
    rhs = np.sum(np.log(1.0 - gamma), axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_reflection_rows_are_the_unitary_product(dim):
    _, v = _reflections(dim, 200, 920 + dim)
    u = _reflection_rows(v)
    assert u.shape == (200, dim, dim)
    assert unitarity_defect(u) < 1e-13
    ref = np.array([reflection_product(x) for x in v])
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-13)
    # gamma = 1 exactly: R is the identity, with no 0/0
    v[0, 0] = 0.0
    v[0, 0, 0] = 1.0
    u = _reflection_rows(v)
    assert unitarity_defect(u) < 1e-13
    np.testing.assert_allclose(u[0], reflection_product(v[0]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_corner_rows_equal_the_full_product(dim):
    # the factors after n change only columns n.., so the n x N block built
    # from v_1..v_n holds the full product's n x n corner
    _, v = _reflections(dim, 100, 930 + dim)
    full = _reflection_rows(v)
    for keep in range(1, dim + 1):
        rows = _reflection_rows(v[:, :keep])
        assert rows.shape == (100, keep, dim)
        assert rows[:, :, :keep].tobytes() == full[:, :keep, :keep].tobytes()


def test_mh_accepts_everything_at_delta_zero():
    # at delta = 0 every proposal is accepted without a uniform, so the chain
    # is the Haar stream itself: state burn_in + thinning * k is retained
    dim, count, cfg = 3, 100, MHConfig(burn_in=10, thinning=2)
    samples = sample_hua_pickrell_mh(dim, 0.0, count, cfg, RngStream(31))
    haar = sample_haar_unitaries(dim, 1 + cfg.burn_in + cfg.thinning * count, RngStream(31))
    kept = cfg.burn_in + cfg.thinning * np.arange(1, count + 1)
    assert samples.shape == (count, dim, dim)
    assert samples.tobytes() == haar[kept].tobytes()


def _stepwise_mh(dim, delta, count, cfg, rng):
    """The Metropolis chain one proposal at a time, the reference for the
    blocked sampler; also returns how many moves were certain."""
    current = sample_haar_unitary(dim, rng)
    logw_cur = hp_log_weight(current, delta)
    out = np.empty((count, dim, dim), dtype=np.complex128)
    certain = 0
    for t in range(1, cfg.burn_in + cfg.thinning * count + 1):
        prop = sample_haar_unitary(dim, rng)
        logw_prop = hp_log_weight(prop, delta)
        p = _mh_accept_probability(logw_prop, logw_cur)
        certain += p >= 1.0
        if p >= 1.0 or rng.random() < p:
            current, logw_cur = prop, logw_prop
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
            out[(t - cfg.burn_in) // cfg.thinning - 1] = current
    return out, certain


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.3, -0.45, 1 + 2j, complex(-0.3, 0.7)])
def test_mh_blocks_match_the_stepwise_chain(delta):
    schedules = [(MHConfig(0, 3), 20), (MHConfig(10, 1), 30), (MHConfig(25, 2), 0),
                 (MHConfig(0, 1), 0)]
    for dim in range(1, 6):
        for k, (cfg, count) in enumerate(schedules):
            seed = 100 * dim + k
            got = sample_hua_pickrell_mh(dim, delta, count, cfg, RngStream(seed))
            ref, _ = _stepwise_mh(dim, delta, count, cfg, RngStream(seed))
            assert got.shape == (count, dim, dim)
            assert got.tobytes() == ref.tobytes(), (dim, cfg, count)


@pytest.mark.parametrize("dim, delta", [(3, 1 + 2j), (4, -0.3)])
def test_mh_long_chain_matches_the_stepwise_chain(dim, delta):
    # thousands of steps: full-size blocks, and many rewinds at certain moves
    cfg, count = MHConfig(200, 7), 600
    got = sample_hua_pickrell_mh(dim, delta, count, cfg, RngStream(61))
    ref, certain = _stepwise_mh(dim, delta, count, cfg, RngStream(61))
    assert certain > 100
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("delta", [0.0, -0.3, 1 + 2j])
@pytest.mark.parametrize("fault", ["non-unitary", "zero-diagonal"])
def test_mh_checks_every_proposal(monkeypatch, delta, fault):
    # the first QR builds the initial state; every later one spoils its stack
    real_qr = np.linalg.qr
    calls = []

    def qr(a):
        q, r = real_qr(a)
        calls.append(a.shape)
        if len(calls) > 1:
            if fault == "non-unitary":
                q = 1.001 * q
            else:
                r[..., 0, 0] = 0.0
        return q, r

    monkeypatch.setattr(sampling.np.linalg, "qr", qr)
    with pytest.raises(NumericalError, match="not unitary"):
        sample_hua_pickrell_mh(3, delta, 10, MHConfig(5, 2), RngStream(71))
    assert len(calls) > 1


def test_mh_failed_eigensolve_raises(monkeypatch):
    # the first eigensolve weighs the initial state; every later one fails
    real_eigvals = np.linalg.eigvals
    calls = []

    def eigvals(a):
        calls.append(a.shape)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("no convergence")
        return real_eigvals(a)

    monkeypatch.setattr(sampling.np.linalg, "eigvals", eigvals)
    with pytest.raises(NumericalError, match="eigenvalue computation failed"):
        sample_hua_pickrell_mh(3, 1 + 2j, 10, MHConfig(5, 2), RngStream(73))
    assert len(calls) > 1


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
