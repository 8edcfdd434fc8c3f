import json
import math

import numpy as np
import pytest

import hplab.dpp as dpp_module
import hplab.weights as weights_module
from hplab.cli import _gauge_tuple
from hplab.dpp import (
    _PROPOSAL_BATCH,
    CellPartition,
    _cell_moments,
    _cell_rules,
    _gauge_sups,
    _sampler_plan,
    bonferroni_threshold,
    convergence_profile,
    default_convergence_grid,
    equal_mass_partition,
    gauge_identity_check,
    sample_projection_dpp,
    verify_intensities,
)
from hplab.orthopoly import (
    bergman_kernel,
    closed_form_basis_delta0,
    finite_kernel,
    kernel_eval,
    limiting_kernel,
    orthonormal_basis,
)
from hplab.errors import NumericalError
from hplab.rng import RngStream
from hplab.stats import chi_square_gof
from hplab.weights import (
    WeightSpec,
    _gauge_factor,
    _propose_batch,
    _weight_mass,
    disc_weight_nodes,
    moment_series,
    weight_eval,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        CellPartition(np.array([0.1, 0.5]), np.array([[0.0, 2 * np.pi]]))
    with pytest.raises(ValueError):
        CellPartition(np.array([0.0, 0.5, 0.4]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CellPartition(np.array([0.0, 0.5]), np.array([[1.0, 0.5]]))


def test_partition_indexing_round_trip():
    part = equal_mass_partition(WeightSpec("hp", 1, 0.0), 3, 4, 0.9)
    assert part.rings == 3 and part.sectors == 4 and part.n_cells == 12
    assert part.r_max == 0.9
    rng = RngStream(3)
    z = 0.9 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    cells = part.cell_of(z)
    for zi, ci in zip(z, cells):
        assert ci >= 0
        r_lo, r_hi, t_lo, t_hi = part.cell_bounds(ci)
        assert r_lo <= abs(zi) <= r_hi + 1e-12
        theta = np.mod(np.angle(zi), 2 * np.pi)
        assert t_lo <= theta <= t_hi + 1e-12
    # points beyond r_max are unassigned
    assert part.cell_of(np.array([0.95 + 0j]))[0] == -1


def test_partition_counts():
    part = equal_mass_partition(WeightSpec("hp", 1, 0.0), 2, 2, 0.8)
    configs = np.array([[0.1 + 0.1j, -0.5 + 0.1j], [0.9 + 0j, 0.2j]])
    counts = part.counts(configs)
    assert counts.shape == (2, 4)
    assert counts[0].sum() == 2
    assert counts[1].sum() == 1  # one point beyond r_max


def test_equal_mass_partition_is_equal_mass():
    weight = WeightSpec("hp", 2, complex(1.0, 2.0))
    part = equal_mass_partition(weight, 3, 4, 0.9)
    z, u = _cell_rules(part, weight)
    assert z.shape == u.shape == (12, 24 * 24)
    masses = u.sum(axis=1)
    assert masses.max() / masses.min() < 1.02


def test_equal_mass_partition_validation():
    w = WeightSpec("hp", 1, 0.0)
    with pytest.raises(ValueError):
        equal_mass_partition(w, 0, 4, 0.9)
    with pytest.raises(ValueError):
        equal_mass_partition(w, 2, 2, 1.1)


def test_trace_identity_full_disc():
    # sum of K(z, z) w(z) over the whole disc equals the number of points
    for m, delta in ((1, 0.0), (2, 1.0), (1, complex(1.0, 2.0)), (3, complex(-0.3, 0.7))):
        n = 6
        basis = orthonormal_basis(n, m, delta)
        z, w = disc_weight_nodes(m, delta)
        kdiag = np.sum(np.abs(basis.evaluate(z)) ** 2, axis=0)
        assert abs(np.sum(w * kdiag) - n) < 1e-6, (m, delta)


def test_cell_moment_traces_consistent_with_global_rule():
    # assembling the trace tr M_A cell by cell agrees with one global polar rule
    m, delta = 1, 1.0
    weight = WeightSpec("hp", m, delta)
    basis = orthonormal_basis(3, m, delta)
    part = equal_mass_partition(weight, 3, 4, 0.85)
    moments = _cell_moments(basis, *_cell_rules(part, weight))
    total = float(np.sum(np.real(np.trace(moments, axis1=1, axis2=2))))

    xg, wg = np.polynomial.legendre.leggauss(200)
    r = 0.5 * 0.85 * (xg + 1.0)
    ur = 0.5 * 0.85 * wg * r
    t = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    z = (r[:, None] * np.exp(1j * t)[None, :]).ravel()
    u = np.repeat(ur, t.size) * (2 * np.pi / t.size)
    wvals = weight_eval(weight, z)
    kd = np.sum(np.abs(basis.evaluate(z)) ** 2, axis=0)
    ref = float(np.sum(u * wvals * kd))
    assert abs(total - ref) < 1e-6


def test_bonferroni_threshold():
    # single two-sided test at level 0.05 has threshold 1.959963...
    assert abs(bonferroni_threshold(0.05, 1) - 1.9599639845400545) < 1e-12
    assert bonferroni_threshold(1e-3, 100) > bonferroni_threshold(1e-3, 10)
    with pytest.raises(ValueError):
        bonferroni_threshold(0.0, 5)
    with pytest.raises(ValueError):
        bonferroni_threshold(0.1, 0)


def test_second_moment_inequality():
    # pair intensities of a determinantal process are nonnegative
    for m, delta in ((1, 0.0), (2, complex(1.0, 2.0)), (1, complex(-0.3, 0.0))):
        basis = orthonormal_basis(3, m, delta)
        kernel = finite_kernel(basis)
        part = equal_mass_partition(WeightSpec("hp", m, delta), 2, 3, 0.9)
        pts = sample_projection_dpp(basis, RngStream(1))
        report = verify_intensities(np.tile(pts, (2, 1)), kernel, part, include_pairs=True)
        assert np.all(report.pair_expected > -1e-10), (m, delta)


def test_pair_expected_matches_double_quadrature():
    # E[N_A N_B] = mu_A mu_B - int_A int_B |K(z,w)|^2 w(z) w(w) dA dA, pair by
    # pair from kernel values on the cell rules; mu is the report's own cell
    # mean, so the cell and pair terms must come from the one rule
    for n, m, delta in ((3, 2, complex(1.0, 2.0)), (2, 1, complex(-0.3, 0.7))):
        weight = WeightSpec("hp", m, delta)
        kernel = finite_kernel(orthonormal_basis(n, m, delta))
        part = equal_mass_partition(weight, 4, 6, 0.95)
        pts = 0.9 * np.exp(2j * np.pi * np.arange(2 * n) / (2 * n)).reshape(2, n)
        report = verify_intensities(pts, kernel, part)
        z, u = _cell_rules(part, weight)
        mu = report.cell_expected
        ref = []
        for a, b in report.pair_index:
            cross = kernel_eval(kernel, z[a], z[b])
            ref.append(mu[a] * mu[b] - float(np.real(u[a] @ (np.abs(cross) ** 2) @ u[b])))
        assert len(ref) == 24 * 23 // 2
        np.testing.assert_allclose(report.pair_expected, ref, rtol=1e-12, atol=0)


def test_dpp_sampler_basic_properties():
    basis = orthonormal_basis(3, 2, complex(1.0, 2.0))
    pts, proposals = sample_projection_dpp(basis, RngStream(5), return_proposals=True)
    assert pts.shape == (3,)
    assert np.all(np.abs(pts) < 1.0)
    assert proposals > 0
    again = sample_projection_dpp(basis, RngStream(5))
    assert np.array_equal(pts, again)


def test_dpp_sampler_plan_lives_on_basis():
    basis = orthonormal_basis(3, 1, 1.0)
    assert basis.sampler_plan is None
    sample_projection_dpp(basis, RngStream(2))
    plan = basis.sampler_plan
    sample_projection_dpp(basis, RngStream(3))
    assert basis.sampler_plan is plan
    assert basis.subbasis(2).sampler_plan is None
    # a kernel bound far too small is reported, not repaired
    delta_p, k_sup = plan
    object.__setattr__(basis, "sampler_plan", (delta_p, 1e-3 * k_sup))
    with pytest.raises(NumericalError, match="kernel bound"):
        sample_projection_dpp(basis, RngStream(2))


def test_dpp_plan_picks_the_cheaper_proposal_weight():
    # proposing from w_0 flattens the peak of K(z, z) at z = 1 for delta = 1,
    # but at (3, 3, 2i) the gauge factor e^(-2b arg(1-z)) costs more than it saves
    assert _sampler_plan(orthonormal_basis(6, 1, 1.0))[0] == 0
    assert _sampler_plan(orthonormal_basis(3, 3, 2j))[0] == 2j


DELTA_SET = (0.0, 1.0, complex(1.0, 2.0), complex(-0.3, 0.0), complex(-0.3, 0.7))
# the delta set plus the cases farthest from it that the gauge bound meets:
# large |Im delta|, Re delta near -1/2 and a large real delta
BOUND_DELTAS = DELTA_SET + (2j, complex(-0.45, 2.0), 3.0)


@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize("delta", DELTA_SET)
def test_dpp_proposals_follow_the_reference_weight(m, delta):
    # proposals thinned by f/h alone are draws from w / int w: their counts
    # in 24 equal-mass cells and the outer annulus match the cell masses
    # (level 1e-4 per case, 1e-3 over the ten)
    weight = WeightSpec("hp", m, delta)
    part = equal_mass_partition(weight, 4, 6, 0.95)
    _, u = _cell_rules(part, weight)
    cells = np.sum(u, axis=1)
    masses = np.append(cells, moment_series(0, 0, m, delta).real - cells.sum())
    rng = RngStream(41)
    kept = []
    for _ in range(500):
        z, thin, accept = _propose_batch(m, complex(delta), _PROPOSAL_BATCH, rng)
        kept.append(z[accept < thin])
    idx = part.cell_of(np.concatenate(kept))
    counts = np.bincount(np.where(idx < 0, part.n_cells, idx), minlength=part.n_cells + 1)
    _, p = chi_square_gof(counts, masses)
    assert p > 1e-4, (m, delta, p)


def test_dpp_kernel_bound_holds_on_a_finer_circle():
    # k_sup >= K(z, z) |(1-z)^c|^2 for both candidate proposal weights, on a
    # circle grid 16x finer than the bound's at n = 48 (finer still for the
    # smaller n) and at 2000 interior points
    sizes = (1, 6, 48)
    count = 16 * max(4096, 8 * sizes[-1] ** 2)
    rng = RngStream(29)
    inner = np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
    z = np.concatenate([np.exp(2j * np.pi * (np.arange(count) + 0.5) / count), inner])
    for m in (1, 3):
        for delta in BOUND_DELTAS:
            delta = complex(delta)
            full = orthonormal_basis(sizes[-1], m, delta)
            # K_n(z, z) for each n in sizes, one row each
            kdiag = np.concatenate([
                np.cumsum(np.abs(full.evaluate(part)) ** 2, axis=0)[[n - 1 for n in sizes]]
                for part in np.array_split(z, 16)
            ], axis=1)
            candidates = (delta, complex(min(delta.real, 0.0)))
            for row, n in zip(kdiag, sizes):
                basis = full.subbasis(n)
                sups = _gauge_sups(basis, [delta - d for d in candidates])
                delta_p, k_sup = _sampler_plan(basis)
                assert k_sup == sups[candidates.index(delta_p)], (n, m, delta)
                for d, sup in zip(candidates, sups):
                    assert sup >= np.max(row * _gauge_factor(z, delta - d)), (n, m, delta, d)


@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize("delta", BOUND_DELTAS)
def test_weight_mass_matches_the_moment_series(m, delta):
    mass = _weight_mass(m, complex(delta))
    assert abs(mass / moment_series(0, 0, m, delta).real - 1.0) < 1e-13, (m, delta)


def _stepwise_dpp(basis, rng):
    """Reference sampler: one proposal at a time from one stream per configuration."""
    delta_p, k_sup = basis.sampler_plan
    c = basis.delta - delta_p
    feats = np.zeros((0, basis.n), dtype=np.complex128)
    points, examined, batch = [], 0, []
    while len(points) < basis.n:
        if not batch:
            batch = list(zip(*_propose_batch(basis.m, delta_p, _PROPOSAL_BATCH, rng)))
        z, thin, u = batch.pop(0)
        examined += 1
        if abs(z) >= 1.0:
            continue
        vals = basis.evaluate(z)
        ratio = max(np.sum(np.abs(vals) ** 2) - np.sum(np.abs(feats @ vals) ** 2), 0.0)
        ratio *= _gauge_factor(z, c) * thin / k_sup
        if u < ratio:
            points.append(z)
            direction = np.conj(vals) - feats.T @ (feats.conj() @ np.conj(vals))
            feats = np.vstack([feats, direction / np.linalg.norm(direction)])
    return np.array(points), examined


@pytest.mark.parametrize("n, m, delta", [(6, 1, 1.0), (3, 1, 1 + 2j), (6, 1, -0.3 + 0.7j)])
def test_dpp_sampler_matches_the_stepwise_reference(n, m, delta):
    # the same points and the same count of examined proposals as a sampler
    # that takes one proposal at a time, the next point starting right after
    # the last one kept and a new batch drawn only when one is used up
    basis = orthonormal_basis(n, m, delta)
    fast, ref = RngStream(31), RngStream(31)
    for _ in range(20):
        pts, examined = sample_projection_dpp(basis, fast, return_proposals=True)
        ref_pts, ref_examined = _stepwise_dpp(basis, ref)
        np.testing.assert_allclose(pts, ref_pts, rtol=0, atol=1e-12)
        assert examined == ref_examined
    # both streams end on the same draw
    assert fast.random() == ref.random()


@pytest.mark.parametrize(
    "n, m, delta, count",
    [(6, 1, 1.0, 4000), (3, 1, 1 + 2j, 4000), (6, 1, -0.3 + 0.7j, 4000), (20, 1, 1.0, 1000)],
)
def test_dpp_sampler_matches_kernel_intensities(n, m, delta, count):
    # cell and pair counts of the sampled configurations against the exact
    # first and second intensities, on the bench's 4 x 6 partition
    basis = orthonormal_basis(n, m, delta)
    rng = RngStream(37)
    configs = np.array([sample_projection_dpp(basis, rng) for _ in range(count)])
    part = equal_mass_partition(WeightSpec("hp", m, delta), 4, 6, 0.95)
    report = verify_intensities(configs, finite_kernel(basis), part)
    assert report.passed, (report.max_abs_z, report.threshold)


def test_dpp_sampler_negative_delta():
    basis = orthonormal_basis(2, 1, complex(-0.3, 0.0))
    rng = RngStream(7)
    draws = np.array([sample_projection_dpp(basis, rng) for _ in range(50)])
    assert draws.shape == (50, 2)
    assert np.all(np.abs(draws) < 1.0)


def test_dpp_mean_squared_radius_delta0():
    # E[sum |z_i|^2] = 7/6 for two points at m = 1, delta = 0
    basis = closed_form_basis_delta0(2, 1)
    rng = RngStream(11)
    count = 3000
    vals = np.empty(count)
    for i in range(count):
        pts = sample_projection_dpp(basis, rng)
        vals[i] = np.sum(np.abs(pts) ** 2)
    se = vals.std(ddof=1) / math.sqrt(count)
    assert abs(vals.mean() - 7.0 / 6.0) < 4 * se


def test_verify_intensities_passes_on_matched_ensemble():
    basis = closed_form_basis_delta0(2, 1)
    kernel = finite_kernel(basis)
    part = equal_mass_partition(WeightSpec("hp", 1, 0.0), 2, 3, 0.9)
    rng = RngStream(13)
    configs = np.array([sample_projection_dpp(basis, rng) for _ in range(4000)])
    report = verify_intensities(configs, kernel, part)
    assert report.passed, report.max_abs_z
    assert report.n_tests == 6 + 15
    assert report.n_samples == 4000
    # counts conserve: cell means sum to the trace over the partition
    assert abs(np.sum(report.cell_mean) - np.mean(np.sum(part.counts(configs), axis=1))) < 1e-12
    payload = json.dumps(report.to_dict())
    assert "bonferroni_z" in payload


def test_verify_intensities_detects_wrong_kernel():
    # delta = 0 data tested against a delta = 2 kernel must fail
    basis = closed_form_basis_delta0(2, 1)
    part = equal_mass_partition(WeightSpec("hp", 1, 2.0), 2, 3, 0.9)
    rng = RngStream(17)
    configs = np.array([sample_projection_dpp(basis, rng) for _ in range(4000)])
    wrong = finite_kernel(orthonormal_basis(2, 1, 2.0))
    report = verify_intensities(configs, wrong, part)
    assert not report.passed


def test_verify_intensities_validation():
    basis = closed_form_basis_delta0(2, 1)
    part = equal_mass_partition(WeightSpec("hp", 1, 0.0), 2, 2, 0.9)
    with pytest.raises(ValueError):
        verify_intensities(np.zeros((1, 2), dtype=complex), finite_kernel(basis), part)
    with pytest.raises(ValueError):
        verify_intensities(np.zeros((2, 2), dtype=complex), limiting_kernel(1, 0.0), part)


def test_convergence_profile_delta0():
    rows = convergence_profile(1, 0.0, [2, 4, 8, 16])
    assert [r.n for r in rows] == [2, 4, 8, 16]
    sups = [r.sup_error for r in rows]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert rows[-1].rel_error < 1e-3
    assert rows[0].grid_size == default_convergence_grid().size


def test_convergence_profile_validation():
    with pytest.raises(ValueError):
        convergence_profile(1, 0.0, [])
    with pytest.raises(ValueError):
        convergence_profile(1, 0.0, [0, 4])
    with pytest.raises(ValueError):
        convergence_profile(1, 0.0, [2, 4], grid=np.array([1.2 + 0j]))


def test_default_grid_inside_disc():
    grid = default_convergence_grid()
    assert grid.size == 8
    assert np.all(np.abs(grid) <= 0.6 + 1e-12)
    assert len(set(np.round(grid, 12))) == 8


def test_gauge_identity_random_tuples():
    rng = RngStream(23)
    for m, delta in ((1, 0.0), (2, complex(1.0, 2.0)), (3, complex(-0.3, 0.7)), (1, 1.0)):
        for _ in range(5):
            p = 2 + int(rng.random() * 5)
            pts = 0.95 * np.sqrt(rng.random(p)) * np.exp(2j * np.pi * rng.random(p))
            assert gauge_identity_check(pts, m, delta) <= 1e-10, (m, delta)


# A CLI gauge tuple of 12 points whose Cauchy matrix [1 / (1 - z_i conj(z_j))]
# has condition number 3.6e13: float64 LU reaches 5.9e-4 on its determinant.
_HARD_TUPLE = _gauge_tuple(RngStream(14710).substream(12), 12)


def test_gauge_identity_on_an_ill_conditioned_tuple():
    # the check compares entries and forms no determinant, so that condition
    # number never enters; it reads 5.6e-16 here
    assert gauge_identity_check(_HARD_TUPLE, 1, 0.0) <= 1e-13


def test_gauge_identity_degenerate_and_validation():
    assert gauge_identity_check([0.1 + 0.1j, 0.1 + 0.1j], 1, 1.0) <= 1e-13
    with pytest.raises(ValueError):
        gauge_identity_check([], 1, 0.0)
    with pytest.raises(ValueError):
        gauge_identity_check([1.0 + 0j], 1, 0.0)
    with pytest.raises(ValueError):
        gauge_identity_check([0.1], 0, 0.0)
    with pytest.raises(ValueError):
        gauge_identity_check([0.1], 1, -0.9)


def _limit_kernel_recipe(conj_delta: bool, with_scale: bool):
    """kernel_eval with the limit kernel rebuilt from the Bergman kernel."""

    def evaluate(spec, z, w):
        if spec.kind != "limit_hp":
            return kernel_eval(spec, z, w)
        d = spec.delta
        right = (1.0 - np.conj(w)) ** (-(np.conj(d) if conj_delta else d))
        scale = spec.m / np.pi if with_scale else 1.0
        core = kernel_eval(bergman_kernel(spec.m), z, w)
        return scale * np.outer((1.0 - z) ** (-d), right) * core

    return evaluate


def _worst_gauge_gap() -> float:
    gaps = [
        gauge_identity_check(_gauge_tuple(RngStream(19000 + 10 * m).substream(i), 12), m, delta)
        for m in (1, 2)
        for delta in (1.0, 1 + 2j, -0.3 + 0.7j)
        for i in range(20)
    ]
    return float(np.max(gaps))


def test_gauge_identity_check_catches_kernel_and_weight_mutants(monkeypatch):
    monkeypatch.setattr(dpp_module, "kernel_eval", _limit_kernel_recipe(True, True))
    assert _worst_gauge_gap() <= 1e-13
    for recipe in (_limit_kernel_recipe(False, True), _limit_kernel_recipe(True, False)):
        monkeypatch.setattr(dpp_module, "kernel_eval", recipe)
        assert _worst_gauge_gap() > 1e-6
    monkeypatch.undo()

    # the angular factor of the weight with its sign flipped: exp(+2 Im c arg(1-z))
    gauge = weights_module._gauge_factor
    monkeypatch.setattr(
        weights_module, "_gauge_factor", lambda z, c, scale=1.0: gauge(z, c.conjugate(), scale)
    )
    assert _worst_gauge_gap() > 1e-6
