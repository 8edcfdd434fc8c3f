"""Determinantal structure: exact DPP sampling, correlation checks, limits.

This module closes the loop between the matrix-model samplers and the kernel
description of the eigenvalue process:

* :func:`sample_projection_dpp` draws exact configurations of the n-point
  determinantal process directly from its projection kernel, with no matrices
  involved, via the sequential conditional-density algorithm.
* :func:`verify_intensities` compares empirical cell counts (and pair
  counts) of any ensemble against the exact first and second factorial
  moments computed from a kernel by quadrature.
* :func:`convergence_profile` measures the distance from the finite-n kernel
  to its scaling limit on a fixed grid.
* :func:`gauge_identity_check` verifies in extended precision that the limit
  kernel and the weighted Bergman kernel give identical determinantal
  correlations (they differ by a conjugation that cancels against the
  reference weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy import stats as st

from .errors import NumericalError, check_params
from .rng import RngStream
from .orthopoly import (
    KernelSpec,
    PolynomialBasis,
    finite_kernel,
    kernel_eval,
    limiting_kernel,
    reference_weight,
)
from .weights import WeightSpec, weight_eval

__all__ = [
    "CellPartition",
    "CorrelationReport",
    "ConvergenceRow",
    "equal_mass_partition",
    "expected_cell_counts",
    "verify_intensities",
    "sample_projection_dpp",
    "convergence_profile",
    "gauge_identity_check",
    "bonferroni_threshold",
]


# ---------------------------------------------------------------------------
# cell partitions


@dataclass(frozen=True, eq=False)
class CellPartition:
    """Annular-sector partition of the disc {|z| <= r_max}.

    ``r_edges`` has ``rings + 1`` increasing entries starting at 0;
    ``theta_edges[g]`` has ``sectors + 1`` increasing entries spanning
    [0, 2 pi] for ring g.  Cell (g, s) is indexed ``g * sectors + s``.
    """

    r_edges: np.ndarray = field(repr=False)
    theta_edges: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.r_edges, dtype=float)
        t = np.asarray(self.theta_edges, dtype=float)
        if r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0) or r[0] != 0:
            raise ValueError("r_edges must increase from 0")
        if t.ndim != 2 or t.shape[0] != r.size - 1 or t.shape[1] < 2:
            raise ValueError("theta_edges must have one row per ring")
        if np.any(np.diff(t, axis=1) <= 0):
            raise ValueError("theta_edges rows must be increasing")
        object.__setattr__(self, "r_edges", r)
        object.__setattr__(self, "theta_edges", t)

    @property
    def rings(self) -> int:
        return self.r_edges.size - 1

    @property
    def sectors(self) -> int:
        return self.theta_edges.shape[1] - 1

    @property
    def n_cells(self) -> int:
        return self.rings * self.sectors

    @property
    def r_max(self) -> float:
        return float(self.r_edges[-1])

    def cell_of(self, points) -> np.ndarray:
        """Cell index of each point; -1 for points outside {|z| < r_max}."""
        z = np.asarray(points, dtype=np.complex128).ravel()
        r = np.abs(z)
        theta = np.mod(np.angle(z), 2.0 * math.pi)
        ring = np.searchsorted(self.r_edges, r, side="right") - 1
        out = np.full(z.size, -1, dtype=np.int64)
        for g in range(self.rings):
            sel = ring == g
            if not np.any(sel):
                continue
            sec = np.searchsorted(self.theta_edges[g], theta[sel], side="right") - 1
            sec = np.clip(sec, 0, self.sectors - 1)
            out[sel] = g * self.sectors + sec
        return out.reshape(np.shape(points))

    def counts(self, configs: np.ndarray) -> np.ndarray:
        """Per-sample cell occupation counts, shape (samples, n_cells)."""
        configs = np.asarray(configs, dtype=np.complex128)
        if configs.ndim != 2:
            raise ValueError("expected an array of configurations, shape (samples, n)")
        s, n = configs.shape
        cells = self.cell_of(configs)
        counts = np.zeros((s, self.n_cells), dtype=np.int64)
        rows = np.repeat(np.arange(s), n)
        flat = cells.ravel()
        keep = flat >= 0
        np.add.at(counts, (rows[keep], flat[keep]), 1)
        return counts

    def cell_bounds(self, idx: int) -> tuple[float, float, float, float]:
        """(r_lo, r_hi, theta_lo, theta_hi) of cell ``idx``."""
        g, s = divmod(int(idx), self.sectors)
        return (
            float(self.r_edges[g]),
            float(self.r_edges[g + 1]),
            float(self.theta_edges[g, s]),
            float(self.theta_edges[g, s + 1]),
        )


def _equal_mass_edges(x: np.ndarray, density: np.ndarray, k: int) -> np.ndarray:
    """``k + 1`` points of grid ``x`` that split the mass of ``density`` evenly.

    The mass is the cumulative trapezoid rule on ``x``; the end points are
    ``x[0]`` and ``x[-1]`` exactly.
    """
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(x))])
    if mass[-1] <= 0:
        raise NumericalError("weight mass vanished on the requested disc")
    edges = np.interp(mass[-1] * np.arange(k + 1) / k, mass, x)
    edges[0], edges[-1] = x[0], x[-1]
    return edges


def equal_mass_partition(
    weight: WeightSpec, rings: int, sectors: int, r_max: float
) -> CellPartition:
    """Partition of {|z| <= r_max} into cells of equal weight mass.

    Ring edges split the radial mass evenly; within each ring, sector edges
    split that ring's mass evenly starting from angle 0.  For a rotation
    invariant weight this reduces to equal angles.
    """
    if rings < 1 or sectors < 1:
        raise ValueError("rings and sectors must be >= 1")
    if not 0 < r_max < 1:
        raise ValueError("r_max must lie in (0, 1)")

    # radial mass density rho(r) = r * int w(r e^{i t}) dt (periodic rectangle rule)
    n_t = 512
    rr = np.linspace(0.0, r_max, 513)
    tt = np.linspace(0.0, 2.0 * math.pi, n_t, endpoint=False)
    wv = weight_eval(weight, rr[:, None] * np.exp(1j * tt))
    r_edges = _equal_mass_edges(rr, rr * wv.sum(axis=1) * (2.0 * math.pi / n_t), rings)

    # angular mass density of each ring, by 32-point Gauss-Legendre in r
    xg, wg = np.polynomial.legendre.leggauss(32)
    half = 0.5 * np.diff(r_edges)[:, None]
    r_nodes = half * xg + 0.5 * (r_edges[1:] + r_edges[:-1])[:, None]
    t_grid = np.linspace(0.0, 2.0 * math.pi, 1025)
    wvals = weight_eval(weight, r_nodes[:, :, None] * np.exp(1j * t_grid))
    line = half * np.sum((wg * r_nodes)[:, :, None] * wvals, axis=1)
    theta_edges = np.array([_equal_mass_edges(t_grid, row, sectors) for row in line])
    return CellPartition(r_edges, theta_edges)


# ---------------------------------------------------------------------------
# exact moments by quadrature


def _cell_rules(partition: CellPartition, weight: WeightSpec, nodes: int):
    """Per-cell tensor Gauss-Legendre rules against the reference weight.

    Returns points and weights, both of shape ``(n_cells, nodes**2)``.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    ring = np.repeat(np.arange(partition.rings), partition.sectors)
    r_lo, r_hi = partition.r_edges[ring, None], partition.r_edges[ring + 1, None]
    t_lo = partition.theta_edges[:, :-1].reshape(-1, 1)
    t_hi = partition.theta_edges[:, 1:].reshape(-1, 1)
    r = 0.5 * (r_hi - r_lo) * xg + 0.5 * (r_hi + r_lo)
    t = 0.5 * (t_hi - t_lo) * xg + 0.5 * (t_hi + t_lo)
    ur = 0.5 * (r_hi - r_lo) * wg * r
    ut = 0.5 * (t_hi - t_lo) * wg
    z = (r[:, :, None] * np.exp(1j * t)[:, None, :]).reshape(partition.n_cells, -1)
    u = (ur[:, :, None] * ut[:, None, :]).reshape(partition.n_cells, -1)
    return z, u * weight_eval(weight, z)


def expected_cell_counts(
    kernel: KernelSpec, partition: CellPartition, nodes: int = 24
) -> np.ndarray:
    """Exact expected occupation number ``int_cell K(z, z) w(z) dA`` per cell."""
    z, u = _cell_rules(partition, reference_weight(kernel), nodes)
    return np.sum(u * _kernel_diag(kernel, z), axis=1)


def _kernel_diag(kernel: KernelSpec, z: np.ndarray) -> np.ndarray:
    """K(z, z) elementwise (real for Hermitian kernels)."""
    if kernel.kind == "finite":
        v = kernel.basis.evaluate(z)
        return np.sum(np.abs(v) ** 2, axis=0)
    zz = np.asarray(z, dtype=np.complex128)
    core = np.abs(1.0 - np.abs(zz) ** 2) ** (-(kernel.m + 1.0))
    if kernel.kind == "bergman":
        return core
    one_minus = 1.0 - zz
    a, b = kernel.delta.real, kernel.delta.imag
    gauge = np.abs(one_minus) ** (-2.0 * a) * np.exp(2.0 * b * np.angle(one_minus))
    return (kernel.m / math.pi) * gauge * core


# ---------------------------------------------------------------------------
# statistical comparison of an ensemble against a kernel


def bonferroni_threshold(level: float, n_tests: int) -> float:
    """Two-sided z threshold after Bonferroni correction over ``n_tests``."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    if n_tests < 1:
        raise ValueError("n_tests must be >= 1")
    return float(st.norm.ppf(1.0 - level / (2.0 * n_tests)))


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Result of comparing sampled cell counts with exact kernel moments."""

    level: float
    n_samples: int
    threshold: float
    cell_expected: np.ndarray
    cell_mean: np.ndarray
    cell_se: np.ndarray
    cell_z: np.ndarray
    pair_index: np.ndarray
    pair_expected: np.ndarray
    pair_mean: np.ndarray
    pair_se: np.ndarray
    pair_z: np.ndarray
    partition: CellPartition

    @property
    def n_tests(self) -> int:
        return self.cell_z.size + self.pair_z.size

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(np.concatenate([self.cell_z, self.pair_z])), initial=0.0))

    @property
    def passed(self) -> bool:
        return bool(self.max_abs_z <= self.threshold)

    def to_dict(self) -> dict:
        cells = []
        for idx in range(self.cell_z.size):
            r_lo, r_hi, t_lo, t_hi = self.partition.cell_bounds(idx)
            cells.append(
                {
                    "cell": idx,
                    "r_lo": r_lo,
                    "r_hi": r_hi,
                    "theta_lo": t_lo,
                    "theta_hi": t_hi,
                    "expected": float(self.cell_expected[idx]),
                    "mean": float(self.cell_mean[idx]),
                    "se": float(self.cell_se[idx]),
                    "z": float(self.cell_z[idx]),
                }
            )
        pairs = [
            {
                "cell_a": int(a),
                "cell_b": int(b),
                "expected": float(e),
                "mean": float(mn),
                "se": float(se),
                "z": float(zz),
            }
            for (a, b), e, mn, se, zz in zip(
                self.pair_index, self.pair_expected, self.pair_mean, self.pair_se, self.pair_z
            )
        ]
        return {
            "level": self.level,
            "n_samples": self.n_samples,
            "n_tests": self.n_tests,
            "bonferroni_z": self.threshold,
            "max_abs_z": self.max_abs_z,
            "passed": self.passed,
            "cells": cells,
            "pairs": pairs,
        }


def _safe_z(mean, expected, se, n_samples):
    """z-scores with the empirical standard error floored at the Poisson scale.

    Counts of a determinantal process are sums of negatively associated
    indicators, so their variance never exceeds their mean; sqrt(expected / S)
    is therefore a valid upper bound on the standard error.  Flooring with it
    keeps the test level while avoiding the blow-up of the empirical estimate
    when only a handful of events were observed.  A zero standard error gives
    z = 0 where mean and expectation agree to 1e-12 and +inf elsewhere.
    """
    se = np.maximum(se, np.sqrt(np.maximum(expected, 0.0) / n_samples))
    diff = mean - expected
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    return np.where(se > 0, z, np.where(np.abs(diff) < 1e-12, 0.0, np.inf))


def verify_intensities(
    configs: np.ndarray,
    kernel: KernelSpec,
    partition: CellPartition,
    level: float = 1e-3,
    include_pairs: bool = True,
) -> CorrelationReport:
    """Compare an ensemble's cell statistics with exact kernel predictions.

    Per-cell counts are tested against the first intensity and, when
    ``include_pairs`` is set, products of counts in disjoint cell pairs
    against the second factorial moment

        E[N_A N_B] = int_A int_B (K(z,z) K(w,w) - |K(z,w)|^2) w(z) w(w) dA dA.

    For the finite kernel K(z, w) = f(z)^T conj(f(w)) of a polynomial basis f,
    the |K|^2 term equals sum_kl M_A[k, l] conj(M_B[k, l]) with the per-cell
    moment M_A = int_A f f^H w dA, so one product gives every pair.  Each
    comparison yields a z-score; all must stay below the two-sided
    Bonferroni threshold at significance ``level`` for ``passed`` to be true.
    """
    if kernel.kind != "finite":
        raise ValueError("verify_intensities needs the finite kernel of a polynomial basis")
    configs = np.asarray(configs, dtype=np.complex128)
    s = configs.shape[0]
    if s < 2:
        raise ValueError("need at least two configurations")
    counts = partition.counts(configs).astype(float)

    mu = expected_cell_counts(kernel, partition)
    cell_mean = counts.mean(axis=0)
    cell_se = counts.std(axis=0, ddof=1) / math.sqrt(s)
    cell_z = _safe_z(cell_mean, mu, cell_se, s)

    if include_pairs:
        z, u = _cell_rules(partition, reference_weight(kernel), 12)
        f = kernel.basis.evaluate(z).transpose(1, 0, 2)  # (cells, n, points)
        moments = (f * u[:, None, :]) @ f.conj().transpose(0, 2, 1)  # (cells, n, n)
        pmu = np.real(np.trace(moments, axis1=1, axis2=2))
        moments = moments.reshape(partition.n_cells, -1)
        a, b = np.triu_indices(partition.n_cells, 1)
        correction = np.real(moments @ moments.conj().T)[a, b]
        pair_expected = pmu[a] * pmu[b] - correction
        sums = (counts.T @ counts)[a, b]
        squares = (counts.T**2 @ counts**2)[a, b]
        pair_mean = sums / s
        pair_se = np.sqrt(np.maximum(squares - sums * pair_mean, 0.0) / (s - 1) / s)
        pair_index = np.stack([a, b], axis=1).astype(np.int64)
        pair_z = _safe_z(pair_mean, pair_expected, pair_se, s)
    else:
        pair_index = np.empty((0, 2), dtype=np.int64)
        pair_expected = pair_mean = pair_se = pair_z = np.empty(0)

    return CorrelationReport(
        level=level,
        n_samples=s,
        threshold=bonferroni_threshold(level, partition.n_cells + pair_z.size),
        cell_expected=mu,
        cell_mean=cell_mean,
        cell_se=cell_se,
        cell_z=cell_z,
        pair_index=pair_index,
        pair_expected=pair_expected,
        pair_mean=pair_mean,
        pair_se=pair_se,
        pair_z=pair_z,
        partition=partition,
    )


# ---------------------------------------------------------------------------
# exact sampling of the projection DPP


class _EnvelopeViolation(Exception):
    pass


def _sampler_plan(basis: PolynomialBasis, boundary_points: int):
    """Rejection envelope data for the conditional sampler.

    K(z, z) is subharmonic on the disc (sum of |analytic|^2), so its maximum
    over the closed disc is attained on the boundary; a fine boundary grid
    with a 10% safety factor bounds it.  The weight is bounded analytically:
    |1-z|^(2a) <= 2^(2a) for a >= 0, exp(-2 b arg(1-z)) <= exp(pi |b|), and
    (1-|z|^2)^(m-1) <= 1.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, boundary_points, endpoint=False)
    bnd = np.exp(1j * theta)
    vals = basis.evaluate(bnd)
    k_sup = 1.1 * float(np.max(np.sum(np.abs(vals) ** 2, axis=0)))
    a, b = basis.delta.real, basis.delta.imag
    phase_bound = math.exp(math.pi * abs(b))
    if a >= 0:
        envelope = math.pi * k_sup * 2.0 ** (2.0 * a) * phase_bound
        return ("uniform", k_sup, envelope, None)
    # Re delta < 0: the weight blows up at z = 1; mix a uniform proposal with
    # one concentrated there, with density s^(2a) / z_sing in s = |1 - z|
    # (normalized over the full s < 2 annulus sector, which contains the disc).
    z_sing = math.pi * 2.0 ** (2.0 * a + 2.0) / (a + 1.0)
    envelope = 2.0 * k_sup * phase_bound * z_sing
    return ("mixture", k_sup, envelope, z_sing)


_PROPOSAL_BATCH = 64


def _propose_batch(mode: str, z_sing, a: float, rng: RngStream):
    """Fixed-consumption proposal batch: (points, densities, accept uniforms)."""
    if mode == "uniform":
        draws = rng.random((3, _PROPOSAL_BATCH))
        r = np.sqrt(draws[1])
        z = r * np.exp(2j * math.pi * draws[2])
        q = np.full(_PROPOSAL_BATCH, 1.0 / math.pi)
        return z, q, draws[0]
    draws = rng.random((6, _PROPOSAL_BATCH))
    take_uniform = draws[1] < 0.5
    r = np.sqrt(draws[2])
    z_u = r * np.exp(2j * math.pi * draws[3])
    s = 2.0 * draws[4] ** (1.0 / (2.0 * a + 2.0))
    phi = math.pi * (2.0 * draws[5] - 1.0)
    z_s = 1.0 - s * np.exp(1j * phi)
    z = np.where(take_uniform, z_u, z_s)
    inside = np.abs(z) < 1.0
    q = np.zeros(_PROPOSAL_BATCH)
    sd = np.abs(1.0 - z[inside])
    q[inside] = 0.5 / math.pi + 0.5 * sd ** (2.0 * a) / z_sing
    return z, q, draws[0]


def sample_projection_dpp(
    basis: PolynomialBasis,
    rng: RngStream,
    *,
    return_proposals: bool = False,
):
    """One exact draw of the n-point projection DPP for ``basis``.

    Sequential conditional sampling: the i-th point is drawn from the exact
    conditional density (K(z,z) - sum_l |psi_l(z)|^2) w(z) given the previous
    points, by rejection with an analytically valid envelope.  If a proposal
    ever exceeds the envelope, the kernel bound is rebuilt on an 8x finer
    boundary grid and the configuration restarted; a second violation raises
    :class:`NumericalError`.
    """
    n = basis.n
    weight = WeightSpec("hp", basis.m, basis.delta)
    a = basis.delta.real
    if basis.sampler_plan is None:
        object.__setattr__(basis, "sampler_plan", (4096, _sampler_plan(basis, 4096)))

    for round_ in range(2):
        bnd_pts, (mode, k_sup, envelope, z_sing) = basis.sampler_plan
        try:
            points = np.empty(n, dtype=np.complex128)
            feats = np.empty((n, n), dtype=np.complex128)
            proposals = 0
            for i in range(n):
                while True:
                    z, q, u = _propose_batch(mode, z_sing, a, rng)
                    proposals += _PROPOSAL_BATCH
                    inside = np.abs(z) < 1.0
                    vals = basis.evaluate(z[inside])
                    kdiag = np.sum(np.abs(vals) ** 2, axis=0)
                    if i:
                        amp = feats[:i] @ vals
                        kdiag = kdiag - np.sum(np.abs(amp) ** 2, axis=0)
                    rho = np.zeros(_PROPOSAL_BATCH)
                    rho[inside] = np.clip(kdiag, 0.0, None) * weight_eval(weight, z[inside])
                    ratio = np.zeros(_PROPOSAL_BATCH)
                    ok = inside & (q > 0)
                    ratio[ok] = rho[ok] / (envelope * q[ok])
                    if np.any(ratio > 1.0 + 1e-9):
                        raise _EnvelopeViolation
                    hits = np.flatnonzero(u < ratio)
                    if hits.size:
                        idx = int(hits[0])
                        break
                points[i] = z[idx]
                # Gram-Schmidt step in coefficient space: the new conditional
                # direction is c[k] = conj(P_k(z_i)).
                c = np.conj(basis.evaluate(points[i]))
                for l in range(i):
                    c = c - (feats[l].conj() @ c) * feats[l]
                nrm2 = float(np.real(c.conj() @ c))
                if nrm2 <= 1e-14 * max(k_sup, 1.0):
                    raise NumericalError("degenerate conditional in DPP sampler")
                feats[i] = c / math.sqrt(nrm2)
            if return_proposals:
                return points, proposals
            return points
        except _EnvelopeViolation:
            if round_ == 1:
                raise NumericalError(
                    "DPP rejection envelope violated even after refinement; "
                    "kernel bound unreliable"
                )
            finer = bnd_pts * 8
            object.__setattr__(basis, "sampler_plan", (finer, _sampler_plan(basis, finer)))
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# kernel convergence toward the scaling limit


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    sup_error: float
    rel_error: float
    grid_size: int


def default_convergence_grid() -> np.ndarray:
    """Eight spread-out points with |z| <= 0.6, away from symmetry axes."""
    j = np.arange(8)
    return (0.6 * (j + 1) / 8) * np.exp(2j * math.pi * (j + 0.5) / 8)


def convergence_profile(
    m: int,
    delta: complex,
    n_list,
    grid: np.ndarray | None = None,
) -> list[ConvergenceRow]:
    """Sup distance between the n-point kernel and its limit on a point grid.

    All finite kernels reuse one orthonormal basis at max(n_list), so a
    profile over many n costs a single Gram factorization.
    """
    from .orthopoly import orthonormal_basis

    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise ValueError("n_list must contain positive integers")
    if grid is None:
        grid = default_convergence_grid()
    grid = np.asarray(grid, dtype=np.complex128).ravel()
    if np.any(np.abs(grid) >= 1.0):
        raise ValueError("grid points must lie in the open unit disc")
    base = orthonormal_basis(ns[-1], m, delta)
    k_lim = kernel_eval(limiting_kernel(m, delta), grid, grid)
    scale = float(np.max(np.abs(k_lim)))
    rows = []
    for n in ns:
        k_n = kernel_eval(finite_kernel(base.subbasis(n)), grid, grid)
        sup = float(np.max(np.abs(k_n - k_lim)))
        rows.append(ConvergenceRow(n, sup, sup / scale, grid.size))
    return rows


# ---------------------------------------------------------------------------
# gauge invariance of determinantal correlations


def _mp_det(rows) -> "mp.mpc":
    """Determinant of a small square list-of-lists matrix by pivoted LU.

    Same arithmetic as ``mp.det`` but without matrix-class overhead, which
    dominates at the sizes used here.
    """
    p = len(rows)
    a = [row[:] for row in rows]
    det = mp.mpc(1)
    for k in range(p):
        _, pk = max((abs(a[r][k]), r) for r in range(k, p))
        if pk != k:
            a[k], a[pk] = a[pk], a[k]
            det = -det
        akk = a[k][k]
        if akk == 0:
            return mp.mpc(0)
        det *= akk
        inv = 1 / akk
        ak = a[k]
        for r in range(k + 1, p):
            f = a[r][k] * inv
            if f:
                ar = a[r]
                for c in range(k + 1, p):
                    ar[c] -= f * ak[c]
    return det


def gauge_identity_check(points, m: int, delta: complex, dps: int = 25) -> float:
    """Relative gap between the two kernel descriptions of the limit process.

    For points z_1..z_p in the open disc, computes both

        det[K_lim(z_i, z_j)] * prod_i w_hp(z_i)      and
        det[K_bergman(z_i, z_j)] * prod_i w_bergman(z_i)

    in ``dps``-digit arithmetic and returns |lhs - rhs| / max(|lhs|, |rhs|).
    The two kernels differ by the conjugation D K D^(-1) with
    D = diag((1-z_i)^(-delta)), which leaves determinants of this product
    form invariant, so the exact answer is 0.  Tuples with repeated points
    make both sides vanish; they return 0 by convention.
    """
    delta = check_params(m, delta)
    pts = [complex(p) for p in np.asarray(points, dtype=np.complex128).ravel()]
    if not pts:
        raise ValueError("need at least one point")
    if any(abs(p) >= 1.0 for p in pts):
        raise ValueError("points must lie in the open unit disc")
    if len(set(pts)) < len(pts):
        return 0.0

    p = len(pts)
    with mp.workdps(dps):
        zs = [mp.mpc(v) for v in pts]
        conj_zs = [mp.conj(z) for z in zs]
        mm = mp.mpf(m)
        dd = mp.mpc(delta)
        gauge_left = [(1 - z) ** (-dd) for z in zs]
        gauge_right = [(1 - zc) ** (-mp.conj(dd)) for zc in conj_zs]
        scale = mm / mp.pi
        berg = [[(1 - zs[i] * conj_zs[j]) ** (-(m + 1)) for j in range(p)] for i in range(p)]
        lim = [
            [scale * gauge_left[i] * berg[i][j] * gauge_right[j] for j in range(p)]
            for i in range(p)
        ]
        det_berg = _mp_det(berg)
        det_lim = _mp_det(lim)
        w_lhs = mp.mpf(1)
        w_rhs = mp.mpf(1)
        aa, bb = mp.mpf(delta.real), mp.mpf(delta.imag)
        for z in zs:
            radial = (1 - abs(z) ** 2) ** (mm - 1)
            w_lhs *= abs(1 - z) ** (2 * aa) * mp.e ** (-2 * bb * mp.arg(1 - z)) * radial
            w_rhs *= (mm / mp.pi) * radial
        lhs = det_lim * w_lhs
        rhs = det_berg * w_rhs
        denom = max(abs(lhs), abs(rhs))
        if denom == 0:
            return 0.0
        return float(abs(lhs - rhs) / denom)
