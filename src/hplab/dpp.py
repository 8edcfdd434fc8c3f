"""Determinantal structure: exact DPP sampling, correlation checks, limits.

This module closes the loop between the matrix-model samplers and the kernel
description of the eigenvalue process:

* :func:`sample_projection_dpp` draws exact configurations of the n-point
  determinantal process directly from its projection kernel, with no matrices
  involved, via the sequential conditional-density algorithm; its proposals
  are exact draws of a gauge-shifted disc weight under a proven bound, checked
  once per batch.  A residual vector over the batch loses one rank-one term
  per kept point, and each new direction is orthonormalised by two classical
  Gram-Schmidt passes (CGS2).
* :func:`verify_intensities` compares empirical cell counts (and pair
  counts) of any ensemble against the exact first and second factorial
  moments of a finite kernel, both read from one per-cell moment tensor
  M_A = int_A f f^H w dA built from a single quadrature rule.
* :func:`convergence_profile` measures the distance from the finite-n kernel
  to its scaling limit on a fixed grid.
* :func:`gauge_identity_check` verifies, entry by entry in float64, that the
  weighted limit kernel is a unimodular diagonal conjugation of the weighted
  Bergman kernel, so both give identical determinantal correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .errors import NumericalError, check_params
from .rng import RngStream
from .orthopoly import (
    KernelSpec,
    PolynomialBasis,
    bergman_kernel,
    finite_kernel,
    kernel_eval,
    limiting_kernel,
    orthonormal_basis,
    reference_weight,
)
from .weights import WeightSpec, _gauge_factor, _propose_batch, _weight_mass, weight_eval

__all__ = [
    "CellPartition",
    "CorrelationReport",
    "ConvergenceRow",
    "equal_mass_partition",
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
    if not 0 < mass[-1] < np.inf:
        raise NumericalError(
            f"weight mass {mass[-1]} on the requested disc is not finite and positive"
        )
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


def _cell_rules(partition: CellPartition, weight: WeightSpec):
    """Per-cell 24 x 24 tensor Gauss-Legendre rules against the reference weight.

    Returns points and weights, both of shape ``(n_cells, 576)``.
    """
    xg, wg = np.polynomial.legendre.leggauss(24)
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


def _cell_moments(basis: PolynomialBasis, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Moment matrices M_A = int_A f f^H w dA, shape ``(regions, n, n)``.

    ``(z, u)`` is a quadrature rule per region, both of shape
    ``(regions, points)``, with the weight folded into ``u``; f is the
    vector of basis polynomials.  Then E[N_A] = tr M_A.
    """
    f = basis.evaluate(z).transpose(1, 0, 2)  # (regions, n, points)
    return (f * u[:, None, :]) @ f.conj().transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# statistical comparison of an ensemble against a kernel


def bonferroni_threshold(level: float, n_tests: int) -> float:
    """Two-sided z threshold after Bonferroni correction over ``n_tests``."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    if n_tests < 1:
        raise ValueError("n_tests must be >= 1")
    return float(sp.ndtri(1.0 - level / (2.0 * n_tests)))


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
    both moments come from the per-cell moment M_A = int_A f f^H w dA of
    :func:`_cell_moments`, on the one rule of :func:`_cell_rules`: the cell
    mean is mu_A = tr M_A, and the |K|^2 term is
    R_AB = Re sum_kl M_A[k, l] conj(M_B[k, l]), so one product gives every
    pair, E[N_A N_B] = mu_A mu_B - R_AB.  Each
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

    moments = _cell_moments(kernel.basis, *_cell_rules(partition, reference_weight(kernel)))
    mu = np.real(np.trace(moments, axis1=1, axis2=2))
    cell_mean = counts.mean(axis=0)
    cell_se = counts.std(axis=0, ddof=1) / math.sqrt(s)
    cell_z = _safe_z(cell_mean, mu, cell_se, s)

    if include_pairs:
        flat = moments.reshape(partition.n_cells, -1)
        a, b = np.triu_indices(partition.n_cells, 1)
        correction = np.real(flat @ flat.conj().T)[a, b]
        pair_expected = mu[a] * mu[b] - correction
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


_PROPOSAL_BATCH = 64


def _gauge_sups(basis: PolynomialBasis, shifts) -> list[float]:
    """Proven bounds on sup over the disc of K(z, z) |(1-z)^c|^2, one per c.

    Each c needs Re c >= 0.  Then every P_k(z) (1-z)^c is analytic and
    bounded, so the sum of their squared moduli is subharmonic and its
    supremum over the disc is reached on the circle z = e^(i theta), where
    it is T(theta) E(theta) with

        T = K(z, z),  E = (2 sin(theta/2))^(2 Re c) e^(-Im c (theta - pi)).

    T is a nonnegative trigonometric polynomial of degree n - 1, evaluated
    on N + 1 = max(4096, 8 n^2) + 1 points theta_j = 2 pi j / N.  On a cell
    [theta_j, theta_j+1], linear interpolation and Bernstein's inequality
    |T''| <= (n-1)^2 max T give T <= max(T_j, T_j+1) + s max T with
    s = (pi (n-1) / N)^2 / 2, and max T <= grid max / (1 - s).  E is
    log-concave with its peak at 2 atan2(Re c, Im c), so on a cell it is
    largest at the peak if the cell holds it and at an end otherwise.  The
    bound is the largest cell product.
    """
    count = max(4096, 8 * basis.n**2)
    theta = 2.0 * math.pi * np.arange(count + 1) / count
    t = np.sum(np.abs(basis.evaluate(np.exp(1j * theta))) ** 2, axis=0)
    s = 0.5 * (math.pi * (basis.n - 1) / count) ** 2
    cell_t = np.maximum(t[:-1], t[1:]) + s * np.max(t) / (1.0 - s)

    sups = []
    for c in shifts:
        c = complex(c)
        peak = 2.0 * math.atan2(c.real, c.imag)
        x = np.append(theta, peak)
        e = (2.0 * np.sin(0.5 * x)) ** (2.0 * c.real) * np.exp(-c.imag * (x - math.pi))
        cell_e = np.maximum(e[:-2], e[1:-1])
        # the cells on either side of the peak's computed cell take the global
        # maximum too, so rounding in that index cannot lose the peak
        j = min(int(peak / (2.0 * math.pi / count)), count - 1)
        cell_e[max(j - 1, 0):j + 2] = e[-1]
        sups.append(float(np.max(cell_t * cell_e)))
    return sups


def _sampler_plan(basis: PolynomialBasis):
    """(delta', k_sup) of the conditional sampler for ``basis``.

    Proposals come from the weight w_delta' with delta' one of
    {delta, min(Re delta, 0)}, and the acceptance carries the gauge factor
    |(1-z)^c|^2 = w_delta / w_delta', c = delta - delta', which flattens
    K(z, z) near z = 1.  k_sup is the proven bound of :func:`_gauge_sups`
    on K(z, z) |(1-z)^c|^2.  Up to the f/h thinning rate, the expected
    number of proposals per point is proportional to k_sup times the
    proposal weight's mass, and the candidate with the smaller product
    wins: neither is best for every basis.  A k_sup that is not finite and
    positive, as from a NaN, infinite or all-zero coefficient matrix, would
    reject every proposal forever, so it raises :class:`NumericalError`.
    """
    delta = basis.delta
    candidates = [delta, complex(min(delta.real, 0.0))]
    # a NaN, infinite or zero basis meets inf * 0 here; the check below refuses it
    with np.errstate(invalid="ignore", over="ignore"):
        sups = _gauge_sups(basis, [delta - d for d in candidates])
    costs = [k * _weight_mass(basis.m, d) for k, d in zip(sups, candidates)]
    best = int(np.argmin(costs))
    if not 0.0 < sups[best] < math.inf:
        raise NumericalError(f"DPP sampler bound k_sup = {sups[best]} is not finite and positive")
    return candidates[best], sups[best]


def sample_projection_dpp(
    basis: PolynomialBasis,
    rng: RngStream,
    *,
    return_proposals: bool = False,
):
    """One exact draw of the n-point projection DPP for ``basis``.

    Sequential conditional sampling (Hough, Krishnapur, Peres and Virag): the
    i-th point is drawn from the conditional density
    (K(z,z) - sum_l |psi_l(z)|^2) w_delta(z) given the previous points, by
    rejection from exact draws of the weight w_delta' that
    :func:`_sampler_plan` chose, made by :mod:`hplab.weights`.  A proposal
    is kept with probability

        (K(z,z) - sum_l |psi_l(z)|^2) |(1-z)^c|^2 / k_sup * f(phi) / h(phi),

    with c = delta - delta' and k_sup the plan's proven bound; the weights'
    normalisers never enter.  Conditioning only lowers the ratio, so the
    bound is checked once per batch, on the unconditioned ratio with
    K(z,z) alone; a ratio above 1 + 1e-9 means the bound failed and raises
    :class:`NumericalError`.

    One stream of proposals serves the whole configuration: after point i
    keeps proposal j, point i + 1 starts at proposal j + 1, and a new batch
    is drawn only when the current one is used up.  The index of the first
    kept proposal is a stopping time of an i.i.d. stream, so the proposals
    after it are fresh draws.  ``return_proposals`` also returns the number
    of proposals examined.

    Per batch the basis is evaluated once, and the residual vector
    K(z,z) - sum_l |psi_l(z)|^2 is kept over the batch.  Keeping a point
    orthonormalises its direction conj(P_k(z_i)) against the earlier ones
    by two classical Gram-Schmidt passes (CGS2) and subtracts its rank-one
    term from the residuals still ahead.  A configuration drops the rest of
    its last batch, about 100 proposals drawn for 70 examined at (6, 1, 1);
    carrying that batch on to the next call needs a counters object that
    outlives one call.
    """
    n = basis.n
    if basis.sampler_plan is None:
        object.__setattr__(basis, "sampler_plan", _sampler_plan(basis))
    delta_p, k_sup = basis.sampler_plan
    c = basis.delta - delta_p

    points = np.empty(n, dtype=np.complex128)
    feats = np.empty((n, n), dtype=np.complex128)
    proposals = 0
    pos = _PROPOSAL_BATCH
    for i in range(n):
        while True:
            if pos == _PROPOSAL_BATCH:
                z, thin, u = _propose_batch(basis.m, delta_p, _PROPOSAL_BATCH, rng)
                scale = thin / k_sup * _gauge_factor(z, c)
                scale[np.abs(z) >= 1.0] = 0.0
                vals = basis.evaluate(z)
                resid = np.sum(np.abs(vals) ** 2, axis=0)
                ratio = resid * scale
                if ratio.max() > 1.0 + 1e-9:
                    raise NumericalError(
                        f"DPP acceptance ratio {ratio.max():.6g} exceeds 1: the kernel "
                        f"bound {k_sup:.6g} does not hold"
                    )
                if i:
                    resid -= np.sum(np.abs(feats[:i] @ vals) ** 2, axis=0)
                pos = 0
            # u >= 0, so a residual rounded below zero is never kept
            kept = u[pos:] < resid[pos:] * scale[pos:]
            hit = int(kept.argmax())
            if kept[hit]:
                proposals += hit + 1
                idx = pos + hit
                pos = idx + 1
                break
            proposals += _PROPOSAL_BATCH - pos
            pos = _PROPOSAL_BATCH
        points[i] = z[idx]
        # Gram-Schmidt step in coefficient space: the new conditional
        # direction is direction[k] = conj(P_k(z_i)), made orthogonal to the
        # earlier ones by two classical passes (CGS2)
        direction = vals[:, idx].conj()
        if i:
            done = feats[:i]
            done_conj = done.conj()
            direction -= done.T @ (done_conj @ direction)
            direction -= done.T @ (done_conj @ direction)
        nrm2 = np.vdot(direction, direction).real
        if nrm2 <= 1e-14 * max(k_sup, 1.0):
            raise NumericalError("degenerate conditional in DPP sampler")
        feats[i] = direction / math.sqrt(nrm2)
        resid[pos:] -= np.abs(feats[i] @ vals[:, pos:]) ** 2
    if return_proposals:
        return points, proposals
    return points


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


def convergence_profile(m: int, delta: complex, n_list) -> list[ConvergenceRow]:
    """Sup distance between the n-point kernel and its limit on the points of
    :func:`default_convergence_grid`.

    All finite kernels reuse one orthonormal basis at max(n_list), so a
    profile over many n costs a single Gram factorization.
    """
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise ValueError("n_list must contain positive integers")
    grid = default_convergence_grid()
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


def gauge_identity_check(points, m: int, delta: complex) -> float:
    """Gap between the two kernel descriptions of the limit process.

    For points z_1..z_p in the open disc, forms the weighted kernel matrices

        A = W_hp K_lim W_hp   and   B = W_b K_bergman W_b,

    with W = diag(sqrt(w(z_i))) for each kernel's reference weight, from
    :func:`kernel_eval` and :func:`weight_eval`.  The limit kernel is the
    Bergman kernel conjugated by D = diag((1-z_i)^(-delta)), and the weight
    ratio |(1-z)^delta|^2 cancels |D|, so A = Phi B Phi^H with Phi diagonal
    and unimodular.  Then every principal minor, hence every correlation
    function, agrees.  With R = A / B entrywise and phi = R[:, 0], returns
    the largest of |R - phi phi^H| and |diag R - 1|; the exact answer is 0.
    Each entry of R is a ratio of float64 values, so no condition number
    enters, and a NaN anywhere is returned as NaN.
    """
    delta = check_params(m, delta)
    z = np.asarray(points, dtype=np.complex128).ravel()
    if not z.size:
        raise ValueError("need at least one point")
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("points must lie in the open unit disc")

    weighted = []
    for kernel in (limiting_kernel(m, delta), bergman_kernel(m)):
        root = np.sqrt(weight_eval(reference_weight(kernel), z))
        weighted.append(root[:, None] * kernel_eval(kernel, z, z) * root)
    r = weighted[0] / weighted[1]
    phi = r[:, 0]
    off = np.abs(r - np.outer(phi, phi.conj()))
    return float(np.max(np.concatenate([off.ravel(), np.abs(np.diag(r) - 1.0)])))
