"""Output checks for the benchmark's jobs.

Each check returns a list of problems (empty when the output is correct) and
compares against an independent construction, never against a stored copy of
earlier output:

* matrix-route ensembles against the kernel route (the ``verify-dpp`` gate);
* DPP configurations against the kernel's first and second intensities;
* bases against the quadrature inner product of ``disc_weight_nodes`` and,
  at delta = 0, the closed-form basis;
* convergence profiles against the closed-form limit kernel, by the
  criterion-5 rule;
* gauge reports against the exact value 0.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from hplab import dpp, orthopoly, weights

ORTHONORMALITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
GAUGE_TOL = 1e-10
# Recomputed sup errors agree with the reported ones to rounding; this only
# absorbs the 17-digit CSV round trip and summation order.
SUP_ERROR_RTOL = 1e-8


def config_problems(configs: np.ndarray, n: int) -> list[str]:
    """Every configuration holds exactly ``n`` distinct finite points in the open disc."""
    configs = np.asarray(configs)
    if configs.ndim != 2 or configs.shape[1] != n or configs.shape[0] < 1:
        return [f"expected configurations of shape (S, {n}), got {configs.shape}"]
    problems = []
    if not np.all(np.isfinite(configs)):
        problems.append("non-finite point")
    elif np.any(np.abs(configs) >= 1.0):
        problems.append(f"{int(np.sum(np.abs(configs) >= 1.0))} points outside the open disc")
    srt = np.sort(configs, axis=1)
    dup = int(np.sum(np.any(srt[:, 1:] == srt[:, :-1], axis=1)))
    if dup:
        problems.append(f"{dup} configurations with a repeated point")
    return problems


def intensity_problems(configs, basis, rings=4, sectors=6, r_max=0.95, level=1e-3) -> list[str]:
    """Cell and pair counts agree with the kernel's intensities at the Bonferroni threshold."""
    partition = dpp.equal_mass_partition(
        weights.WeightSpec("hp", basis.m, basis.delta), rings, sectors, r_max
    )
    report = dpp.verify_intensities(
        configs, orthopoly.finite_kernel(basis), partition, level=level, include_pairs=True
    )
    if report.passed:
        return []
    return [f"max |z| {report.max_abs_z:.3f} exceeds the Bonferroni threshold "
            f"{report.threshold:.3f}"]


def evaluate_polys(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``P_k(z)`` from a coefficient matrix (row i = coefficients of z^i), shape (n, len(z))."""
    n = coeffs.shape[0]
    powers = np.empty((n, z.size), dtype=np.complex128)
    powers[0] = 1.0
    for i in range(1, n):
        powers[i] = powers[i - 1] * z
    return coeffs.T @ powers


def quadrature_residual(coeffs: np.ndarray, m: int, delta: complex) -> float:
    """Max deviation from the identity of the quadrature Gram matrix of the basis."""
    z, w = weights.disc_weight_nodes(m, delta)
    p = evaluate_polys(np.asarray(coeffs, dtype=np.complex128), z)
    g = (p * w) @ p.conj().T
    return float(np.max(np.abs(g - np.eye(coeffs.shape[0]))))


def basis_problems(coeffs: np.ndarray, m: int, delta: complex) -> list[str]:
    """Orthonormal in the quadrature inner product; equal to the closed form at delta = 0."""
    problems = []
    resid = quadrature_residual(coeffs, m, delta)
    if not resid <= ORTHONORMALITY_TOL:
        problems.append(f"quadrature orthonormality residual {resid:.3e} > {ORTHONORMALITY_TOL}")
    if delta == 0:
        closed = orthopoly.closed_form_basis_delta0(coeffs.shape[0], m).coeffs
        gap = float(np.max(np.abs(coeffs - closed)) / np.max(np.abs(closed)))
        if not gap <= CLOSED_FORM_TOL:
            problems.append(f"relative distance {gap:.3e} to the closed-form delta = 0 basis")
    return problems


def read_basis_csv(path) -> tuple[np.ndarray, int, complex]:
    """Coefficient matrix, m and delta from a ``basis.csv`` written by the ``basis`` command."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head = rows[0]
    n, m = int(head[1]), int(head[3])
    delta = complex(float(head[5]), float(head[7]))
    vals = np.array([[float(v) for v in row[1:]] for row in rows[2:]])
    if vals.shape != (n, 2 * n):
        raise ValueError(f"basis.csv holds {vals.shape}, expected ({n}, {2 * n})")
    return vals[:, 0::2] + 1j * vals[:, 1::2], m, delta


def limit_kernel_closed_form(z, w, m: int, delta: complex) -> np.ndarray:
    """(m/pi) (1-z)^(-delta) (1-w*)^(-delta*) (1 - z w*)^(-(m+1)) on the grid z x w."""
    zz = np.asarray(z)[:, None]
    wc = np.conj(np.asarray(w))[None, :]
    return (m / math.pi) * (1 - zz) ** (-delta) * (1 - wc) ** (-np.conj(delta)) * (
        1 - zz * wc
    ) ** (-(m + 1.0))


def profile_problems(ns, sup_errors, m: int, delta: complex) -> list[str]:
    """Recompute the profile against the closed-form limit and apply the criterion-5 rule.

    The rule: the sup error decreases strictly over n; at delta = 0 the relative
    error at the last n (>= 40) is at most 1e-3 (geometric convergence); at
    delta != 0 the observed order over the last two n is at least m (the rate is
    of order n^-(m+1)).
    """
    grid = dpp.default_convergence_grid()
    k_lim = limit_kernel_closed_form(grid, grid, m, delta)
    scale = float(np.max(np.abs(k_lim)))
    coeffs = orthopoly.orthonormal_basis(max(ns), m, delta).coeffs
    problems = []
    mine = []
    for n, reported in zip(ns, sup_errors):
        p = evaluate_polys(coeffs[:n, :n], grid)
        sup = float(np.max(np.abs(p.T @ p.conj() - k_lim)))
        mine.append(sup)
        if not abs(sup - reported) <= SUP_ERROR_RTOL * sup:
            problems.append(f"n={n}: reported sup error {reported:.6e}, recomputed {sup:.6e}")
    if not all(b < a for a, b in zip(mine, mine[1:])):
        problems.append(f"profile does not decrease strictly: {mine}")
    if delta == 0:
        rel = mine[-1] / scale
        if ns[-1] >= 40 and not rel <= 1e-3:
            problems.append(f"rel@{ns[-1]} = {rel:.3e} > 1e-3 at delta = 0")
    else:
        order = math.log(mine[-2] / mine[-1]) / math.log(ns[-1] / ns[-2])
        if not order >= m:
            problems.append(f"observed order {order:.3f} < m = {m}")
    return problems


def read_profile_csv(path) -> tuple[list[int], list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [int(r["n"]) for r in rows], [float(r["sup_error"]) for r in rows]


def gauge_report_problems(report: dict, tuples: int) -> list[str]:
    rels = report.get("rel_errors", [])
    if len(rels) != tuples:
        return [f"{len(rels)} tuples reported, {tuples} expected"]
    worst = max(rels)
    if not worst <= GAUGE_TOL:
        return [f"max relative gauge error {worst:.3e} > {GAUGE_TOL}"]
    return []


def read_points_csv(path, samples: int, n: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (samples * n, 4):
        raise ValueError(f"points.csv holds {data.shape[0]} rows, expected {samples * n}")
    idx = data[:, 0].astype(np.int64) * n + data[:, 1].astype(np.int64)
    if not np.array_equal(idx, np.arange(samples * n)):
        raise ValueError("points.csv rows are not in (sample, point) order")
    return (data[:, 2] + 1j * data[:, 3]).reshape(samples, n)


def verify_dpp_problems(out_dir: Path, code: int, samples: int, n: int) -> list[str]:
    """The ``verify-dpp`` gate passed and every configuration is well formed."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text())
    if code != 0 or not report["passed"]:
        problems.append(
            f"verify-dpp gate failed: max |z| {report['max_abs_z']:.3f} against "
            f"{report['bonferroni_z']:.3f} (exit code {code})"
        )
    if report["n_samples"] != samples:
        problems.append(f"gate read {report['n_samples']} samples, {samples} drawn")
    try:
        configs = read_points_csv(out_dir / "points.csv", samples, n)
    except ValueError as exc:
        return problems + [f"points.csv: {exc}"]
    return problems + config_problems(configs, n)
