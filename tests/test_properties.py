"""Cross-cutting invariants tying the samplers, weights, and kernels together.

These run the same dual-construction comparison as the acceptance suite but
over a wider parameter grid at reduced sample sizes, plus a few structural
identities of the orthonormal family that an implementation bug would break
even when each module passes its own unit tests.
"""

import numpy as np
import scipy.stats as st

from hplab.dpp import equal_mass_partition, sample_projection_dpp
from hplab.orthopoly import leading_coefficients, orthonormal_basis
from hplab.rng import RngStream
from hplab.sampling import HPParams, MHConfig
from hplab.truncation import sample_truncation_ensemble
from hplab.weights import WeightSpec, disc_weight_nodes, moment_quadrature

SAMPLES = 500
LEVEL = 1e-3

# (n, m, delta, sampler, mh config, seed).  Thinning is sized from measured
# acceptance rates: 0.22 at dim 7 / delta=1, 0.46 at dim 5 / delta=-0.3,
# 0.02 at dim 5 / delta=1+2i (the independence chain lingers in high-weight
# states, so the last case needs far more thinning than the rate suggests).
WIDE_GRID = (
    (4, 3, 0.0, "haar", None, 6101),
    (3, 2, 0.0, "haar", None, 6102),
    (4, 3, 1.0, "hp_mh", MHConfig(2000, 40), 6103),
    (4, 1, complex(-0.3, 0.0), "hp_mh", MHConfig(2000, 40), 6104),
    (2, 3, complex(1.0, 2.0), "hp_mh", MHConfig(2000, 160), 6105),
    (1, 2, complex(1.0, 2.0), "hp_mh", MHConfig(2000, 160), 6106),
)


def _combo_pvalues(n, m, delta, sampler, mh, seed):
    """p-values comparing truncation draws against direct kernel-process draws."""
    params = HPParams(n, m, delta)
    trunc = sample_truncation_ensemble(
        params, SAMPLES, sampler, RngStream(seed), mh=mh
    )
    basis = orthonormal_basis(n, m, delta)
    dpp_rng = RngStream(seed + 50)
    dpp = np.array(
        [sample_projection_dpp(basis, dpp_rng.substream(i)) for i in range(SAMPLES)]
    )

    part = equal_mass_partition(WeightSpec("hp", m, delta), 3, 4, 0.9)
    table = np.vstack([part.counts(trunc).sum(axis=0), part.counts(dpp).sum(axis=0)])
    p_cells = st.chi2_contingency(table[:, table.sum(axis=0) > 0], correction=False).pvalue
    out = [("cells", p_cells)]

    rt, rd = np.abs(trunc), np.abs(dpp)
    out.append(("radial moment", st.ks_2samp((rt**2).sum(axis=1), (rd**2).sum(axis=1)).pvalue))
    if n > 1:
        out.append(("max modulus", st.ks_2samp(rt.max(axis=1), rd.max(axis=1)).pvalue))
        out.append(("min modulus", st.ks_2samp(rt.min(axis=1), rd.min(axis=1)).pvalue))
    return out


def test_truncation_matches_kernel_process_wide_grid():
    results = []
    for n, m, delta, sampler, mh, seed in WIDE_GRID:
        for label, p in _combo_pvalues(n, m, delta, sampler, mh, seed):
            results.append((f"(n={n},m={m},delta={delta}) {label}", p))
    thresh = LEVEL / len(results)
    failing = [(tag, p) for tag, p in results if p < thresh]
    assert not failing, f"distribution mismatch at alpha={LEVEL}: {failing}"


def test_orthonormality_against_quadrature_gram():
    """The series-built basis must be orthonormal under the quadrature moments."""
    n, m, delta = 4, 2, complex(1.0, 2.0)
    basis = orthonormal_basis(n, m, delta)
    g = np.array(
        [[moment_quadrature(j, k, m, delta) for k in range(n)] for j in range(n)]
    )
    resid = basis.coeffs.T @ g @ basis.coeffs.conj() - np.eye(n)
    assert np.max(np.abs(resid)) < 1e-7


def test_projection_kernel_determinant_identity_n10():
    """det K over any point set factors through leading coefficients and spacings."""
    n, m, delta = 10, 2, complex(-0.3, 0.7)
    basis = orthonormal_basis(n, m, delta)
    rng = RngStream(424242)
    pts = np.empty(0, dtype=np.complex128)
    while True:
        z = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        sep = np.abs(z[:, None] - z[None, :]) + np.eye(n)
        if sep.min() > 0.05:
            pts = z
            break
    a = basis.evaluate(pts).T  # (points, basis)
    det_k = abs(np.linalg.det(a)) ** 2
    lc = leading_coefficients(basis)
    iu = np.triu_indices(n, 1)
    rhs = np.prod(lc**2) * np.prod(
        np.abs(pts[:, None] - pts[None, :])[iu] ** 2
    )
    assert abs(det_k - rhs) <= 1e-8 * rhs
    assert pts.size == n


def test_finite_kernel_reproduces_low_monomials():
    """Integrating the kernel against z^q over the weighted disc returns z^q."""
    n, m, delta = 5, 2, complex(1.0, 2.0)
    basis = orthonormal_basis(n, m, delta)
    nodes, w = disc_weight_nodes(m, delta, 96, 512)
    feats = basis.evaluate(nodes)  # (n, nodes)
    for z0 in (0.3 + 0.4j, -0.7 + 0.2j, 0.05 - 0.76j, 0.8 + 0.0j):
        fz = basis.evaluate(np.array([z0]))[:, 0]
        kern_row = fz @ feats.conj()
        for q in range(n):
            lhs = np.sum(kern_row * nodes**q * w)
            assert abs(lhs - z0**q) < 1e-7
