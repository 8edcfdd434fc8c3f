import csv
import math
import re

import numpy as np
import pytest

from hplab.dpp import default_convergence_grid
from hplab.errors import NumericalError
from hplab.orthopoly import (
    PolynomialBasis,
    bergman_kernel,
    closed_form_basis_delta0,
    finite_kernel,
    kernel_eval,
    leading_coefficients,
    limiting_kernel,
    orthonormal_basis,
    reference_weight,
    write_basis_csv,
)
from hplab.weights import disc_weight_nodes, gram_matrix

DELTAS = (0.0, 1.0, complex(1.0, 2.0), complex(-0.3, 0.0), complex(-0.3, 0.7))


def _residual(basis, g):
    c = basis.coeffs
    return np.max(np.abs(c.T @ g @ np.conj(c) - np.eye(basis.n)))


def test_orthonormality_small_grid():
    for m in (1, 2, 3):
        for delta in DELTAS:
            basis = orthonormal_basis(10, m, delta)
            g = gram_matrix(10, m, delta)
            assert _residual(basis, g) < 1e-11, (m, delta)


def test_orthonormality_large_degree():
    basis = orthonormal_basis(48, 2, complex(1.0, 2.0))
    g = gram_matrix(48, 2, complex(1.0, 2.0))
    assert _residual(basis, g) < 1e-9


@pytest.mark.parametrize("m, delta", [(2, 4j), (1, 1 + 4j)])
def test_refinement_step_rescues_the_basis(m, delta):
    # the Cholesky pass alone leaves residual 1.13e-9 at (35, 2, 4i) and
    # 1.02e-9 at (27, 1, 1+4i); one refinement step brings both under 1e-9
    n = 35 if m == 2 else 27
    basis = orthonormal_basis(n, m, delta)
    assert _residual(basis, gram_matrix(n, m, delta)) <= 1e-9
    assert np.all(np.triu(basis.coeffs) == basis.coeffs)
    assert np.all(leading_coefficients(basis) > 0)


def test_refusal_names_residual_and_condition_number():
    # at (30, 1, 4i) the refined residual is still 1.68e-9
    with pytest.raises(NumericalError, match="at n=30, m=1, delta=4j") as info:
        orthonormal_basis(30, 1, 4j)
    resid, cond = (float(x) for x in re.findall(r"\d\.\d+e[+-]\d+", str(info.value)))
    assert 1e-9 < resid < 1e-8
    assert 1e8 < cond < 1e9


def test_leading_coefficients_positive():
    basis = orthonormal_basis(12, 2, complex(-0.3, 0.7))
    lead = leading_coefficients(basis)
    assert np.all(lead > 0)
    assert np.allclose(lead, np.real(np.diag(basis.coeffs)))


def test_closed_form_delta0():
    # at delta = 0: P_k(z) = sqrt((m/pi) C(m+k, k)) z^k
    for m in (1, 2, 4):
        built = orthonormal_basis(8, m, 0.0)
        exact = closed_form_basis_delta0(8, m)
        assert np.max(np.abs(built.coeffs - exact.coeffs)) < 1e-10
        lead = leading_coefficients(exact)
        for k in range(8):
            assert abs(lead[k] - math.sqrt(m / math.pi * math.comb(m + k, k))) < 1e-14


def test_first_polynomials_m1_delta1():
    # hand-derived: P_0 = sqrt(2/(3 pi)), P_1 = (z + 1/3) sqrt(3/(2 pi))
    basis = orthonormal_basis(2, 1, 1.0)
    p0 = basis.coeffs[0, 0]
    assert abs(p0 - math.sqrt(2.0 / (3.0 * math.pi))) < 1e-10
    lead1 = basis.coeffs[1, 1]
    const1 = basis.coeffs[0, 1]
    assert abs(lead1 - math.sqrt(3.0 / (2.0 * math.pi))) < 1e-10
    assert abs(const1 - lead1 / 3.0) < 1e-10


def test_evaluate_shapes_and_values():
    basis = orthonormal_basis(4, 1, 1.0)
    z = 0.3 + 0.2j
    vals = basis.evaluate(z)
    assert vals.shape == (4,)
    direct = np.array([sum(basis.coeffs[i, k] * z**i for i in range(4)) for k in range(4)])
    assert np.allclose(vals, direct, rtol=1e-13)
    grid = np.zeros((3, 2), dtype=complex)
    assert basis.evaluate(grid).shape == (4, 3, 2)


@pytest.mark.parametrize("n", [1, 6, 40])
def test_evaluate_matches_tensordot_bytes(n):
    # the DPP draws read evaluate's values, so its matmul must give the very
    # values of the tensordot it replaced
    basis = orthonormal_basis(n, 1, complex(-0.3, 0.7))
    rng = np.random.default_rng(n)
    z2 = 0.95 * np.sqrt(rng.random((5, 7))) * np.exp(2j * np.pi * rng.random((5, 7)))
    for z in (np.asarray(z2[0, 0]), z2[0], z2):
        powers = np.ones((n,) + z.shape, dtype=complex)
        for i in range(1, n):
            powers[i] = powers[i - 1] * z
        got = basis.evaluate(z)
        assert got.shape == (n,) + z.shape
        assert np.array_equal(got, np.tensordot(basis.coeffs.T, powers, axes=1))


def test_subbasis_nested():
    basis = orthonormal_basis(10, 2, complex(1.0, 2.0))
    sub = basis.subbasis(4)
    assert sub.n == 4
    assert np.array_equal(sub.coeffs, basis.coeffs[:4, :4])
    with pytest.raises(ValueError):
        basis.subbasis(0)
    with pytest.raises(ValueError):
        basis.subbasis(11)


def test_basis_shape_validation():
    with pytest.raises(ValueError):
        PolynomialBasis(3, 1, 0.0, np.eye(2))


def test_finite_kernel_matches_sum():
    basis = orthonormal_basis(5, 2, complex(-0.3, 0.7))
    spec = finite_kernel(basis)
    z, w = 0.4 - 0.1j, -0.2 + 0.5j
    pz = basis.evaluate(z)
    pw = basis.evaluate(w)
    assert abs(kernel_eval(spec, z, w) - np.sum(pz * np.conj(pw))) < 1e-13


def test_kernel_hermitian_symmetry():
    basis = orthonormal_basis(4, 1, complex(1.0, 2.0))
    specs = [finite_kernel(basis), limiting_kernel(2, complex(1.0, 2.0)), bergman_kernel(3)]
    z, w = 0.3 + 0.4j, -0.5 - 0.1j
    for spec in specs:
        assert abs(kernel_eval(spec, z, w) - np.conj(kernel_eval(spec, w, z))) < 1e-12


def test_kernel_diagonal_positive():
    z = np.array([0.0, 0.3 + 0.4j, -0.6j])
    basis = orthonormal_basis(6, 2, complex(-0.3, 0.7))
    for spec in (finite_kernel(basis), limiting_kernel(2, complex(-0.3, 0.7)), bergman_kernel(2)):
        diag = np.array([kernel_eval(spec, x, x) for x in z])
        assert np.all(np.abs(diag.imag) < 1e-12)
        assert np.all(diag.real > 0)


def test_limit_kernel_formula():
    m, delta = 2, complex(1.0, 2.0)
    spec = limiting_kernel(m, delta)
    z, w = 0.25 - 0.3j, 0.1 + 0.45j
    direct = (
        (m / math.pi)
        * (1 - z) ** (-delta)
        * (1 - z * np.conj(w)) ** (-(m + 1.0))
        * (1 - np.conj(w)) ** (-np.conj(delta))
    )
    assert abs(kernel_eval(spec, z, w) - direct) < 1e-13
    # bergman kernel is the gauge-stripped version
    berg = kernel_eval(bergman_kernel(m), z, w)
    assert abs(berg - (1 - z * np.conj(w)) ** (-(m + 1.0))) < 1e-13


def test_kernel_domain_checks():
    basis = orthonormal_basis(3, 1, 0.0)
    kernel_eval(finite_kernel(basis), 1.0 + 0j, 0.0)  # closed disc is fine
    with pytest.raises(ValueError):
        kernel_eval(finite_kernel(basis), 1.5, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(limiting_kernel(1, 0.0), 1.0 + 0j, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(bergman_kernel(1), 0.0, -1.0 + 0j)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        limiting_kernel(0, 0.0)
    with pytest.raises(ValueError):
        limiting_kernel(1, -0.8)
    with pytest.raises(ValueError):
        bergman_kernel(0)


def test_reference_weights():
    basis = orthonormal_basis(3, 2, 1.0)
    assert reference_weight(finite_kernel(basis)).kind == "hp"
    assert reference_weight(limiting_kernel(2, 1.0)).kind == "hp"
    assert reference_weight(bergman_kernel(2)).kind == "bergman"


def test_projection_determinant_identity():
    # for p = n points, det[K_n(x_i, x_j)] = prod lc_k^2 * prod_{i<j} |x_i - x_j|^2
    n, m, delta = 4, 2, complex(1.0, 2.0)
    basis = orthonormal_basis(n, m, delta)
    spec = finite_kernel(basis)
    pts = np.array([0.1 + 0.2j, -0.4 + 0.1j, 0.3 - 0.5j, -0.1 - 0.3j])
    kmat = kernel_eval(spec, pts, pts)
    det = np.linalg.det(kmat).real
    lead = leading_coefficients(basis)
    vand = np.prod(
        [abs(pts[i] - pts[j]) ** 2 for i in range(n) for j in range(i + 1, n)]
    )
    expected = np.prod(lead**2) * vand
    assert abs(det - expected) < 1e-10 * expected


def test_delta0_limit_kernel_matches_finite_kernel_at_n40():
    # at delta = 0 the finite kernel converges geometrically on |z|, |w| <= 0.6
    # (measured 3e-16 to 5e-15 at n = 40); the error is taken relative to the
    # finite kernel, so a limit kernel off by a constant factor cannot pass
    grid = default_convergence_grid()
    for m in (1, 2, 3):
        k_n = kernel_eval(finite_kernel(closed_form_basis_delta0(40, m)), grid, grid)
        k_lim = kernel_eval(limiting_kernel(m, 0.0), grid, grid)
        rel = np.max(np.abs(k_n - k_lim)) / np.max(np.abs(k_n))
        assert rel <= 1e-12, (m, rel)


def test_limit_kernel_reproducing_property():
    # int K(z, u) K(u, w) w(u) dA(u) = K(z, w) for the limit kernels
    for m, delta in ((1, complex(-0.3, 0.7)), (2, 1.0)):
        spec = limiting_kernel(m, delta)
        u, wq = disc_weight_nodes(m, delta, 96, 256)
        z, w = 0.35 - 0.2j, -0.15 + 0.3j
        lhs = np.sum(wq * kernel_eval(spec, z, u) * kernel_eval(spec, u, w))
        rhs = kernel_eval(spec, z, w)
        assert abs(lhs - rhs) < 1e-5 * abs(rhs), (m, delta)


def test_basis_csv_round_trip(tmp_path):
    basis = orthonormal_basis(5, 2, complex(-0.3, 0.7))
    path = tmp_path / "basis.csv"
    write_basis_csv(basis, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    meta = rows[0]
    assert meta[0] == "n" and int(meta[1]) == 5
    assert meta[2] == "m" and int(meta[3]) == 2
    assert float(meta[5]) == -0.3 and float(meta[7]) == 0.7
    assert rows[1][0] == "degree"
    rebuilt = np.zeros((5, 5), dtype=complex)
    for row in rows[2:]:
        i = int(row[0])
        vals = [float(x) for x in row[1:]]
        rebuilt[i] = [complex(vals[2 * k], vals[2 * k + 1]) for k in range(5)]
    assert np.max(np.abs(rebuilt - basis.coeffs)) < 1e-15


def test_basis_csv_matches_csv_writer(tmp_path):
    # the bulk writer gives the bytes of csv.writer with one formatted field per entry
    fixed = np.array([[1.0, -0.0 + 1e-300j], [0.0, 1.5e-17 - 3j]])
    cases = [
        PolynomialBasis(2, 1, 0.0, fixed),
        orthonormal_basis(1, 1, 0.0),
        orthonormal_basis(6, 2, complex(-0.3, 0.7)),
        orthonormal_basis(48, 4, complex(1.0, 2.0)),
    ]
    for basis in cases:
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", basis.n, "m", basis.m,
                             "delta_re", f"{basis.delta.real:.17g}",
                             "delta_im", f"{basis.delta.imag:.17g}"])
            writer.writerow(["degree"] + [f"p{k}_{part}" for k in range(basis.n) for part in ("re", "im")])
            for i in range(basis.n):
                row = [str(i)]
                for k in range(basis.n):
                    row += [f"{basis.coeffs[i, k].real:.17g}", f"{basis.coeffs[i, k].imag:.17g}"]
                writer.writerow(row)
        write_basis_csv(basis, tmp_path / "basis.csv")
        assert (tmp_path / "basis.csv").read_bytes() == ref.read_bytes(), basis.n
