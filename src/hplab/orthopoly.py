"""Orthonormal polynomials on the disc and the kernels built from them.

Orthonormalizing the monomials against the disc weight gives polynomials
P_0, ..., P_{n-1}; the n-point eigenvalue process of the truncated ensemble is
the determinantal process with projection kernel

    K_n(z, w) = sum_k P_k(z) conj(P_k(w))

against that weight.  As n grows, K_n converges on compact subsets of the disc
to an explicit limit kernel, which is a conjugation (gauge transform) of the
Bergman projection kernel (1 - z conj(w))^(-(m+1)).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, check_params
from .weights import WeightSpec, check_basis_size, gram_matrix

__all__ = [
    "PolynomialBasis",
    "KernelSpec",
    "orthonormal_basis",
    "closed_form_basis_delta0",
    "leading_coefficients",
    "finite_kernel",
    "limiting_kernel",
    "bergman_kernel",
    "kernel_eval",
    "reference_weight",
    "write_basis_csv",
]


@dataclass(frozen=True, eq=False)
class PolynomialBasis:
    """Orthonormal polynomial family for the disc weight with parameters (m, delta).

    ``coeffs`` is upper triangular with ``coeffs[i, k]`` the coefficient of
    ``z**i`` in P_k; real positive on the diagonal, so each P_k has positive
    leading coefficient.
    """

    n: int
    m: int
    delta: complex
    coeffs: np.ndarray = field(repr=False)
    # (proposal delta', k_sup) of the DPP sampler, built on first
    # use by hplab.dpp._sampler_plan; subbasis starts without one.
    sampler_plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.n, self.n):
            raise ValueError(f"coefficient matrix must be {self.n} x {self.n}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "delta", complex(self.delta))

    def evaluate(self, z) -> np.ndarray:
        """Values ``P_k(z)``, shape ``(n,) + shape(z)``.

        Powers are accumulated iteratively, so evaluation is stable for
        |z| <= 1 where the process lives.
        """
        z = np.asarray(z, dtype=np.complex128)
        powers = np.empty((self.n,) + z.shape, dtype=np.complex128)
        powers[0] = 1.0
        for i in range(1, self.n):
            powers[i] = powers[i - 1] * z
        return np.tensordot(self.coeffs.T, powers, axes=1)

    def subbasis(self, n: int) -> "PolynomialBasis":
        """First ``n`` polynomials; valid because orthonormalization is nested."""
        if not 1 <= n <= self.n:
            raise ValueError(f"n must be in [1, {self.n}]")
        return PolynomialBasis(n, self.m, self.delta, self.coeffs[:n, :n].copy())


def leading_coefficients(basis: PolynomialBasis) -> np.ndarray:
    """Real positive leading coefficients of P_0, ..., P_{n-1}."""
    lead = np.real(np.diag(basis.coeffs))
    if np.any(lead <= 0):
        raise NumericalError("leading coefficients must be positive")
    return lead.copy()


def orthonormal_basis(n: int, m: int, delta: complex) -> PolynomialBasis:
    """Orthonormal polynomials P_0, ..., P_{n-1} for the disc weight (m, delta).

    With G = ``gram_matrix(n, m, delta)``, G[i, j] = int z^i conj(z)^j w dA,
    the coefficient matrix C (``P_k(z) = sum_i C[i, k] z^i``) must satisfy
    C^T G conj(C) = I: ``(C^T G conj(C))[k, l]`` is ``int P_k conj(P_l) w dA``,
    a transpose rather than a conjugate transpose, which matters once delta
    (hence G) is complex.  The diagonally equilibrated conjugate Gram matrix
    is factored by Cholesky: with D = diag(d), d_i = G_{i,i}^(-1/2),
    D conj(G) D = L L*, and C = D L^(-*) is upper triangular with real
    positive diagonal.  If the residual E = C^T G conj(C) - I exceeds 1e-9 in
    some entry, one refinement step right-multiplies C by conj(S)^(-1), where
    I + E = S^H S with S upper triangular.  A residual still over 1e-9 raises
    :class:`NumericalError`, naming it and the condition number of D conj(G) D;
    this happens within the size cap at large |Im delta| or Re delta, for
    example at (30, 1, 4i).  ``gram_matrix`` checks n against its cap.
    """
    delta = complex(delta)
    g = gram_matrix(n, m, delta)
    d = 1.0 / np.sqrt(np.real(np.diag(g)))
    gh = np.conj(g) * d[:, None] * d[None, :]
    gh = 0.5 * (gh + gh.conj().T)
    try:
        low = np.linalg.cholesky(gh)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Gram matrix is not numerically positive definite") from exc
    c = d[:, None] * np.linalg.inv(low.conj().T)
    e = c.T @ g @ np.conj(c) - np.eye(n)
    if np.max(np.abs(e)) > 1e-9:
        try:
            lm = np.linalg.cholesky(np.eye(n) + 0.5 * (e + e.conj().T))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("orthonormality refinement failed") from exc
        c = np.linalg.solve(lm, c.T).T
        resid = np.max(np.abs(c.T @ g @ np.conj(c) - np.eye(n)))
        if resid > 1e-9:
            raise NumericalError(
                f"orthonormality residual {resid:.3e} exceeds 1e-9 at n={n}, m={m}, "
                f"delta={delta} (equilibrated condition number {np.linalg.cond(gh):.3e})"
            )
    return PolynomialBasis(n, m, delta, c)


def closed_form_basis_delta0(n: int, m: int) -> PolynomialBasis:
    """At delta = 0 the monomials are already orthogonal:

    ``P_k(z) = sqrt(m/pi * binom(m+k, k)) * z^k``.
    """
    check_basis_size(n)
    check_params(m, 0)
    coeffs = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        coeffs[k, k] = math.sqrt(m / math.pi * math.comb(m + k, k))
    return PolynomialBasis(n, m, 0j, coeffs)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A correlation kernel on the disc.

    ``kind`` is "finite" (projection kernel of a :class:`PolynomialBasis`),
    "limit_hp" (the n -> infinity limit kernel for parameters (m, delta)), or
    "bergman" (the weighted Bergman projection kernel for m).
    """

    kind: str
    m: int
    delta: complex = 0j
    basis: PolynomialBasis | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("finite", "limit_hp", "bergman"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "delta", complex(self.delta))
        if self.kind == "finite" and self.basis is None:
            raise ValueError("finite kernels require a basis")


def finite_kernel(basis: PolynomialBasis) -> KernelSpec:
    return KernelSpec("finite", basis.m, basis.delta, basis)


def limiting_kernel(m: int, delta: complex) -> KernelSpec:
    return KernelSpec("limit_hp", m, check_params(m, delta))


def bergman_kernel(m: int) -> KernelSpec:
    check_params(m, 0)
    return KernelSpec("bergman", m)


def reference_weight(spec: KernelSpec) -> WeightSpec:
    """The weight a kernel's determinantal process is defined against."""
    if spec.kind == "bergman":
        return WeightSpec("bergman", spec.m)
    return WeightSpec("hp", spec.m, spec.delta)


def kernel_eval(spec: KernelSpec, z, w) -> np.ndarray:
    """Kernel values K(z, w), broadcasting over ``z`` and ``w``.

    Both arguments must lie in the open unit disc (finite kernels extend
    continuously to the closed disc, but the limit kernels do not).
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if spec.kind == "finite":
        if np.any(np.abs(z) > 1.0 + 1e-12) or np.any(np.abs(w) > 1.0 + 1e-12):
            raise ValueError("finite kernels are evaluated on the closed unit disc")
        pz = spec.basis.evaluate(z)
        pw = spec.basis.evaluate(w)
        zb = pz.reshape(spec.basis.n, -1)
        wb = pw.reshape(spec.basis.n, -1)
        out = zb.T @ np.conj(wb)
        return out.reshape(z.shape + w.shape)
    if np.any(np.abs(z) >= 1.0) or np.any(np.abs(w) >= 1.0):
        raise ValueError("limit kernels are defined on the open unit disc only")
    zz = z.reshape(z.shape + (1,) * w.ndim)
    ww = np.conj(w.reshape((1,) * z.ndim + w.shape))
    core = (1.0 - zz * ww) ** (-(spec.m + 1.0))
    if spec.kind == "bergman":
        return core
    gauge = (1.0 - zz) ** (-spec.delta) * (1.0 - ww) ** (-np.conj(spec.delta))
    return (spec.m / math.pi) * gauge * core


def write_basis_csv(basis: PolynomialBasis, path) -> None:
    """Write the coefficient matrix as CSV.

    Row 1 records the parameters, row 2 names the columns, and the row for
    degree i holds the coefficients of z^i in each polynomial (real and
    imaginary parts in adjacent columns).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", basis.n, "m", basis.m,
                        "delta_re", f"{basis.delta.real:.17g}",
                        "delta_im", f"{basis.delta.imag:.17g}"])
        header = ["degree"]
        for k in range(basis.n):
            header += [f"p{k}_re", f"p{k}_im"]
        writer.writerow(header)
        for i in range(basis.n):
            row = [str(i)]
            for k in range(basis.n):
                row += [f"{basis.coeffs[i, k].real:.17g}", f"{basis.coeffs[i, k].imag:.17g}"]
            writer.writerow(row)
