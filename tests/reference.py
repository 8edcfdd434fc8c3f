"""Closed forms, basis readers and independent samplers that only the tests use."""

import math

import numpy as np

from hplab.errors import NumericalError, check_params
from hplab.orthopoly import PolynomialBasis
from hplab.sampling import hp_log_weights, sample_haar_unitaries


def radial_monomial_integral(p: int, m: int) -> float:
    """``int_D |z|^(2p) (1-|z|^2)^(m-1) dA = pi * p! (m-1)! / (p+m)!``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    check_params(m, 0)
    return math.pi * math.exp(math.lgamma(p + 1) + math.lgamma(m) - math.lgamma(p + m + 1))


def leading_coefficients(basis: PolynomialBasis) -> np.ndarray:
    """Real positive leading coefficients of P_0, ..., P_{n-1}."""
    lead = np.real(np.diag(basis.coeffs))
    if not np.all(lead > 0):
        raise NumericalError("leading coefficients must be positive")
    return lead.copy()


def ginibre_rejection(dim: int, delta: complex, count: int, rng) -> np.ndarray:
    """``count`` Hua-Pickrell samples on U(dim), Re delta >= 0, by rejection
    from Ginibre-QR Haar draws weighed by ``hp_log_weights``: the package's
    rejection law reached with no Verblunsky coordinates.  Each proposal is
    accepted with probability ``|det(I - U)^delta|^2 / (4^(aN) e^(pi N |b|))``.
    """
    delta = complex(delta)
    log_bound = 2 * dim * delta.real * math.log(2.0) + math.pi * dim * abs(delta.imag)
    kept, total = [], 0
    while total < count:
        u = sample_haar_unitaries(dim, 1024, rng)
        hits = u[np.log(rng.random(1024)) < hp_log_weights(u, delta) - log_bound]
        kept.append(hits)
        total += len(hits)
    return np.concatenate(kept)[:count]


def reflection_product(v: np.ndarray) -> np.ndarray:
    """``R(v_1) (1 (+) R(v_2)) ... (1_{N-1} (+) R(v_N))`` as an explicit product
    of N x N matrices, for one stack of reflection vectors ``v`` of shape
    ``(N, N)`` whose row k holds ``v_(k+1)`` in its first ``N - k`` entries.
    ``R(v) = I - (e1 - v)(e1 - v)^* / (1 - conj(v_1))``, and the identity at
    ``v = e1``."""
    dim = v.shape[0]
    u = np.eye(dim, dtype=complex)
    for k in range(dim):
        vk = v[k, : dim - k]
        w = -vk.astype(complex)
        w[0] += 1.0
        factor = np.eye(dim, dtype=complex)
        if vk[0] != 1:
            factor[k:, k:] -= np.outer(w, w.conj()) / (1.0 - np.conj(vk[0]))
        u = u @ factor
    return u
