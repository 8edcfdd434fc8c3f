"""Samplers for Haar and Hua-Pickrell distributed unitary matrices.

The Hua-Pickrell measure on U(N) with parameter delta (Re delta > -1/2) has
density proportional to ``|det(I - U)^delta|^2`` against Haar measure.  Two
samplers target it: an exact rejection sampler valid for Re delta >= 0, and an
independence Metropolis-Hastings chain with Haar proposals valid for every
admissible delta.  Both consume only ``hp_log_weight`` differences, so the
unknown normalization constant of the measure never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import NumericalError, check_params
from .rng import RngStream

__all__ = [
    "HPParams",
    "MHConfig",
    "sample_ginibre",
    "sample_haar_unitary",
    "hp_log_weight",
    "sample_hua_pickrell_rejection",
    "sample_hua_pickrell_mh",
    "unitarity_defect",
]


@dataclass(frozen=True)
class HPParams:
    """Truncation ensemble parameters: keep an n x n corner of U(n + m).

    ``delta`` is the Hua-Pickrell exponent; delta = 0 recovers Haar measure.
    """

    n: int
    m: int
    delta: complex = 0j

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "delta", check_params(self.m, self.delta))

    @property
    def dim(self) -> int:
        """Size of the ambient unitary group, n + m."""
        return self.n + self.m


@dataclass(frozen=True)
class MHConfig:
    """Metropolis-Hastings schedule: proposals discarded up front and between
    retained states."""

    burn_in: int = 1000
    thinning: int = 5

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U*U - I."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def sample_ginibre(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Complex Ginibre matrix: iid entries with N(0,1/2) real and imaginary parts."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / np.sqrt(2.0)


def sample_haar_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed U(dim) matrix via QR of a Ginibre draw.

    The QR decomposition is not unique; multiplying each column of Q by the
    phase of the matching diagonal entry of R makes that diagonal real positive
    and the resulting distribution exactly Haar.
    """
    for attempt in range(2):
        g = sample_ginibre(dim, dim, rng)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.all(d != 0):
            u = q * (d / np.abs(d))
            defect = unitarity_defect(u)
            if defect > 1e-12:
                raise NumericalError(f"QR produced a non-unitary factor, defect {defect:.3e}")
            return u
    raise NumericalError("Ginibre draw was numerically singular twice in a row")


def hp_log_weight(u: np.ndarray, delta: complex, *, tol: float = 1e-10) -> float:
    """Log of the unnormalized Hua-Pickrell density of ``u`` against Haar.

    Equals ``2 Re(delta * sum_i Log(1 - lambda_i))`` over the eigenvalues
    ``lambda_i`` of ``u``, with the principal branch of Log.  An eigenvalue
    exactly 1 gives -inf for Re delta > 0 and +inf for Re delta < 0; for a
    purely imaginary delta that singular factor is dropped (it carries no
    weight in modulus).
    """
    u = np.asarray(u, dtype=np.complex128)
    delta = complex(delta)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    if unitarity_defect(u) > tol:
        raise ValueError(f"matrix is not unitary within tolerance {tol}")
    try:
        lam = np.linalg.eigvals(u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    one_minus = 1.0 - lam
    if np.any(one_minus == 0):
        if delta.real > 0:
            return float("-inf")
        if delta.real < 0:
            return float("inf")
        one_minus = one_minus[one_minus != 0]
        if one_minus.size == 0:
            return 0.0
    return float(2.0 * np.real(delta * np.sum(np.log(one_minus))))


def _rejection_log_bound(dim: int, delta: complex) -> float:
    """Log of the uniform bound B >= sup_U |det(I-U)^delta|^2 for Re delta >= 0.

    Per eigenvalue: |1 - lambda| <= 2 and |arg(1 - lambda)| < pi/2.
    """
    return 2.0 * dim * delta.real * math.log(2.0) + math.pi * dim * abs(delta.imag)


def _rejection_acceptance(dim: int, delta: complex) -> float:
    """Probability that the rejection sampler accepts one Haar proposal.

    It is the Haar moment over the bound: with N = dim and delta = a + ib,

        E|det(I-U)^delta|^2 = prod_{j=1}^{N} Gamma(j) Gamma(j+2a) / |Gamma(j+delta)|^2,

    divided by 4^(aN) e^(pi N |b|).
    """
    j = np.arange(1, dim + 1)
    log_moment = np.sum(
        sp.gammaln(j) + sp.gammaln(j + 2.0 * delta.real) - 2.0 * np.real(sp.loggamma(j + delta))
    )
    return math.exp(log_moment - _rejection_log_bound(dim, delta))


def sample_hua_pickrell_rejection(
    dim: int,
    delta: complex,
    rng: RngStream,
    *,
    return_proposals: bool = False,
):
    """Exact Hua-Pickrell sample on U(dim) by rejection from Haar.

    Requires Re delta >= 0 so the density ratio is bounded.  With
    ``return_proposals`` the number of Haar proposals consumed is returned
    alongside the sample.
    """
    delta = complex(delta)
    if delta.real < 0:
        raise ValueError("rejection sampling requires Re delta >= 0")
    log_bound = _rejection_log_bound(dim, delta)
    proposals = 0
    while True:
        u = sample_haar_unitary(dim, rng)
        proposals += 1
        logw = hp_log_weight(u, delta)
        # log(uniform) < logw - logB accepts with probability exp(logw - logB)
        if np.log(rng.random()) < logw - log_bound:
            if return_proposals:
                return u, proposals
            return u


def _mh_accept_probability(logw_prop: float, logw_cur: float) -> float:
    """Independence-sampler acceptance probability, total over (+/-)inf weights.

    A +inf proposal is accepted outright unless the current state is also +inf
    (probability zero; rejected to keep the arithmetic total).
    """
    if logw_prop == float("inf"):
        return 0.0 if logw_cur == float("inf") else 1.0
    if logw_cur == float("inf"):
        return 0.0
    if logw_prop == float("-inf"):
        return 0.0
    if logw_cur == float("-inf"):
        return 1.0
    d = logw_prop - logw_cur
    return 1.0 if d >= 0 else math.exp(d)


def sample_hua_pickrell_mh(
    dim: int,
    delta: complex,
    count: int,
    cfg: MHConfig,
    rng: RngStream,
    *,
    return_acceptance: bool = False,
):
    """Hua-Pickrell samples on U(dim) via independence Metropolis-Hastings.

    Proposals are fresh Haar draws; moves are accepted with probability
    ``min(1, exp(logw(V) - logw(U)))``.  After ``cfg.burn_in`` proposals the
    chain emits one state every ``cfg.thinning`` proposals, ``count`` times.
    At delta = 0 every proposal is accepted and the output is exactly Haar.
    """
    delta = check_params(None, delta)
    if count < 0:
        raise ValueError("count must be nonnegative")
    current = sample_haar_unitary(dim, rng)
    logw_cur = hp_log_weight(current, delta)
    accepted = 0
    proposals = 0

    def step():
        nonlocal current, logw_cur, accepted, proposals
        prop = sample_haar_unitary(dim, rng)
        proposals += 1
        logw_prop = hp_log_weight(prop, delta)
        p = _mh_accept_probability(logw_prop, logw_cur)
        if p >= 1.0 or rng.random() < p:
            current = prop
            logw_cur = logw_prop
            accepted += 1

    for _ in range(cfg.burn_in):
        step()
    out = []
    for _ in range(count):
        for _ in range(cfg.thinning):
            step()
        out.append(current.copy())
    if return_acceptance:
        return out, accepted, proposals
    return out
