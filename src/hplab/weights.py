"""Reference weights on the unit disc and their polynomial moments.

The truncated ensemble's eigenvalue process lives on the open unit disc with
reference weight

    w(z) = |1 - z|^(2a) * exp(-2 b arg(1 - z)) * (1 - |z|^2)^(m - 1),

where a = Re delta and b = Im delta; the limiting process uses the Bergman
weight (m/pi) (1 - |z|^2)^(m-1).  This module evaluates these weights and
computes the moment matrix

    c_{j,k} = int_D z^j conj(z)^k w(z) dA(z)

two independent ways: a series with an Euler-Maclaurin accelerated tail
(machine precision, used by the orthogonalizer) and an adapted Gauss-Jacobi
quadrature (used as a cross-check oracle).  Both handle the boundary
singularity of the weight at z = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import NumericalError, check_params

__all__ = [
    "WeightSpec",
    "GRAM_MAX_N",
    "weight_eval",
    "radial_monomial_integral",
    "moment_series",
    "moment_quadrature",
    "disc_weight_nodes",
    "gram_matrix",
]

# Largest basis size gram_matrix will build; conditioning of the monomial Gram
# matrix grows with n, and this range is validated to orthonormalize cleanly.
GRAM_MAX_N = 48


@dataclass(frozen=True)
class WeightSpec:
    """A reference weight on the open unit disc.

    ``kind`` is "hp" for the truncated-ensemble weight (depends on m and
    delta) or "bergman" for the limiting weight (m/pi)(1-|z|^2)^(m-1), which
    ignores delta.
    """

    kind: str
    m: int
    delta: complex = 0j

    def __post_init__(self):
        if self.kind not in ("hp", "bergman"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "delta", check_params(self.m, self.delta))


def weight_eval(spec: WeightSpec, z) -> np.ndarray:
    """Weight values at points ``z`` strictly inside the unit disc."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("weights are defined on the open unit disc only")
    radial = (1.0 - np.abs(z) ** 2) ** (spec.m - 1)
    if spec.kind == "bergman":
        return (spec.m / math.pi) * radial
    a, b = spec.delta.real, spec.delta.imag
    one_minus = 1.0 - z
    out = np.abs(one_minus) ** (2.0 * a) * radial
    if b != 0.0:
        out = out * np.exp(-2.0 * b * np.angle(one_minus))
    return out


def radial_monomial_integral(p: int, m: int) -> float:
    """``int_D |z|^(2p) (1-|z|^2)^(m-1) dA = pi * p! (m-1)! / (p+m)!``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.pi * math.exp(math.lgamma(p + 1) + math.lgamma(m) - math.lgamma(p + m + 1))


def _check_moment_args(j: int, k: int, m: int, delta) -> complex:
    if j < 0 or k < 0:
        raise ValueError("monomial exponents must be nonnegative")
    return check_params(m, delta)


# Asymptotic polygamma expansions for the Euler-Maclaurin derivative
# corrections; accurate to ~1e-20 for |z| >= 60, and the series tail always
# evaluates them at |z| >= 65.


def _psi1(z):
    zi = 1.0 / z
    return zi + 0.5 * zi**2 + zi**3 * (1 / 6 - zi**2 * (1 / 30 - zi**2 * (1 / 42 - zi**2 / 30)))


def _psi2(z):
    zi = 1.0 / z
    return -(zi**2) - zi**3 - zi**4 * (0.5 - zi**2 * (1 / 6 - zi**2 * (1 / 6)))


@lru_cache(maxsize=None)
def _leggauss32():
    return np.polynomial.legendre.leggauss(32)


@lru_cache(maxsize=None)
def _moment_series_cached(j: int, k: int, m: int, delta: complex, tol: float) -> complex:
    # Swapping (j, k) conjugates the integral.
    if k > j:
        return complex(np.conj(_moment_series_cached(k, j, m, delta, tol)))
    a = delta.real

    # Terminating case: (1-z)^delta is a polynomial when delta is a
    # nonnegative real integer, and the moment is a finite sum.
    if delta.imag == 0.0 and a >= 0 and a == round(a):
        d_int = int(round(a))
        tot = 0.0
        for t in range(j, min(k + d_int, j + d_int) + 1):
            tot += (
                math.comb(d_int, t - j)
                * math.comb(d_int, t - k)
                * (-1) ** ((t - j) + (t - k))
                * math.exp(math.lgamma(t + 1) - math.lgamma(t + m + 1))
            )
        return complex(math.pi * math.factorial(m - 1) * tot)

    # General term of the hypergeometric-type sum over t >= j:
    #   u_t = [(-delta)_(t-j)/(t-j)!] [(-conj delta)_(t-k)/(t-k)!] t!/(t+m)!
    # summed exactly (rational one-term recurrence) up to T, then completed by
    # Euler-Maclaurin: the terms decay only like t^-(2a+2+m), so truncation
    # alone cannot reach machine precision.
    T = j + 80
    dconj = np.conj(delta)
    u = complex(1.0)
    for i in range(j - k):
        u *= (-dconj + i) / (i + 1)
    u *= math.exp(math.lgamma(j + 1) - math.lgamma(j + m + 1))
    head = 0.0 + 0.0j
    head_abs = 0.0
    t = j
    while t < T:
        head += u
        head_abs += abs(u)
        u *= ((t - j - delta) * (t - k - dconj) * (t + 1)) / (
            (t + 1 - j) * (t + 1 - k) * (t + 1 + m)
        )
        t += 1
    uT = u

    lg = sp.loggamma

    def phi(tv):
        tv = np.asarray(tv, dtype=np.complex128)
        return (
            lg(tv - j - delta)
            + lg(tv - k - dconj)
            + lg(tv + 1)
            - lg(tv - j + 1)
            - lg(tv - k + 1)
            - lg(tv + m + 1)
        )

    phi_T = phi(T)
    p = 2 * a + 2 + m  # algebraic decay exponent of |u_t|; p - 1 > m >= 1
    v_max = 40.0 / (p - 1)

    # int_T^inf u(t) dt with t = T e^v, panels of Gauss-Legendre 32
    n_pan = max(4, int(np.ceil(v_max / 2.0)))
    xg, wg = _leggauss32()
    edges = np.linspace(0.0, v_max, n_pan + 1)
    integral = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        tvals = T * np.exp(v)
        f = np.exp(phi(tvals) - phi_T)
        integral += 0.5 * (hi - lo) * np.sum(wg * f * tvals)

    # log-derivative corrections at T (Euler-Maclaurin with B2 and B4 terms)
    args_plus = np.array([T - j - delta, T - k - dconj, T + 1], dtype=np.complex128)
    args_minus = np.array([T - j + 1, T - k + 1, T + m + 1], dtype=np.complex128)
    d1 = np.sum(sp.digamma(args_plus)) - np.sum(sp.digamma(args_minus))
    d2 = np.sum(_psi1(args_plus)) - np.sum(_psi1(args_minus))
    d3 = np.sum(_psi2(args_plus)) - np.sum(_psi2(args_minus))
    fp = d1
    fppp = d3 + 3 * d1 * d2 + d1**3
    tail_rel = integral + 0.5 - (1 / 6) / 2.0 * fp - (-1 / 30) / 24.0 * fppp
    tail = uT * tail_rel

    scale = math.pi * math.factorial(m - 1)
    result = scale * (head + tail)

    # Error model: next Euler-Maclaurin correction, integral truncation at
    # v_max, and accumulated rounding.
    deriv_scale = (abs(d1) + abs(d2) ** 0.5 + abs(d3) ** (1.0 / 3.0)) ** 5
    est = scale * (
        abs(uT) * ((1 / 30240.0) * deriv_scale + T * math.exp(-40.0))
        + 1e-16 * (head_abs + abs(tail))
    )
    if est > tol * max(1.0, abs(result)):
        raise NumericalError(
            f"moment series error estimate {est:.3e} exceeds tolerance for "
            f"j={j} k={k} m={m} delta={delta}"
        )
    return complex(result)


def moment_series(j: int, k: int, m: int, delta: complex, tol: float = 1e-14) -> complex:
    """Moment ``c_{j,k}`` of the disc weight, by exact summation.

    Raises :class:`NumericalError` if the internal error estimate exceeds
    ``tol`` relative to the result.
    """
    delta = _check_moment_args(j, k, m, delta)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _moment_series_cached(int(j), int(k), int(m), delta, float(tol))


def _jacobi_ratio(x: np.ndarray) -> np.ndarray:
    """cos(pi x / 2) / (1 - x^2), evaluated stably on (-1, 1); even in x."""
    u = 1.0 - np.abs(x)
    return (math.pi / 2.0) * np.sinc(u / 2.0) / (2.0 - u)


@lru_cache(maxsize=None)
def _disc_nodes_cached(m: int, delta: complex, ns: int, nphi: int):
    """Nodes and weights integrating analytic f against the disc weight.

    Polar coordinates centered at z = 1: z = 1 - s e^(i phi) with
    |phi| < pi/2, 0 < s < 2 cos phi covers the disc, and the weight times the
    area element becomes s^(2a+m) (2 cos phi - s)^(m-1) e^(-2 b phi) ds dphi.
    The s-integral is Gauss-Jacobi (exact for the endpoint singularities) and
    the phi-integral is Gauss-Jacobi with parameter 2a + 2m after factoring
    cos(phi)^(2a+2m) out of the substitution.
    """
    a, b = delta.real, delta.imag
    gam = 2.0 * a + 2.0 * m
    xs, ws = sp.roots_jacobi(ns, m - 1.0, 2.0 * a + m)
    xp, wp = sp.roots_jacobi(nphi, gam, gam)
    phi = 0.5 * math.pi * xp
    cphi = np.cos(phi)
    outer = 0.5 * math.pi * wp * _jacobi_ratio(xp) ** gam * np.exp(-2.0 * b * phi)
    s = cphi[:, None] * (1.0 + xs[None, :])
    z = 1.0 - s * np.exp(1j * phi)[:, None]
    w = outer[:, None] * ws[None, :]
    z = z.ravel()
    w = w.ravel()
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def disc_weight_nodes(m: int, delta: complex, radial_nodes: int = 64, angular_nodes: int = 256):
    """Quadrature rule ``(z, w)`` with ``sum(w * f(z)) ~ int_D f w^(m,delta) dA``.

    Exact for polynomials f(z, conj z) of degree below ``radial_nodes`` in the
    radial direction; spectrally accurate otherwise.  All weights are real
    positive and all nodes lie strictly inside the disc.
    """
    delta = _check_moment_args(0, 0, m, delta)
    if radial_nodes < 2 or angular_nodes < 2:
        raise ValueError("node counts must be at least 2")
    return _disc_nodes_cached(int(m), delta, int(radial_nodes), int(angular_nodes))


def moment_quadrature(
    j: int, k: int, m: int, delta: complex, radial_nodes: int = 64, angular_nodes: int = 256
) -> complex:
    """Moment ``c_{j,k}`` by quadrature; independent cross-check of the series.

    Node counts are lower bounds and are raised internally so the rule
    resolves the monomial degree.
    """
    delta = _check_moment_args(j, k, m, delta)
    if radial_nodes < 64 or angular_nodes < 64:
        raise ValueError("node counts below 64 are not supported")
    ns = max(radial_nodes, (j + k) // 2 + 8)
    nphi = max(angular_nodes, 2 * (j + k) + 64)
    z, w = disc_weight_nodes(m, delta, ns, nphi)
    return complex(np.sum(w * z**j * np.conj(z) ** k))


@lru_cache(maxsize=None)
def _gram_cached(n: int, m: int, delta: complex, tol: float) -> np.ndarray:
    g = np.empty((n, n), dtype=np.complex128)
    for jj in range(n):
        for kk in range(jj + 1):
            val = _moment_series_cached(jj, kk, m, delta, tol)
            g[jj, kk] = val
            g[kk, jj] = np.conj(val)
    g.setflags(write=False)
    return g


def gram_matrix(n: int, m: int, delta: complex, tol: float = 1e-14) -> np.ndarray:
    """Hermitian matrix ``G[j, k] = c_{j,k}`` of monomial moments, 0 <= j, k < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > GRAM_MAX_N:
        raise ValueError(f"n={n} exceeds the supported maximum {GRAM_MAX_N}")
    delta = _check_moment_args(0, 0, m, delta)
    return _gram_cached(int(n), int(m), delta, float(tol)).copy()
