"""Reference weights on the unit disc and their polynomial moments.

The truncated ensemble's eigenvalue process lives on the open unit disc with
reference weight

    w(z) = |1 - z|^(2a) * exp(-2 b arg(1 - z)) * (1 - |z|^2)^(m - 1),

where a = Re delta and b = Im delta; the limiting process uses the Bergman
weight (m/pi) (1 - |z|^2)^(m-1).  This module alone knows w: it evaluates
w, its gauge factor |(1-z)^c|^2 and mass, draws from w exactly, and computes

    c_{j,k} = int_D z^j conj(z)^k w(z) dA(z)

two independent ways: a series with an Euler-Maclaurin accelerated tail
(machine precision, used by the orthogonalizer) and an adapted Gauss-Jacobi
quadrature (used as a cross-check oracle).  Both handle the boundary
singularity of the weight at z = 1 exactly.

The series is a product of per-index factors: its exact head is one matrix
product A diag(r) A^H, and its Euler-Maclaurin tail integral another, on
the tail's quadrature nodes.  It is summed only as the Gram matrix, the
square block of rows and columns 0..n-1.  The tail never subtracts large
log-gamma values, so it holds for every Re delta > -1/2, and every entry is
checked against its own error estimate: if one is over 1e-14 relative, the
block is summed again with a longer head, and :class:`NumericalError` is
raised if it is still over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import ConfigError, NumericalError, check_params

__all__ = [
    "WeightSpec",
    "GRAM_MAX_N",
    "check_basis_size",
    "weight_eval",
    "moment_quadrature",
    "disc_weight_nodes",
    "gram_matrix",
]

# Largest basis size gram_matrix will build.  The monomial Gram matrix's
# conditioning grows with n, and some parameters refuse to orthonormalize
# below this cap: real delta = 5 at n = 40 (m = 1 to 4) and at n = 48 (m up
# to 6), 4i from n = 30 and 1+4i from n = 31 (m = 1).
GRAM_MAX_N = 48


def check_basis_size(n: int, field: str = "n") -> None:
    """Raise :class:`ConfigError` unless 1 <= n <= ``GRAM_MAX_N``; ``field``
    names the configuration entry that holds n."""
    if not 1 <= n <= GRAM_MAX_N:
        raise ConfigError("bad-value", f"n must be in [1, {GRAM_MAX_N}], got {n}", field=field)


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
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("weights are defined on the open unit disc only")
    radial = (1.0 - np.abs(z) ** 2) ** (spec.m - 1)
    if spec.kind == "bergman":
        return (spec.m / math.pi) * radial
    return _gauge_factor(z, spec.delta, radial)


def _gauge_factor(z, c: complex, scale=1.0) -> np.ndarray:
    """|(1-z)^c|^2 = w_(delta+c) / w_delta, times ``scale`` before the angular
    factor; that factor is skipped at Im c = 0, so every caller keeps its rounding."""
    one_minus = 1.0 - z
    out = np.abs(one_minus) ** (2.0 * c.real) * scale
    if c.imag != 0.0:
        out = out * np.exp(-2.0 * c.imag * np.angle(one_minus))
    return out


def _weight_mass(m: int, delta: complex) -> float:
    """int w dA = pi Gamma(m) Gamma(m+1+2a) / |Gamma(m+1+delta)|^2, a = Re delta."""
    log_mass = (
        sp.gammaln(m) + sp.gammaln(m + 1.0 + 2.0 * delta.real)
        - 2.0 * sp.loggamma(m + 1.0 + delta).real
    )
    return math.pi * math.exp(log_mass)


# Asymptotic polygamma expansions for the Euler-Maclaurin derivative
# corrections; accurate to ~1e-20 for |z| >= 60, and the series tail always
# evaluates them at |z| >= 65.


def _psi1(z):
    zi = 1.0 / z
    return zi + 0.5 * zi**2 + zi**3 * (1 / 6 - zi**2 * (1 / 30 - zi**2 * (1 / 42 - zi**2 / 30)))


def _psi2(z):
    zi = 1.0 / z
    return -(zi**2) - zi**3 - zi**4 * (0.5 - zi**2 * (1 / 6 - zi**2 * (1 / 6)))


# Largest error estimate of a moment, relative to max(1, |c_{j,k}|).
_TOL = 1e-14
# Exact terms summed before the Euler-Maclaurin tail takes over: _HEAD_STEPS,
# doubled up to _HEAD_MAX_STEPS while some estimate is over _TOL (the next
# Euler-Maclaurin term goes like (|delta| / T)^5).
_HEAD_STEPS = 80
_HEAD_MAX_STEPS = 8 * _HEAD_STEPS
# Gauss-Jacobi nodes of the tail integral.
_TAIL_NODES = 32
# Most terms kept of the expansion of a log-gamma difference.
_LGAMMA_TERMS = 40
# Row k - 2, column p: C(k, p) B_(k-p), the coefficient of alpha^p in the
# Bernoulli polynomial B_k(alpha), for the orders k = 2.._LGAMMA_TERMS.
_LGAMMA_ORDERS = np.arange(2, _LGAMMA_TERMS + 1)
_BERNOULLI_TABLE = sp.comb(_LGAMMA_ORDERS[:, None], np.arange(_LGAMMA_TERMS + 1)) * sp.bernoulli(
    _LGAMMA_TERMS
)[np.maximum(_LGAMMA_ORDERS[:, None] - np.arange(_LGAMMA_TERMS + 1), 0)]


def _lgamma_ratio_coeffs(alpha: complex) -> tuple[np.ndarray, float]:
    """Coefficients of ``lgamma(s+alpha) - lgamma(s+1) - (alpha-1) log s``.

    DLMF 5.11.13 expands it as ``sum_{k>=2} c_k s^(1-k)`` with
    ``c_k = (-1)^k (B_k(alpha) - B_k(1)) / (k (k-1))``.  The coefficients
    come highest order first, down to the last one whose term exceeds 1e-20
    at the smallest argument used, s = 80; the second value is the size there
    of the last term computed, which bounds what the expansion leaves out.
    """
    orders = _LGAMMA_ORDERS
    bk = _BERNOULLI_TABLE @ (alpha ** np.arange(_LGAMMA_TERMS + 1) - 1.0)
    coeffs = (-1.0) ** orders * bk / (orders * (orders - 1))
    sizes = np.abs(coeffs) * float(_HEAD_STEPS) ** (1 - orders)
    kept = np.flatnonzero(sizes >= 1e-20)
    coeffs = coeffs[: kept[-1] + 1 if len(kept) else 0]
    return coeffs[::-1], float(sizes[-1])


def _lgamma_ratio_remainder(coeffs: np.ndarray, x):
    """``sum_k c_k x^(k-1)`` at x = 1/s, by Horner; ``coeffs`` highest first."""
    acc = np.zeros(np.shape(x), dtype=np.complex128)
    for c in coeffs:
        acc = (acc + c) * x
    return acc


def _moment_block(n: int, m: int, delta: complex, head: int):
    """Moments ``c_{j,k}``, 0 <= j, k < n, and their error estimates.

    With a_s = (-delta)_s / s! (zero for s < 0) and r_t = t!/(t+m)!,

        c_{j,k} = pi (m-1)! sum_t u_t,   u_t = a_(t-j) conj(a_(t-k)) r_t.

    Up to one cut T = top + max(head, top), top = n - 1, the sum is the
    product A diag(r) A^H with A[j, t] = a_(t-j), read from one cumprod.
    The terms decay only like t^-p, p = 2a + 2 + m and a = Re delta, so
    truncation alone cannot reach machine precision; the rest is
    Euler-Maclaurin: the integral of u(t)/u(T) over t >= T plus the B2 and B4
    derivative corrections at T.  When delta is a nonnegative integer d, a_s
    vanishes beyond s = d, and the head cut at T = top + d + 1 is the sum.

    With y = T/t, the tail integral is T int_0^1 y^(p-2) h(y) dy, where
    h = (t/T)^p u(t)/u(T) is exp(b_j + conj(b_k) + c_m): the brackets
    b_j = lgamma(t-j-delta) - lgamma(t-j+1) + (delta+1) log t and
    c_m = lgamma(t+1) - lgamma(t+m+1) + m log t, each relative to its value
    at t = T.  b_j is (-delta-1) log(1 - j/t) plus an expansion in 1/(t-j),
    and c_m is -sum_i log(1 + i/t) exactly, so no large log-gamma values
    cancel and 1/t = y/T never overflows, for every Re delta > -1/2.  On the
    Gauss-Jacobi nodes of the weight y^(p-2), with F[j] = a_(T-j) exp(b_j),
    the integral is T F diag(w exp(c_m)) F^H, one product again.  h is
    analytic in y up to y = T / max(j, k) >= 2 (or y = -T/m, if nearer), and
    the rule integrates it to about rho^(-2N), rho being the Bernstein-ellipse
    parameter of that point.  The log-derivatives d1, d2, d3 of u at T are
    each a row term, the conjugate of a column term and a constant.

    Each entry has its own estimate: the next Euler-Maclaurin term, the
    quadrature bound rho^(-N) (a square root of the rate, as h grows towards
    y = T / max(j, k)), the truncated log-gamma expansions, and rounding.
    """
    a_re = delta.real
    top = n - 1
    idx = np.arange(n)
    terminating = delta.imag == 0.0 and a_re >= 0 and a_re == round(a_re)
    T = top + (int(a_re) + 1 if terminating else max(head, top))
    # a_s at position top + s, for s = -top..T
    ratios = (np.arange(T) - delta) / np.arange(1, T + 1)
    a = np.concatenate((np.zeros(top), np.cumprod(np.concatenate(([1.0 + 0j], ratios)))))
    # r_t (m-1)!, carrying the moment's factor (m-1)!: t!/(t+m)! (m-1)! = 1/(m C(t+m, m))
    r = 1.0 / (m * sp.binom(np.arange(T + 1) + m, m))
    a_head = a[top + np.arange(T) - idx[:, None]]
    head_sum = (a_head * r[:T]) @ a_head.conj().T
    head_abs = (np.abs(a_head) * r[:T]) @ np.abs(a_head).T
    if terminating:
        return math.pi * head_sum, math.pi * 1e-16 * head_abs

    p = 2.0 * a_re + 2.0 + m
    y, w = sp.roots_jacobi(_TAIL_NODES, 0.0, p - 2.0)
    inv_t = 0.5 * (1.0 + y) / T
    i = np.arange(1.0, m + 1.0)[:, None]
    w = w * 2.0 ** (1.0 - p) * np.exp(-np.sum(np.log1p(i * inv_t) - np.log1p(i / T), axis=0))
    coeffs, lg_err = _lgamma_ratio_coeffs(-delta)
    a_T = a[top + T - idx]
    c = idx[:, None].astype(np.float64)
    bracket = (-delta - 1.0) * (np.log1p(-c * inv_t) - np.log1p(-c / T))
    bracket += _lgamma_ratio_remainder(coeffs, inv_t / (1.0 - c * inv_t))
    bracket -= _lgamma_ratio_remainder(coeffs, 1.0 / (T - c))
    factor = a_T[:, None] * np.exp(bracket)
    integral = (T * r[T]) * ((factor * w) @ factor.conj().T)

    def log_derivs(plus, minus):
        return np.array([f(plus) - f(minus) for f in (sp.digamma, _psi1, _psi2)])

    d_idx = log_derivs(T - idx - delta, T - idx + 1.0)
    d_m = log_derivs(T + 1.0, T + m + 1.0)
    d1, d2, d3 = d_idx[:, :, None] + d_idx.conj()[:, None, :] + d_m[:, None, None]
    fppp = d3 + 3 * d1 * d2 + d1**3
    u_T = np.outer(a_T, a_T.conj()) * r[T]
    tail = integral + u_T * (0.5 - (1 / 6) / 2.0 * d1 - (-1 / 30) / 24.0 * fppp)

    deriv_scale = (np.abs(d1) + np.abs(d2) ** 0.5 + np.abs(d3) ** (1.0 / 3.0)) ** 5
    z0 = np.minimum(2.0 * T / np.maximum(np.maximum.outer(idx, idx), 1) - 1.0, 2.0 * T / m + 1.0)
    rho = z0 + np.sqrt(z0 * z0 - 1.0)
    est = (
        np.abs(u_T) * (1 / 30240.0) * deriv_scale
        + np.abs(integral) * (rho ** -_TAIL_NODES + 4.0 * lg_err)
        + 1e-16 * (head_abs + np.abs(tail))
    )
    return math.pi * (head_sum + tail), math.pi * est


def _moments(n: int, m: int, delta: complex) -> np.ndarray:
    """The n x n block of moments ``c_{j,k}``, both triangles summed.

    If an entry is not finite, or its error estimate exceeds ``_TOL``
    relative to it, the block is summed again with the head doubled, up to
    ``_HEAD_MAX_STEPS``; then :class:`NumericalError` names the worst entry.
    """
    head = _HEAD_STEPS
    while True:
        vals, est = _moment_block(n, m, delta, head)
        ratio = est / (_TOL * np.maximum(1.0, np.abs(vals)))
        ratio[~np.isfinite(vals) | ~np.isfinite(ratio)] = np.inf
        if not np.any(ratio > 1.0) or head >= _HEAD_MAX_STEPS:
            break
        head *= 2
    j, k = np.unravel_index(np.argmax(ratio), ratio.shape)
    if ratio[j, k] > 1.0:
        raise NumericalError(
            f"moment series error estimate {est[j, k]:.3e} exceeds tolerance for "
            f"j={j} k={k} m={m} delta={delta}"
        )
    return vals


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
    delta = check_params(m, delta)
    if radial_nodes < 2 or angular_nodes < 2:
        raise ValueError("node counts must be at least 2")
    return _disc_nodes_cached(int(m), delta, int(radial_nodes), int(angular_nodes))


_PHI_BINS = 64


def _log_phi_density(phi, gam: float, b: float):
    """log f(phi) for f(phi) = cos(phi)^gam exp(-2 b phi), the angular law of w dA."""
    return gam * np.log(np.cos(phi)) - 2.0 * b * phi


@lru_cache(maxsize=None)
def _phi_table(m: int, delta: complex):
    """Envelope h >= f over ``_PHI_BINS`` equal bins of (-pi/2, pi/2).

    f is log-concave with its peak at phi* = -atan(2b / (2a + 2m)), so on a
    bin it is largest at phi* if the bin holds it and at the larger end value
    otherwise.  Returns (log h per bin, cumulative bin probabilities).
    """
    gam, b = 2.0 * delta.real + 2.0 * m, delta.imag
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, _PHI_BINS + 1)
    ends = _log_phi_density(edges, gam, b)
    log_h = np.maximum(ends[:-1], ends[1:])
    peak = -math.atan(2.0 * b / gam)
    k = min(int((peak + 0.5 * math.pi) / (math.pi / _PHI_BINS)), _PHI_BINS - 1)
    log_h[k] = _log_phi_density(peak, gam, b)
    cdf = np.cumsum(np.exp(log_h - log_h[k]))
    cdf /= cdf[-1]
    for arr in (log_h, cdf):
        arr.setflags(write=False)
    return log_h, cdf


def _propose_batch(m: int, delta: complex, size: int, rng):
    """``size`` exact draws from w: (points, f/h thinning, accept uniforms).

    In the coordinates of :func:`_disc_nodes_cached`, w dA is proportional
    to f(phi) t^(2a+m) (1-t)^(m-1) dphi dt with s = 2 cos(phi) t.  phi is
    drawn from the envelope h of :func:`_phi_table` and t ~ Beta(2a+m+1, m)
    as the product of U_j^(1/(2a+m+1+j)) over j < m; a point kept with
    probability f/h is a draw from w / int w.  It takes (3 + m) size uniforms.
    """
    log_h, cdf = _phi_table(m, delta)
    gam, alpha = 2.0 * delta.real + 2.0 * m, 2.0 * delta.real + m + 1.0
    draws = rng.random((3 + m, size))
    k = np.searchsorted(cdf, draws[1], side="right")
    phi = (k + draws[2]) * (math.pi / _PHI_BINS) - 0.5 * math.pi
    thin = np.exp(_log_phi_density(phi, gam, delta.imag) - log_h[k])
    t = np.prod(draws[3:] ** (1.0 / (alpha + np.arange(m)))[:, None], axis=0)
    z = 1.0 - 2.0 * np.cos(phi) * t * np.exp(1j * phi)
    return z, thin, draws[0]


def moment_quadrature(
    j: int, k: int, m: int, delta: complex, radial_nodes: int = 64, angular_nodes: int = 256
) -> complex:
    """Moment ``c_{j,k}`` by quadrature; independent cross-check of the series.

    Node counts are lower bounds and are raised internally so the rule
    resolves the monomial degree.
    """
    if j < 0 or k < 0:
        raise ValueError("monomial exponents must be nonnegative")
    delta = check_params(m, delta)
    if radial_nodes < 64 or angular_nodes < 64:
        raise ValueError("node counts below 64 are not supported")
    ns = max(radial_nodes, (j + k) // 2 + 8)
    nphi = max(angular_nodes, 2 * (j + k) + 64)
    z, w = disc_weight_nodes(m, delta, ns, nphi)
    return complex(np.sum(w * z**j * np.conj(z) ** k))


def gram_matrix(n: int, m: int, delta: complex) -> np.ndarray:
    """Hermitian matrix ``G[j, k] = c_{j,k}`` of monomial moments, 0 <= j, k < n.

    The moment series, summed for the whole n x n block at once; the lower
    triangle is kept and mirrored, with a real diagonal.  Raises
    :class:`NumericalError` if an entry is not finite or its error estimate
    exceeds 1e-14 relative to it.
    """
    check_basis_size(n)
    vals = _moments(int(n), int(m), check_params(m, delta))
    # the products leave rounding-level asymmetry; mirror the lower triangle
    lower = np.tril(vals, -1)
    return lower + lower.conj().T + np.diag(vals.diagonal().real)
