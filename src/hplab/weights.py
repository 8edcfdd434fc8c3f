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

The series is evaluated for a whole batch of index pairs at once: the Gram
matrix is one call over its lower triangle, and :func:`moment_series` is the
one-pair case of the same code.  Its tail integral never subtracts large
log-gamma values, so it holds for every Re delta > -1/2, and every entry is
checked against its own error estimate: one over the tolerance is summed
again with a longer head, and raises :class:`NumericalError` if still over.
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
    "radial_monomial_integral",
    "moment_series",
    "moment_quadrature",
    "disc_weight_nodes",
    "gram_matrix",
]

# Largest basis size gram_matrix will build.  The monomial Gram matrix's
# conditioning grows with n, and some parameters refuse to orthonormalize
# below this cap: real delta = 5 at n = 40 (m = 1 to 4) and at n = 48 (m up
# to 6), 4i from n = 30 and 1+4i from n = 40 (m = 1).
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


def radial_monomial_integral(p: int, m: int) -> float:
    """``int_D |z|^(2p) (1-|z|^2)^(m-1) dA = pi * p! (m-1)! / (p+m)!``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    check_params(m, 0)
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


# Exact terms summed before the Euler-Maclaurin tail takes over: _HEAD_STEPS,
# doubled up to _HEAD_MAX_STEPS for entries whose estimate is over the
# tolerance (the next Euler-Maclaurin term goes like (|delta| / T)^5).
_HEAD_STEPS = 80
_HEAD_MAX_STEPS = 8 * _HEAD_STEPS
# Gauss-Jacobi nodes of the tail integral.
_TAIL_NODES = 32
# Most terms kept of the expansion of a log-gamma difference.
_LGAMMA_TERMS = 40


@lru_cache(maxsize=None)
def _lgamma_ratio_coeffs(alpha: complex) -> tuple[np.ndarray, float]:
    """Coefficients of ``lgamma(s+alpha) - lgamma(s+1) - (alpha-1) log s``.

    DLMF 5.11.13 expands it as ``sum_{k>=2} c_k s^(1-k)`` with
    ``c_k = (-1)^k (B_k(alpha) - B_k(1)) / (k (k-1))``.  The coefficients
    come highest order first, down to the last one whose term exceeds 1e-20
    at the smallest argument used, s = 80; the second value is the size there
    of the last term computed, which bounds what the expansion leaves out.
    """
    bern = sp.bernoulli(_LGAMMA_TERMS)
    orders = np.arange(2, _LGAMMA_TERMS + 1)
    coeffs = np.empty(len(orders), dtype=np.complex128)
    for i, k in enumerate(orders):
        powers = np.arange(k, -1, -1)
        binom = sp.comb(k, np.arange(k + 1)) * bern[: k + 1]
        bk = np.sum(binom * (alpha**powers - 1.0))
        coeffs[i] = (-1) ** k * bk / (k * (k - 1))
    sizes = np.abs(coeffs) * float(_HEAD_STEPS) ** (1 - orders)
    kept = np.flatnonzero(sizes >= 1e-20)
    coeffs = coeffs[: kept[-1] + 1 if len(kept) else 0]
    return coeffs[::-1].copy(), float(sizes[-1])


def _lgamma_ratio_remainder(coeffs: np.ndarray, x):
    """``sum_k c_k x^(k-1)`` at x = 1/s, by Horner; ``coeffs`` highest first."""
    acc = np.zeros(np.shape(x), dtype=np.complex128)
    for c in coeffs:
        acc = (acc + c) * x
    return acc


def _tail_sum(j: np.ndarray, k: np.ndarray, m: int, delta: complex, T: np.ndarray):
    """``sum_{t >= T} u_t / u_T`` and its error estimate, relative to u_T.

    Euler-Maclaurin: the integral of u(t)/u(T) over t >= T plus the B2 and B4
    derivative corrections at T.  With p = 2a + 2 + m the decay exponent of
    |u_t|, and y = T/t (that is x = y^(p-1) = (t/T)^-(p-1)),

        int_T^inf u(t)/u(T) dt = T int_0^1 y^(p-2) h(y) dy,

    where h = (t/T)^p u(t)/u(T).  log h is a sum of three brackets
    lgamma(s+alpha) - lgamma(s+beta) at s = t - j, t - k and t, with O(1)
    offsets, each taken relative to its value at t = T.  A bracket is
    (alpha-beta) log s plus an expansion in 1/s (the third one,
    lgamma(t+1) - lgamma(t+m+1), is -sum_i log(t+i) exactly), so no large
    log-gamma values cancel and 1/t = y/T never overflows, for every
    Re delta > -1/2.  h is analytic in y up to y = T/j >= 2 (or y = -T/m, if
    nearer), and the Gauss-Jacobi rule for the weight y^(p-2) integrates it to
    about rho^(-2N), rho being the Bernstein-ellipse parameter of that point.
    """
    a = delta.real
    dconj = delta.conjugate()
    T = T.astype(np.float64)
    p = 2.0 * a + 2.0 + m

    x, w = sp.roots_jacobi(_TAIL_NODES, 0.0, p - 2.0)
    w = w * 2.0 ** (1.0 - p)
    inv_t = 0.5 * (1.0 + x)[None, :] / T[:, None]
    coeffs, lg_err = _lgamma_ratio_coeffs(-delta)
    log_h = np.zeros(inv_t.shape, dtype=np.complex128)
    for idx, dlt, cf in ((j, delta, coeffs), (k, dconj, np.conj(coeffs))):
        c = idx[:, None].astype(np.float64)
        log_h += (-dlt - 1.0) * (np.log1p(-c * inv_t) - np.log1p(-c / T[:, None]))
        log_h += _lgamma_ratio_remainder(cf, inv_t / (1.0 - c * inv_t))
        log_h -= _lgamma_ratio_remainder(cf, 1.0 / (T - idx))[:, None]
    for i in range(1, m + 1):
        log_h -= np.log1p(i * inv_t) - np.log1p(i / T)[:, None]
    integral = T * (np.exp(log_h) @ w)

    # log-derivative corrections at T (Euler-Maclaurin with B2 and B4 terms)
    args_plus = (T - j - delta, T - k - dconj, T + 1)
    args_minus = (T - j + 1, T - k + 1, T + m + 1)
    d1 = sum(sp.digamma(z) for z in args_plus) - sum(sp.digamma(z) for z in args_minus)
    d2 = sum(_psi1(z) for z in args_plus) - sum(_psi1(z) for z in args_minus)
    d3 = sum(_psi2(z) for z in args_plus) - sum(_psi2(z) for z in args_minus)
    fppp = d3 + 3 * d1 * d2 + d1**3
    tail_rel = integral + 0.5 - (1 / 6) / 2.0 * d1 - (-1 / 30) / 24.0 * fppp

    # Error model: next Euler-Maclaurin correction, the quadrature bound
    # rho^(-N) (a square root of the rate, as h grows towards y = T/j), and
    # the truncated log-gamma expansions.
    deriv_scale = (np.abs(d1) + np.abs(d2) ** 0.5 + np.abs(d3) ** (1.0 / 3.0)) ** 5
    z0 = np.minimum(2.0 * T / np.maximum(j, 1) - 1.0, 2.0 * T / m + 1.0)
    rho = z0 + np.sqrt(z0 * z0 - 1.0)
    est = (1 / 30240.0) * deriv_scale + np.abs(integral) * (rho ** -_TAIL_NODES + 4.0 * lg_err)
    return tail_rel, est


def _moment_batch(j: np.ndarray, k: np.ndarray, m: int, delta: complex, head: int):
    """Moments ``c_{j,k}`` for index arrays with j >= k, and their error estimates.

    The moment is pi (m-1)! sum_{t >= j} u_t with the hypergeometric-type term

        u_t = [(-delta)_(t-j)/(t-j)!] [(-conj delta)_(t-k)/(t-k)!] t!/(t+m)!,

    summed exactly by its rational one-term recurrence up to T = j + H, with
    H = max(head, largest j), then completed by Euler-Maclaurin
    (:func:`_tail_sum`): the terms decay only like t^-(2a+2+m), so truncation
    alone cannot reach machine precision.  When delta is a nonnegative integer
    d the terms vanish beyond t = j + d, and the recurrence alone gives the
    finite sum.  The estimates cover the next Euler-Maclaurin term, the tail
    quadrature and expansions, and rounding.
    """
    a = delta.real
    dconj = delta.conjugate()
    terminating = delta.imag == 0.0 and a >= 0 and a == round(a)
    steps = int(a) + 1 if terminating else max(head, int(j.max()))
    d = j - k
    dmax = int(d.max())
    ratios = (np.arange(dmax) - dconj) / np.arange(1, dmax + 1)
    u = np.cumprod(np.concatenate(([1.0 + 0j], ratios)))[d]
    # u_j (m-1)!, carrying the moment's factor (m-1)!: j!/(j+m)! (m-1)! = 1/(m C(j+m, m))
    u = u / (m * sp.binom(j + m, m))
    head = np.zeros(len(j), dtype=np.complex128)
    head_abs = np.zeros(len(j))
    for s in range(steps):
        t = j + s
        head += u
        head_abs += np.abs(u)
        u = u * ((s - delta) * (t - k - dconj) * (t + 1)) / ((s + 1) * (t + 1 - k) * (t + 1 + m))

    if terminating:
        return math.pi * head, math.pi * 1e-16 * head_abs
    tail_rel, tail_est = _tail_sum(j, k, m, delta, j + steps)
    tail = u * tail_rel
    est = np.abs(u) * tail_est + 1e-16 * (head_abs + np.abs(tail))
    return math.pi * (head + tail), math.pi * est


def _moments(j, k, m: int, delta: complex, tol: float) -> np.ndarray:
    """Moments ``c_{j,k}`` for index arrays with j >= k.

    An entry that is not finite, or whose error estimate exceeds ``tol``
    relative to it, is summed again with the head doubled, up to
    ``_HEAD_MAX_STEPS``; then :class:`NumericalError` names the worst one.
    """
    j = np.asarray(j, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    vals = np.empty(len(j), dtype=np.complex128)
    est = np.empty(len(j))
    todo, head = np.arange(len(j)), _HEAD_STEPS
    while len(todo) and head <= _HEAD_MAX_STEPS:
        vals[todo], est[todo] = _moment_batch(j[todo], k[todo], m, delta, head)
        ratio = est / (tol * np.maximum(1.0, np.abs(vals)))
        ratio[~np.isfinite(vals) | ~np.isfinite(ratio)] = np.inf
        todo, head = np.flatnonzero(ratio > 1.0), 2 * head
    worst = int(np.argmax(ratio))
    if ratio[worst] > 1.0:
        raise NumericalError(
            f"moment series error estimate {est[worst]:.3e} exceeds tolerance for "
            f"j={j[worst]} k={k[worst]} m={m} delta={delta}"
        )
    return vals


def moment_series(j: int, k: int, m: int, delta: complex, tol: float = 1e-14) -> complex:
    """Moment ``c_{j,k}`` of the disc weight, by the series of :func:`gram_matrix`.

    Raises :class:`NumericalError` if the result is not finite or its error
    estimate exceeds ``tol`` relative to it.
    """
    delta = _check_moment_args(j, k, m, delta)
    if tol <= 0:
        raise ValueError("tol must be positive")
    j, k = int(j), int(k)
    # Swapping (j, k) conjugates the integral.
    if k > j:
        return complex(np.conj(_moments([k], [j], int(m), delta, float(tol))[0]))
    return complex(_moments([j], [k], int(m), delta, float(tol))[0])


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
    delta = _check_moment_args(j, k, m, delta)
    if radial_nodes < 64 or angular_nodes < 64:
        raise ValueError("node counts below 64 are not supported")
    ns = max(radial_nodes, (j + k) // 2 + 8)
    nphi = max(angular_nodes, 2 * (j + k) + 64)
    z, w = disc_weight_nodes(m, delta, ns, nphi)
    return complex(np.sum(w * z**j * np.conj(z) ** k))


def gram_matrix(n: int, m: int, delta: complex, tol: float = 1e-14) -> np.ndarray:
    """Hermitian matrix ``G[j, k] = c_{j,k}`` of monomial moments, 0 <= j, k < n."""
    check_basis_size(n)
    delta = _check_moment_args(0, 0, m, delta)
    n = int(n)
    jj, kk = np.tril_indices(n)
    vals = _moments(jj, kk, int(m), delta, float(tol))
    g = np.empty((n, n), dtype=np.complex128)
    g[jj, kk] = vals
    g[kk, jj] = np.conj(vals)
    return g
