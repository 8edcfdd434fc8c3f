"""Samplers for Haar and Hua-Pickrell distributed unitary matrices.

The Hua-Pickrell measure on U(N) with parameter delta (Re delta > -1/2) has
density proportional to ``|det(I - U)^delta|^2`` against Haar measure.  Two
samplers target it: an exact rejection sampler valid for Re delta >= 0, and an
independence Metropolis-Hastings chain with Haar proposals valid for every
admissible delta.  Both consume only differences of ``hp_log_weights``, so
the unknown normalization constant of the measure never enters.

Haar draws and log-weights work on stacks of shape ``(count, dim, dim)``, and
the single-matrix functions are their ``count = 1`` case.  The rejection
sampler proposes in blocks.  The Metropolis chain proposes in speculative
blocks that it rewinds at the first certain move, so a seed gives the same
chain as stepping one proposal at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ConfigError, NumericalError, check_params
from .rng import RngStream

__all__ = [
    "SAMPLERS",
    "HPParams",
    "MHConfig",
    "check_sampler",
    "sample_haar_unitary",
    "sample_haar_unitaries",
    "hp_log_weight",
    "hp_log_weights",
    "sample_hua_pickrell_rejection",
    "sample_hua_pickrell_mh",
    "unitarity_defect",
]

SAMPLERS = ("haar", "hp_rejection", "hp_mh")

# Matrix entries per block of Haar proposals in the rejection sampler: 3640
# proposals on U(3), about 0.5 MB per complex stack.
PROPOSAL_BLOCK_ENTRIES = 2**15

# Expected Haar proposals above which a rejection run is refused up front; the
# largest run in the test suite (2e4 samples on U(4) at delta = 1) needs 1e6.
REJECTION_MAX_PROPOSALS = 1e8

# Most proposals in one speculative block of the Metropolis chain.
MH_BLOCK_MAX = 64


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
            raise ConfigError("bad-value", f"n must be >= 1, got {self.n}", field="n")
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
            raise ConfigError("bad-value", f"burn_in must be >= 0, got {self.burn_in}", field="mh")
        if self.thinning < 1:
            raise ConfigError("bad-value", f"thinning must be >= 1, got {self.thinning}",
                              field="mh")


def check_sampler(sampler: str | None, delta: complex) -> str:
    """The matrix sampler for ``delta``: ``sampler`` once it is admissible, or
    the default when it is None.

    "haar" needs delta = 0, "hp_rejection" needs Re delta >= 0 so that its
    density ratio is bounded, and "hp_mh" takes every admissible delta.  The
    default is hp_rejection where it applies and hp_mh otherwise.  Anything
    else raises :class:`ConfigError`.
    """
    if sampler is None:
        return "hp_rejection" if delta.real >= 0 else "hp_mh"
    if sampler not in SAMPLERS:
        raise ConfigError("bad-value", f"sampler must be one of {SAMPLERS}, got {sampler!r}",
                          field="sampler")
    if sampler == "haar" and delta != 0:
        raise ConfigError("sampler-delta", "the haar sampler requires delta = 0", field="sampler")
    if sampler == "hp_rejection" and delta.real < 0:
        raise ConfigError("sampler-delta", "hp_rejection requires Re delta >= 0", field="sampler")
    return sampler


def _defects(u: np.ndarray) -> np.ndarray:
    """Max-norm of U*U - I per matrix of a stack ``(..., dim, dim)``."""
    gram = np.swapaxes(u.conj(), -1, -2) @ u
    return np.max(np.abs(gram - np.eye(u.shape[-1])), axis=(-2, -1), initial=0.0)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U*U - I, over every matrix of a stack ``(..., dim, dim)``."""
    return float(np.max(_defects(np.asarray(u)), initial=0.0))


def _ginibre(g: np.ndarray) -> np.ndarray:
    """Ginibre matrices from standard normals of shape ``(..., 2, rows, cols)``:
    each matrix takes its real parts, then its imaginary parts."""
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def _haar_from_normals(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unitaries of :func:`sample_haar_unitaries` from standard normals of
    shape ``(count, 2, dim, dim)``, and the unitarity defect of each.

    A singular Ginibre draw has a zero on the diagonal of R; its column of Q
    is zeroed, so its defect is 1.  :func:`_check_haar` turns a defect into
    an error.
    """
    q, r = np.linalg.qr(_ginibre(g))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.where(d == 0, 1.0, np.abs(d)))[:, None, :]
    return u, _defects(u)


def _check_haar(defect: float) -> None:
    """Raise :class:`NumericalError` for a defect of :func:`_haar_from_normals`
    above 1e-12 or NaN."""
    if not defect <= 1e-12:
        raise NumericalError(
            f"Haar draw is not unitary, defect {defect:.3e}: the Ginibre draw was "
            "numerically singular or QR failed"
        )


def sample_haar_unitaries(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` independent Haar-distributed U(dim) matrices, shape (count, dim, dim).

    Each is the Q factor of a Ginibre draw with its columns multiplied by the
    phases of the diagonal of R.  The QR decomposition is not unique; that
    phase fix makes the diagonal of R real positive and the distribution
    exactly Haar.  The draws consume the stream in the order of ``count``
    consecutive single draws, ``2 dim^2`` normals each.
    """
    if dim < 1:
        raise ValueError("matrix dimensions must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    u, defect = _haar_from_normals(rng.standard_normal((count, 2, dim, dim)))
    _check_haar(float(np.max(defect, initial=0.0)))
    return u


def sample_haar_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """One Haar-distributed U(dim) matrix; see :func:`sample_haar_unitaries`."""
    return sample_haar_unitaries(dim, 1, rng)[0]


def hp_log_weights(u: np.ndarray, delta: complex) -> np.ndarray:
    """Log of the unnormalized Hua-Pickrell density against Haar, per matrix of
    a stack ``(count, dim, dim)``.

    Equals ``2 Re(delta * sum_i Log(1 - lambda_i))`` over the eigenvalues
    ``lambda_i`` of each matrix, with the principal branch of Log.  For real
    delta no branch enters and ``2 delta log|det(I - U)|`` is used.  A matrix
    with an eigenvalue exactly 1 gives -inf for Re delta > 0 and +inf for
    Re delta < 0; for a purely imaginary delta that singular factor is dropped
    (it carries no weight in modulus).  A stack with a unitarity defect above
    1e-10, or a NaN one, raises :class:`ValueError`.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if not np.all(unitarity_defect(u) <= 1e-10):
        raise ValueError("matrix is not unitary within tolerance 1e-10")
    return _log_weights(u, complex(delta))


def _log_weights(u: np.ndarray, delta: complex) -> np.ndarray:
    """:func:`hp_log_weights` of a stack already known to be unitary, such as
    the output of :func:`sample_haar_unitaries`."""
    try:
        if delta.imag == 0:
            sign, logdet = np.linalg.slogdet(np.eye(u.shape[1]) - u)
            singular = sign == 0
            logw = 2.0 * delta.real * np.where(singular, 0.0, logdet)
        else:
            one_minus = 1.0 - np.linalg.eigvals(u)
            zero = one_minus == 0
            singular = np.any(zero, axis=1)
            logs = np.log(np.where(zero, 1.0, one_minus))
            logw = 2.0 * np.real(delta * np.sum(logs, axis=1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    if delta.real != 0:
        logw[singular] = -math.copysign(math.inf, delta.real)
    return logw


def hp_log_weight(u: np.ndarray, delta: complex) -> float:
    """Log-weight of one square matrix; see :func:`hp_log_weights`."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    return float(hp_log_weights(u[None], delta)[0])


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


def _check_rejection_cost(dim: int, delta: complex, count: int) -> None:
    """Refuse ``count`` rejection samples on U(dim) that are expected to need
    more than ``REJECTION_MAX_PROPOSALS`` Haar proposals, with a
    :class:`NumericalError` that names the acceptance and the cost."""
    acceptance = _rejection_acceptance(dim, delta)
    # compared as a product: the acceptance underflows to 0.0 for large U(N)
    if count > REJECTION_MAX_PROPOSALS * acceptance:
        need = f"about {count / acceptance:.3g}" if acceptance > 0 else "unboundedly many"
        raise NumericalError(
            f"hp_rejection on U({dim}) at delta = {delta} accepts "
            f"{acceptance:.3g} of its Haar proposals: {count} samples need {need} "
            f"proposals, over the limit of {REJECTION_MAX_PROPOSALS:.0e}; use hp_mh"
        )


def _rejection_stack(dim: int, delta: complex, count: int, rng: RngStream):
    """``count`` exact Hua-Pickrell samples on U(dim) by rejection from Haar.

    Returns the stack ``(count, dim, dim)`` and the number of Haar proposals
    up to and including the last accepted one.  Proposals come in blocks of
    about the expected number still needed, capped at
    ``PROPOSAL_BLOCK_ENTRIES`` matrix entries; each proposal has one uniform,
    and acceptances are kept in proposal order.  The callers check the sampler
    and the cost.
    """
    log_bound = _rejection_log_bound(dim, delta)
    acceptance = _rejection_acceptance(dim, delta)
    cap = max(1, PROPOSAL_BLOCK_ENTRIES // dim**2)
    kept = [np.empty((0, dim, dim), dtype=np.complex128)]
    proposals, remaining = 0, count
    while remaining > 0:
        size = cap if remaining > cap * acceptance else math.ceil(remaining / acceptance)
        u = sample_haar_unitaries(dim, size, rng)
        logw = _log_weights(u, delta)
        # log(uniform) < logw - logB accepts with probability exp(logw - logB)
        hits = np.flatnonzero(np.log(rng.random(size)) < logw - log_bound)[:remaining]
        kept.append(u[hits])
        remaining -= hits.size
        proposals += int(hits[-1]) + 1 if remaining == 0 else size
    return np.concatenate(kept), proposals


def sample_hua_pickrell_rejection(dim: int, delta: complex, rng: RngStream) -> np.ndarray:
    """Exact Hua-Pickrell sample on U(dim) by rejection from Haar.

    Requires Re delta >= 0 so the density ratio is bounded.  A draw expected
    to need more than ``REJECTION_MAX_PROPOSALS`` Haar proposals raises
    :class:`NumericalError` before any sampling.
    """
    delta = complex(delta)
    check_sampler("hp_rejection", delta)
    _check_rejection_cost(dim, delta, 1)
    return _rejection_stack(dim, delta, 1, rng)[0][0]


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
) -> np.ndarray:
    """Hua-Pickrell samples on U(dim) via independence Metropolis-Hastings.

    Proposals are fresh Haar draws; moves are accepted with probability
    ``min(1, exp(logw(V) - logw(U)))``.  After ``cfg.burn_in`` proposals the
    chain emits one state every ``cfg.thinning`` proposals, ``count`` times,
    as a stack ``(count, dim, dim)``.  At delta = 0 every proposal is accepted
    and the output is exactly Haar.

    Each step consumes ``2 dim^2`` normals, then one uniform unless its move is
    certain.  Steps run in speculative blocks: a block draws its normals and
    uniforms in stream order as if no move were certain, builds and weighs its
    proposals as one stack, then walks them.  At the first certain move it
    rewinds the generator to just before that step's uniform, and the next
    block starts there; the last step of a block draws its uniform only when
    it needs one.  So a seed keeps its chain whatever the block sizes.  Blocks
    double while no move is certain, up to ``MH_BLOCK_MAX`` steps, and halve
    otherwise.  A proposal from a singular Ginibre draw or a failed QR raises
    :class:`NumericalError` when the walk reaches it.
    """
    delta = check_params(None, delta)
    if count < 0:
        raise ValueError("count must be nonnegative")
    current = sample_haar_unitary(dim, rng)
    logw_cur = hp_log_weight(current, delta)
    gen = rng.generator
    out = np.empty((count, dim, dim), dtype=np.complex128)
    steps = cfg.burn_in + cfg.thinning * count
    buffer = np.empty((MH_BLOCK_MAX, 2, dim, dim))
    done, size = 0, 1
    while done < steps:
        size = min(size, steps - done)
        normals = buffer[:size]
        states, uniforms = [], []
        for i in range(size):
            gen.standard_normal(out=normals[i])
            if i < size - 1:
                states.append(gen.bit_generator.state)
                uniforms.append(gen.random())
        props, defects = _haar_from_normals(normals)
        logws = _log_weights(props, delta).tolist()
        for i in range(size):
            _check_haar(defects[i])
            p = _mh_accept_probability(logws[i], logw_cur)
            certain = p >= 1.0
            if certain or (uniforms[i] if i < size - 1 else gen.random()) < p:
                current, logw_cur = props[i], logws[i]
            done += 1
            if done > cfg.burn_in and (done - cfg.burn_in) % cfg.thinning == 0:
                out[(done - cfg.burn_in) // cfg.thinning - 1] = current
            if certain:
                if i < size - 1:
                    gen.bit_generator.state = states[i]
                break
        size = max(1, size // 2) if certain else min(2 * size, MH_BLOCK_MAX)
    return out
