"""Corner truncation of unitary matrices and ensemble generation.

The top-left n x n corner of a Hua-Pickrell distributed U(n+m) matrix has all
eigenvalues strictly inside the unit disc (almost surely); those eigenvalue
configurations are the point process this package studies.  Ensembles are
drawn in chunks on threads: NumPy's stacked linear algebra releases the GIL.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericalError
from .rng import RngStream
from .sampling import (
    SAMPLERS,
    HPParams,
    MHConfig,
    _check_rejection_cost,
    _rejection_stack,
    check_sampler,
    sample_haar_unitaries,
    sample_haar_unitary,  # noqa: F401  (bench/test_checks.py reads it from here)
    sample_hua_pickrell_mh,
)

__all__ = [
    "SAMPLERS",
    "ENSEMBLE_CHUNK",
    "ensemble_threads",
    "truncate",
    "eigenvalues",
    "sample_truncation_ensemble",
]

# Ensembles are generated in fixed-size chunks, each on its own RNG substream,
# so results are identical for any thread count.
ENSEMBLE_CHUNK = 256


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ensemble_threads(count: int, sampler: str) -> int:
    """Threads :func:`sample_truncation_ensemble` uses for ``count`` draws: one
    per chunk up to the CPU count, at least one, and one for the MH chain."""
    if sampler == "hp_mh":
        return 1
    return max(1, min(_cpu_count(), -(-count // ENSEMBLE_CHUNK)))


def truncate(u: np.ndarray, keep: int) -> np.ndarray:
    """Top-left ``keep`` x ``keep`` corner of a square matrix, or of each
    matrix of a stack ``(..., dim, dim)``, as a copy."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError("expected a square matrix")
    if not 1 <= keep <= u.shape[-1]:
        raise ValueError(f"keep must be in [1, {u.shape[-1]}], got {keep}")
    return u[..., :keep, :keep].copy()


def eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general complex matrix, or of each matrix of a stack
    ``(..., n, n)`` (unordered, shape ``(..., n)``)."""
    mat = np.asarray(mat, dtype=np.complex128)
    try:
        return np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc


def sample_truncation_ensemble(
    params: HPParams,
    count: int,
    sampler: str,
    rng: RngStream,
    *,
    mh: MHConfig | None = None,
) -> np.ndarray:
    """Array of shape (count, n): eigenvalues of truncated random unitaries.

    ``sampler`` selects the ambient U(n+m) distribution: "haar" (delta must be
    0), "hp_rejection" (Re delta >= 0), or "hp_mh" (any admissible delta); see
    :func:`hplab.sampling.check_sampler`.
    Rows within a configuration are in eigensolver order, not sorted.

    The iid samplers are split into chunks of ``ENSEMBLE_CHUNK`` draws, chunk
    ``c`` consuming substream ``c`` of ``rng``; the chunks run on
    :func:`ensemble_threads` threads, and the output does not depend on that
    number.  An error raised in any chunk reaches the caller.  The MH sampler
    is a single sequential chain (substream 0).
    A rejection run expected to need over
    :data:`hplab.sampling.REJECTION_MAX_PROPOSALS` Haar proposals raises
    :class:`NumericalError` before any sampling.
    """
    sampler = check_sampler(sampler, params.delta)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if sampler == "hp_rejection":
        _check_rejection_cost(params.dim, params.delta, count)
    if count == 0:
        return np.empty((0, params.n), dtype=np.complex128)

    if sampler == "hp_mh":
        cfg = mh or MHConfig()
        chain_rng = rng.substream(0)
        mats = sample_hua_pickrell_mh(params.dim, params.delta, count, cfg, chain_rng)
        return eigenvalues(truncate(mats, params.n))

    n_chunks = -(-count // ENSEMBLE_CHUNK)

    def chunk(c: int) -> np.ndarray:
        size = min(ENSEMBLE_CHUNK, count - c * ENSEMBLE_CHUNK)
        if sampler == "haar":
            u = sample_haar_unitaries(params.dim, size, rng.substream(c))
        else:
            u, _ = _rejection_stack(params.dim, params.delta, size, rng.substream(c))
        return eigenvalues(truncate(u, params.n))

    with ThreadPoolExecutor(max_workers=ensemble_threads(count, sampler)) as pool:
        return np.concatenate(list(pool.map(chunk, range(n_chunks))), axis=0)
