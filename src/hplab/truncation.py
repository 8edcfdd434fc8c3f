"""Corner truncation of unitary matrices and ensemble generation.

The top-left n x n corner of a Hua-Pickrell distributed U(n+m) matrix has all
eigenvalues strictly inside the unit disc (almost surely); those eigenvalue
configurations are the point process this package studies.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

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
)

__all__ = [
    "SAMPLERS",
    "ENSEMBLE_CHUNK",
    "truncate",
    "eigenvalues",
    "sample_truncation_ensemble",
]

# Ensembles are generated in fixed-size chunks, each on its own RNG substream,
# so results are identical for any worker count.
ENSEMBLE_CHUNK = 256


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


def _chunk_points(params: HPParams, sampler: str, chunk_rng: RngStream, count: int) -> np.ndarray:
    """Eigenvalue configurations for one chunk of an iid ensemble."""
    if sampler == "haar":
        u = sample_haar_unitaries(params.dim, count, chunk_rng)
    else:
        u, _ = _rejection_stack(params.dim, params.delta, count, chunk_rng)
    return eigenvalues(truncate(u, params.n))


def _chunk_worker(args) -> np.ndarray:
    n, m, delta, sampler, seed, stream_id, path, count = args
    params = HPParams(n, m, delta)
    rng = RngStream(seed, stream_id)
    for idx in path:
        rng = rng.substream(idx)
    return _chunk_points(params, sampler, rng, count)


def sample_truncation_ensemble(
    params: HPParams,
    count: int,
    sampler: str,
    rng: RngStream,
    *,
    mh: MHConfig | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Array of shape (count, n): eigenvalues of truncated random unitaries.

    ``sampler`` selects the ambient U(n+m) distribution: "haar" (delta must be
    0), "hp_rejection" (Re delta >= 0), or "hp_mh" (any admissible delta); see
    :func:`hplab.sampling.check_sampler`.
    Rows within a configuration are in eigensolver order, not sorted.

    The iid samplers are split into chunks of ``ENSEMBLE_CHUNK`` draws, chunk
    ``c`` consuming substream ``c`` of ``rng``; ``workers`` > 1 distributes
    chunks over processes without changing the output.  The MH sampler is a
    single sequential chain (substream 0) and ignores ``workers``.
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
        from .sampling import sample_hua_pickrell_mh

        cfg = mh or MHConfig()
        chain_rng = rng.substream(0)
        mats = sample_hua_pickrell_mh(params.dim, params.delta, count, cfg, chain_rng)
        return eigenvalues(truncate(mats, params.n))

    n_chunks = (count + ENSEMBLE_CHUNK - 1) // ENSEMBLE_CHUNK
    sizes = [min(ENSEMBLE_CHUNK, count - c * ENSEMBLE_CHUNK) for c in range(n_chunks)]
    if workers > 1 and n_chunks > 1:
        payload = [
            (params.n, params.m, params.delta, sampler, rng.seed, rng.stream_id,
             rng.path + (c,), sizes[c])
            for c in range(n_chunks)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_worker, payload))
    else:
        chunks = [
            _chunk_points(params, sampler, rng.substream(c), sizes[c])
            for c in range(n_chunks)
        ]
    return np.concatenate(chunks, axis=0)
