import itertools

import numpy as np
import pytest
import scipy.stats as st

from hplab import sampling, truncation
from hplab.errors import NumericalError
from hplab.rng import RngStream
from hplab.sampling import HPParams, MHConfig, sample_haar_unitary
from hplab.truncation import (
    ENSEMBLE_CHUNK,
    eigenvalues,
    ensemble_threads,
    sample_truncation_ensemble,
    truncate,
)

from reference import ginibre_rejection


def test_truncate_takes_corner_copy():
    u = sample_haar_unitary(5, RngStream(1))
    t = truncate(u, 3)
    assert t.shape == (3, 3)
    assert np.array_equal(t, u[:3, :3])
    t[0, 0] = 0
    assert u[0, 0] != 0


def test_truncate_validation():
    u = sample_haar_unitary(4, RngStream(2))
    with pytest.raises(ValueError):
        truncate(u, 0)
    with pytest.raises(ValueError):
        truncate(u, 5)


def test_eigenvalues_residual():
    # each reported eigenvalue must nearly annihilate the matrix
    m = truncate(sample_haar_unitary(8, RngStream(3)), 5)
    lam = eigenvalues(m)
    assert lam.shape == (5,)
    scale = np.linalg.norm(m, 2)
    for z in lam:
        smin = np.linalg.svd(m - z * np.eye(5), compute_uv=False)[-1]
        assert smin <= 1e-8 * scale


def test_ensemble_shape_and_disc():
    params = HPParams(3, 2, 1.0)
    pts = sample_truncation_ensemble(params, 120, "hp_rejection", RngStream(7))
    assert pts.shape == (120, 3)
    assert np.all(np.abs(pts) < 1.0)


def test_ensemble_sampler_validation():
    with pytest.raises(ValueError):
        sample_truncation_ensemble(HPParams(2, 1, 0.0), 4, "bogus", RngStream(0))
    # haar demands delta = 0
    with pytest.raises(ValueError):
        sample_truncation_ensemble(HPParams(2, 1, 1.0), 4, "haar", RngStream(0))
    # rejection demands Re delta >= 0
    with pytest.raises(ValueError):
        sample_truncation_ensemble(HPParams(2, 1, -0.3), 4, "hp_rejection", RngStream(0))


def _on_cpus(monkeypatch, cpus, params, count, sampler, seed, **kw):
    """The ensemble as a process with ``cpus`` CPUs draws it."""
    monkeypatch.setattr(truncation, "_cpu_count", lambda: cpus)
    return sample_truncation_ensemble(params, count, sampler, RngStream(seed), **kw)


def test_ensemble_worker_invariance(monkeypatch):
    params = HPParams(2, 1, 0.0)
    count = 2 * ENSEMBLE_CHUNK + 40
    a = _on_cpus(monkeypatch, 1, params, count, "haar", 11)
    b = _on_cpus(monkeypatch, 3, params, count, "haar", 11)
    assert ensemble_threads(count, "haar") == 3
    assert a.tobytes() == b.tobytes()


def test_ensemble_chunk_prefix_stability():
    # the first chunk is identical regardless of how many chunks follow
    params = HPParams(2, 1, 0.0)
    small = sample_truncation_ensemble(params, ENSEMBLE_CHUNK, "haar", RngStream(13))
    big = sample_truncation_ensemble(params, ENSEMBLE_CHUNK + 100, "haar", RngStream(13))
    assert np.array_equal(small, big[:ENSEMBLE_CHUNK])


def test_rejection_ensemble_worker_invariance(monkeypatch):
    params = HPParams(2, 1, 1.0)
    count = 2 * ENSEMBLE_CHUNK + 40
    a = _on_cpus(monkeypatch, 1, params, count, "hp_rejection", 11)
    b = _on_cpus(monkeypatch, 3, params, count, "hp_rejection", 11)
    assert ensemble_threads(count, "hp_rejection") == 3
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_ensemble_chunk_error_reaches_the_caller(monkeypatch, cpus):
    # every QR after the first returns a Q that is not unitary, so a chunk
    # other than the first raises on its worker thread
    monkeypatch.setattr(truncation, "_cpu_count", lambda: cpus)
    real_qr = np.linalg.qr
    calls = itertools.count()  # next() on it is atomic

    def qr(a):
        q, r = real_qr(a)
        return (q, r) if next(calls) == 0 else (1.001 * q, r)

    monkeypatch.setattr(np.linalg, "qr", qr)
    with pytest.raises(NumericalError, match="not unitary"):
        sample_truncation_ensemble(HPParams(2, 1, 0.0), 3 * ENSEMBLE_CHUNK, "haar", RngStream(5))


@pytest.mark.parametrize("cpus", [1, 3])
def test_rejection_chunk_error_reaches_the_caller(monkeypatch, cpus):
    # each chunk builds its corners in one call; every call after the first
    # returns rows that are not orthonormal, so a chunk other than the first
    # raises on its worker thread
    monkeypatch.setattr(truncation, "_cpu_count", lambda: cpus)
    real_rows = sampling._reflection_rows
    calls = itertools.count()  # next() on it is atomic

    def rows(v):
        x = real_rows(v)
        return x if next(calls) == 0 else 1.001 * x

    monkeypatch.setattr(sampling, "_reflection_rows", rows)
    with pytest.raises(NumericalError, match="not unitary"):
        sample_truncation_ensemble(HPParams(2, 1, 1.0), 3 * ENSEMBLE_CHUNK, "hp_rejection",
                                   RngStream(5))
    assert next(calls) == 3  # every chunk ran


@pytest.mark.parametrize("n, m, delta", [(2, 1, 1.0), (1, 2, 0.5 + 0.25j)])
def test_rejection_corners_match_ginibre_rejection(n, m, delta):
    # the Verblunsky sampler's corners against rejection from Ginibre-QR Haar
    # draws weighed by their eigenvalues: KS on Re and Im of the trace and on
    # sum |z_i|^2, Bonferroni level 1e-3 over both cases
    count, alpha = 3000, 1e-3 / 6
    new = sample_truncation_ensemble(HPParams(n, m, delta), count, "hp_rejection", RngStream(41))
    old = eigenvalues(truncate(ginibre_rejection(n + m, delta, count, RngStream(42)), n))

    def stats(z):
        t = z.sum(axis=1)
        return t.real, t.imag, np.sum(np.abs(z) ** 2, axis=1)

    for a, b in zip(stats(new), stats(old)):
        assert st.ks_2samp(a, b).pvalue >= alpha


def test_rejection_ensemble_chunk_prefix_stability():
    params = HPParams(2, 1, 1.0)
    small = sample_truncation_ensemble(params, ENSEMBLE_CHUNK, "hp_rejection", RngStream(13))
    big = sample_truncation_ensemble(params, ENSEMBLE_CHUNK + 100, "hp_rejection", RngStream(13))
    assert np.array_equal(small, big[:ENSEMBLE_CHUNK])


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2), (5, 3)])
def test_haar_ensemble_equals_per_draw_loop(n, m):
    # the stacked chunk must reproduce, bit for bit, one draw, corner and
    # eigensolve at a time on substream c for chunk c
    params = HPParams(n, m, 0.0)
    for count in (1, 255, 256, 257, 600):
        rng = RngStream(29)
        ref = []
        for c in range(-(-count // ENSEMBLE_CHUNK)):
            chunk = rng.substream(c)
            for _ in range(min(ENSEMBLE_CHUNK, count - c * ENSEMBLE_CHUNK)):
                ref.append(eigenvalues(truncate(sample_haar_unitary(n + m, chunk), n)))
        ref = np.array(ref)
        got = sample_truncation_ensemble(params, count, "haar", RngStream(29))
        assert got.shape == (count, n)
        assert got.tobytes() == ref.tobytes()


def test_mh_ensemble_deterministic_and_ignores_workers(monkeypatch):
    params = HPParams(2, 1, complex(-0.25, 0.0))
    cfg = MHConfig(burn_in=50, thinning=2)
    count = ENSEMBLE_CHUNK + 40
    a = _on_cpus(monkeypatch, 1, params, count, "hp_mh", 17, mh=cfg)
    b = _on_cpus(monkeypatch, 3, params, count, "hp_mh", 17, mh=cfg)
    assert ensemble_threads(count, "hp_mh") == 1
    assert a.tobytes() == b.tobytes()


def test_single_point_haar_truncation_is_uniform_disc():
    # the 1x1 corner of a Haar U(2) matrix is uniform on the unit disc
    pts = sample_truncation_ensemble(HPParams(1, 1, 0.0), 4000, "haar", RngStream(19))
    z = pts[:, 0]
    r2 = np.abs(z) ** 2
    # |z|^2 is uniform on [0, 1]
    assert abs(np.mean(r2) - 0.5) < 4 * np.sqrt(1 / 12 / len(z))
    hist, _ = np.histogram(np.angle(z), bins=8, range=(-np.pi, np.pi))
    expected = len(z) / 8
    assert np.sum((hist - expected) ** 2 / expected) < 24.3
