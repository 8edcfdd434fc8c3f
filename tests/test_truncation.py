import numpy as np
import pytest

from hplab.rng import RngStream
from hplab.sampling import HPParams, MHConfig, sample_haar_unitary
from hplab.truncation import (
    ENSEMBLE_CHUNK,
    eigenvalues,
    sample_truncation_ensemble,
    truncate,
)


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


def test_ensemble_worker_invariance():
    params = HPParams(2, 1, 0.0)
    count = ENSEMBLE_CHUNK + 40
    a = sample_truncation_ensemble(params, count, "haar", RngStream(11), workers=1)
    b = sample_truncation_ensemble(params, count, "haar", RngStream(11), workers=3)
    assert np.array_equal(a, b)


def test_ensemble_chunk_prefix_stability():
    # the first chunk is identical regardless of how many chunks follow
    params = HPParams(2, 1, 0.0)
    small = sample_truncation_ensemble(params, ENSEMBLE_CHUNK, "haar", RngStream(13))
    big = sample_truncation_ensemble(params, ENSEMBLE_CHUNK + 100, "haar", RngStream(13))
    assert np.array_equal(small, big[:ENSEMBLE_CHUNK])


def test_rejection_ensemble_worker_invariance():
    params = HPParams(2, 1, 1.0)
    count = ENSEMBLE_CHUNK + 40
    a = sample_truncation_ensemble(params, count, "hp_rejection", RngStream(11), workers=1)
    b = sample_truncation_ensemble(params, count, "hp_rejection", RngStream(11), workers=3)
    assert np.array_equal(a, b)


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


def test_mh_ensemble_deterministic_and_ignores_workers():
    params = HPParams(2, 1, complex(-0.25, 0.0))
    cfg = MHConfig(burn_in=50, thinning=2)
    a = sample_truncation_ensemble(params, 40, "hp_mh", RngStream(17), mh=cfg, workers=1)
    b = sample_truncation_ensemble(params, 40, "hp_mh", RngStream(17), mh=cfg, workers=4)
    assert np.array_equal(a, b)


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
