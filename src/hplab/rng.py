"""Deterministic, splittable random streams.

Every sampler in the package draws from an :class:`RngStream`.  A stream is
identified by its seed plus an optional substream path, and keyed by
``(seed, 0, *path)``; equal keys always reproduce the same draw sequence, and
distinct keys give statistically independent streams.  Substreams make
parallel Monte Carlo independent of the thread count: work unit ``i`` always
consumes ``stream.substream(i)`` no matter which thread runs it.
"""

from __future__ import annotations

import numpy as np

_MAX_SEED = 2**64


class RngStream:
    """A PCG64 generator keyed by ``(seed, 0, *path)``.

    The key is fed through :class:`numpy.random.SeedSequence`, so distinct
    keys decorrelate even when they differ in a single integer.  The constant
    0 is part of the key: dropping it would change the draws of every
    stream.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(p) for p in _path)
        key = (seed, 0) + self.path
        self.generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

    def substream(self, index: int) -> "RngStream":
        """Child stream for work unit ``index``; deterministic and independent."""
        index = int(index)
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RngStream(self.seed, self.path + (index,))

    # thin passthroughs used throughout the samplers
    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"
