"""Deterministic, splittable random streams.

Every sampler in the package draws from an :class:`RngStream`.  A stream is
identified by ``(seed, stream_id)`` plus an optional substream path; equal
identifiers always reproduce the same draw sequence, and distinct identifiers
give statistically independent streams.  Substreams make parallel Monte Carlo
independent of the thread count: work unit ``i`` always consumes
``stream.substream(i)`` no matter which thread runs it.
"""

from __future__ import annotations

import numpy as np

_MAX_SEED = 2**64


class RngStream:
    """A PCG64 generator keyed by ``(seed, stream_id, *path)``.

    The key is fed through :class:`numpy.random.SeedSequence`, so distinct
    keys decorrelate even when they differ in a single integer.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        if not 0 <= stream_id < _MAX_SEED:
            raise ValueError(f"stream_id must be an unsigned 64-bit integer, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        self.path = tuple(int(p) for p in _path)
        key = (seed, stream_id) + self.path
        self.generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

    def substream(self, index: int) -> "RngStream":
        """Child stream for work unit ``index``; deterministic and independent."""
        index = int(index)
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RngStream(self.seed, self.stream_id, self.path + (index,))

    # thin passthroughs used throughout the samplers
    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, path={self.path})"
