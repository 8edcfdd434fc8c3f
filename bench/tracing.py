"""Spans around the calls into each hplab module, recorded from outside.

The tracer replaces a public function by a timing wrapper in every hplab
module namespace that holds it, so calls made from inside the program (for
example ``hplab.truncation.sample_haar_unitary``) are seen as well as the
benchmark's own.  Spans (name, start, end, parent) are kept in memory and
written when the run ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _gram_size(args, kwargs, result):
    return args[0] if args else kwargs["n"]


def _result(args, kwargs, result):
    return result


def _basis_id(args, kwargs, result):
    return id(args[0] if args else kwargs["basis"])


# (module, attribute, capture).  ``capture`` keeps a value from each call for
# the derived metrics.  ``_sampler_plan`` is private; it is traced only to
# count envelope restarts, and skipped if it no longer exists.
TARGETS = (
    ("sampling", "sample_haar_unitary", None),
    ("sampling", "hp_log_weight", None),
    ("sampling", "sample_hua_pickrell_rejection", None),
    ("sampling", "sample_hua_pickrell_mh", None),
    ("truncation", "sample_truncation_ensemble", None),
    ("truncation", "eigenvalues", None),
    ("weights", "gram_matrix", _gram_size),
    ("weights", "weight_eval", None),
    ("orthopoly", "orthonormal_basis", _result),
    ("orthopoly", "PolynomialBasis.evaluate", None),
    ("dpp", "equal_mass_partition", None),
    ("dpp", "verify_intensities", None),
    ("dpp", "sample_projection_dpp", None),
    ("dpp", "_sampler_plan", _basis_id),
    ("dpp", "convergence_profile", None),
    ("dpp", "gauge_identity_check", _result),
    ("cli", "run", None),
)


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans while ``active``; ``install`` and ``uninstall`` patch the program."""

    def __init__(self):
        self.spans: list = []
        self.captured: dict[str, list] = defaultdict(list)
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._children: list[float] = []

    def _wrap(self, name, fn, capture):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if capture is not None:
                self.captured[name].append(capture(args, kwargs, result))
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for whole jobs)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self):
        hplab_modules = [
            mod for key, mod in sys.modules.items() if key == "hplab" or key.startswith("hplab.")
        ]
        for module, attr, capture in TARGETS:
            owner = sys.modules[f"hplab.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{module}.{leaf}", orig, capture)
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in hplab_modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def stats(self, lo: int = 0, hi: int | None = None) -> dict[str, NameStats]:
        """Calls, total and self time per span name, over spans ``lo:hi``."""
        spans = self.spans
        if len(self._children) != len(spans):
            self._children = [0.0] * len(spans)
            for _, t0, t1, parent in spans:
                if parent >= 0:
                    self._children[parent] += t1 - t0
        children = self._children
        out: dict[str, NameStats] = defaultdict(NameStats)
        for idx in range(lo, len(spans) if hi is None else hi):
            name, t0, t1, _ = spans[idx]
            st = out[name]
            st.calls += 1
            st.total_s += t1 - t0
            st.self_s += t1 - t0 - children[idx]
        return out

    def write(self, path):
        """Write the spans as gzipped CSV: name, start and end in us from the first span, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for idx, (name, t0, t1, parent) in enumerate(self.spans):
                start, end = (t0 - origin) * 1e6, (t1 - origin) * 1e6
                fh.write(f"{idx},{name},{start:.3f},{end:.3f},{parent}\n")
