"""The benchmark's workloads: lists of jobs that call hplab's public functions.

A job runs one CLI command (``hplab.cli.parse_config`` then ``run``) or one
library pipeline, returns its output for the untimed check, and feeds one of
three rate slots of its workload.  All randomness comes from the workload
seed; the program only receives the configurations built from it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hplab import cli, dpp, orthopoly, rng

import checks

DELTA_SET = (0j, 1 + 0j, 1 + 2j, -0.3 + 0j, -0.3 + 0.7j)
CELLS = {"rings": 4, "sectors": 6, "r_max": 0.95}

# Named end-to-end rates, in slot order, per workload.
RATE_NAMES = {
    "matrix-verify": (
        "matrix_haar_configs_per_s",
        "matrix_real_configs_per_s",
        "matrix_complex_configs_per_s",
    ),
    "dpp-sample": (
        "dpp_real_configs_per_s",
        "dpp_complex_configs_per_s",
        "dpp_singular_configs_per_s",
    ),
    "kernel-analysis": ("bases_per_s", "profiles_per_s", "gauge_tuples_per_s"),
}

# Sizes of one round, about 3 to 11 s on a 2-core machine, so that a run of
# 30 s holds several rounds and its rates average over the machine's drift.
HAAR_SAMPLES = 10000
REAL_SAMPLES = 1000
MH_SAMPLES, MH_SCHEDULE = 150, {"burn_in": 1000, "thinning": 100}
DPP_COUNTS = {"real": 500, "complex": 30, "singular": 40}
GAUGE_TUPLES = 20
# The five cold bases take under 2 s of a round, so they run twice per round
# to give bases_per_s enough measured time.
BASIS_REPEATS = 2


@dataclass
class Job:
    name: str
    slot: int  # 0, 1 or 2: index into RATE_NAMES[workload]
    work: int  # configurations, bases, profiles or tuples
    execute: Callable[[], Any]
    check: Callable[[Any], list[str]]
    is_cli: bool = False  # output is (exit code, manifest)
    # Check over the outputs of every round of the run, for tests that need
    # more samples than one round holds.
    pooled_check: Callable[[list], list[str]] | None = None


def _delta_json(delta: complex):
    return [delta.real, delta.imag]


def _cli_job(name, slot, work, cfg, check) -> Job:
    def execute():
        return cli.run(cli.parse_config(cfg))

    return Job(name, slot, work, execute, check, is_cli=True)


def _verify_dpp(name, slot, seed, delta, sampler, samples, out: Path, mh=None) -> Job:
    cfg = {
        "command": "verify-dpp",
        "seed": seed,
        "n": 2,
        "m": 1,
        "delta": _delta_json(delta),
        "samples": samples,
        "sampler": sampler,
        "cells": CELLS,
        "level": 1e-3,
        "pairs": True,
        "output_dir": str(out),
    }
    if mh is not None:
        cfg["mh"] = mh

    def check(result):
        code, _ = result
        return checks.verify_dpp_problems(out, code, samples, 2)

    return _cli_job(name, slot, samples, cfg, check)


def _dpp_sample(name, slot, seed, n, m, delta, count) -> Job:
    def execute():
        basis = orthopoly.orthonormal_basis(n, m, delta)
        stream = rng.RngStream(seed)
        configs = np.empty((count, n), dtype=np.complex128)
        proposals = 0
        for i in range(count):
            configs[i], used = dpp.sample_projection_dpp(basis, stream, return_proposals=True)
            proposals += used
        return basis, configs, proposals

    def check(result):
        basis, configs, _ = result
        return checks.config_problems(configs, n) + checks.basis_problems(basis.coeffs, m, delta)

    def pooled_check(results):
        configs = np.concatenate([configs for _, configs, _ in results])
        return checks.intensity_problems(configs, results[0][0], **CELLS)

    return Job(name, slot, count, execute, check, pooled_check=pooled_check)


def _exit_and(code, problems):
    return ([f"exit code {code}"] if code != 0 else []) + problems


def _basis(seed, delta, out: Path) -> Job:
    cfg = {"command": "basis", "seed": seed, "n": 48, "m": 4, "delta": _delta_json(delta),
           "output_dir": str(out)}

    def check(result):
        coeffs, m, got = checks.read_basis_csv(out / "basis.csv")
        return _exit_and(result[0], checks.basis_problems(coeffs, m, got))

    return _cli_job("basis", 0, 1, cfg, check)


def _converge(seed, m, delta, out: Path) -> Job:
    cfg = {"command": "converge", "seed": seed, "m": m, "delta": _delta_json(delta),
           "n_list": [10, 20, 40], "output_dir": str(out)}

    def check(result):
        ns, sups = checks.read_profile_csv(out / "convergence.csv")
        return _exit_and(result[0], checks.profile_problems(ns, sups, m, delta))

    return _cli_job("converge", 1, 1, cfg, check)


def _gauge(seed, m, delta, out: Path) -> Job:
    cfg = {"command": "gauge-check", "seed": seed, "m": m, "delta": _delta_json(delta),
           "tuples": GAUGE_TUPLES, "max_points": 12, "output_dir": str(out)}

    def check(result):
        report = json.loads((out / "report.json").read_text())
        return _exit_and(result[0], checks.gauge_report_problems(report, GAUGE_TUPLES))

    return _cli_job("gauge-check", 2, GAUGE_TUPLES, cfg, check)


def build(workload: str, seed: int, round_index: int, out: Path) -> list[Job]:
    """The job list of one round; the same seed and round index give the same jobs."""
    seeds = [
        int(s)
        for s in np.random.SeedSequence([seed, round_index]).generate_state(16, dtype=np.uint64)
    ]
    if workload == "matrix-verify":
        return [
            _verify_dpp("haar", 0, seeds[0], 0j, "haar", HAAR_SAMPLES, out / "haar"),
            _verify_dpp("real", 1, seeds[1], 1 + 0j, "hp_rejection", REAL_SAMPLES, out / "real"),
            _verify_dpp("complex", 2, seeds[2], 1 + 2j, "hp_mh", MH_SAMPLES, out / "complex",
                        mh=MH_SCHEDULE),
        ]
    if workload == "dpp-sample":
        return [
            _dpp_sample("real", 0, seeds[0], 6, 1, 1 + 0j, DPP_COUNTS["real"]),
            _dpp_sample("complex", 1, seeds[1], 3, 1, 1 + 2j, DPP_COUNTS["complex"]),
            _dpp_sample("singular", 2, seeds[2], 6, 1, -0.3 + 0.7j, DPP_COUNTS["singular"]),
        ]
    if workload == "kernel-analysis":
        combos = [(m, d) for m in (1, 2, 3) for d in DELTA_SET]
        return (
            [_basis(seeds[0], d, out / "basis") for _ in range(BASIS_REPEATS) for d in DELTA_SET]
            + [_converge(seeds[0], m, d, out / "converge") for m, d in combos]
            + [_gauge(seeds[1 + i], m, d, out / "gauge") for i, (m, d) in enumerate(combos)]
        )
    raise ValueError(f"unknown workload {workload!r}")


def clear_caches():
    """Empty every ``functools`` cache in hplab, as a fresh ``hp-lab`` process starts."""
    for key, mod in list(sys.modules.items()):
        if key == "hplab" or key.startswith("hplab."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
