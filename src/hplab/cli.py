"""Command line front end: config-driven experiments with manifest output.

Commands
--------
sample       draw an eigenvalue ensemble, write points.csv
basis        orthonormalize and export a polynomial basis, write basis.csv
verify-dpp   sample an ensemble and test it against its kernel's moments
gauge-check  verify the two limit-kernel descriptions agree in correlations
converge     tabulate the finite-kernel distance to the limit kernel

Every run writes ``manifest.json`` recording the configuration, RNG seed,
wall-clock timings, and an SHA-256 checksum of each output file.  Exit
codes: 0 success (and statistical pass), 1 a verification gate failed, 2
invalid configuration, 3 numerical failure (including a rejection run
refused up front for its expected cost).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dpp import (
    convergence_profile,
    equal_mass_partition,
    gauge_identity_check,
    verify_intensities,
)
from .errors import ConfigError, NumericalError
from .orthopoly import finite_kernel, orthonormal_basis, write_basis_csv
from .rng import RngStream
from .sampling import HPParams, MHConfig
from .truncation import SAMPLERS, sample_truncation_ensemble
from .weights import WeightSpec

__all__ = ["ExperimentConfig", "parse_config", "run", "main"]

COMMANDS = ("sample", "basis", "verify-dpp", "gauge-check", "converge")

_COMMON_KEYS = {"command", "seed", "m", "delta", "output_dir"}
_KEYS = {
    "sample": _COMMON_KEYS | {"n", "samples", "sampler", "mh"},
    "basis": _COMMON_KEYS | {"n"},
    "verify-dpp": _COMMON_KEYS | {"n", "samples", "sampler", "mh", "cells", "level", "pairs"},
    "gauge-check": _COMMON_KEYS | {"tuples", "max_points"},
    "converge": _COMMON_KEYS | {"n_list"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int
    m: int
    delta: complex
    n: int = 0
    samples: int = 0
    sampler: str = ""
    mh: MHConfig = field(default_factory=MHConfig)
    rings: int = 4
    sectors: int = 6
    r_max: float = 0.95
    level: float = 1e-3
    pairs: bool = True
    tuples: int = 100
    max_points: int = 12
    n_list: tuple[int, ...] = (10, 20, 40)
    output_dir: str = "."


def _require(data: dict, key: str, typ, code="bad-type"):
    if key not in data:
        raise ConfigError("missing-field", f"required field {key!r} is missing", field=key)
    val = data[key]
    if typ is int and isinstance(val, bool):
        raise ConfigError(code, f"field {key!r} must be {typ.__name__}", field=key)
    if not isinstance(val, typ):
        raise ConfigError(code, f"field {key!r} must be {typ.__name__}", field=key)
    return val


def _parse_delta(raw) -> complex:
    if isinstance(raw, bool):
        raise ConfigError("bad-type", "delta must be a number or [re, im]", field="delta")
    if isinstance(raw, (int, float)):
        return complex(raw)
    if (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    ):
        return complex(raw[0], raw[1])
    raise ConfigError("bad-type", "delta must be a number or [re, im]", field="delta")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a configuration dictionary strictly.

    Unknown fields, wrong types, out-of-range values, and inconsistent
    sampler/delta combinations all raise :class:`ConfigError` with a
    machine-readable ``code``.
    """
    if not isinstance(data, dict):
        raise ConfigError("bad-type", "configuration must be a JSON object")
    command = _require(data, "command", str)
    if command not in COMMANDS:
        raise ConfigError("bad-value", f"unknown command {command!r}", field="command")
    unknown = set(data) - _KEYS[command]
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError("unknown-field", f"unknown field {name!r} for command {command!r}",
                          field=name)

    seed = _require(data, "seed", int)
    if not 0 <= seed < 2**64:
        raise ConfigError("bad-value", "seed must be an unsigned 64-bit integer", field="seed")
    m = _require(data, "m", int)
    if m < 1:
        raise ConfigError("bad-value", "m must be >= 1", field="m")
    if "delta" not in data:
        raise ConfigError("missing-field", "required field 'delta' is missing", field="delta")
    delta = _parse_delta(data["delta"])
    if delta.real <= -0.5:
        raise ConfigError("delta-range", f"Re delta must exceed -1/2, got {delta}", field="delta")

    kw: dict = {"command": command, "seed": seed, "m": m, "delta": delta}

    output_dir = data.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("bad-type", "output_dir must be a nonempty string", field="output_dir")
    kw["output_dir"] = output_dir

    if command in ("sample", "basis", "verify-dpp"):
        n = _require(data, "n", int)
        if n < 1:
            raise ConfigError("bad-value", "n must be >= 1", field="n")
        kw["n"] = n

    if command in ("sample", "verify-dpp"):
        samples = _require(data, "samples", int)
        if samples < 1:
            raise ConfigError("bad-value", "samples must be >= 1", field="samples")
        kw["samples"] = samples

        sampler = data.get("sampler", "hp_rejection" if delta.real >= 0 else "hp_mh")
        if not isinstance(sampler, str) or sampler not in SAMPLERS:
            raise ConfigError("bad-value", f"sampler must be one of {SAMPLERS}", field="sampler")
        if sampler == "haar" and delta != 0:
            raise ConfigError("sampler-delta", "the haar sampler requires delta = 0",
                              field="sampler")
        if sampler == "hp_rejection" and delta.real < 0:
            raise ConfigError("sampler-delta", "hp_rejection requires Re delta >= 0",
                              field="sampler")
        kw["sampler"] = sampler

        mh_raw = data.get("mh", {})
        if not isinstance(mh_raw, dict):
            raise ConfigError("bad-type", "mh must be an object", field="mh")
        bad = set(mh_raw) - {"burn_in", "thinning"}
        if bad:
            raise ConfigError("unknown-field", f"unknown mh field {sorted(bad)[0]!r}", field="mh")
        burn_in = mh_raw.get("burn_in", 1000)
        thinning = mh_raw.get("thinning", 5)
        for name, val, lo in (("burn_in", burn_in, 0), ("thinning", thinning, 1)):
            if not isinstance(val, int) or isinstance(val, bool) or val < lo:
                raise ConfigError("bad-value", f"mh.{name} must be an integer >= {lo}", field="mh")
        kw["mh"] = MHConfig(burn_in=burn_in, thinning=thinning)

    if command == "verify-dpp":
        cells = data.get("cells", {})
        if not isinstance(cells, dict):
            raise ConfigError("bad-type", "cells must be an object", field="cells")
        bad = set(cells) - {"rings", "sectors", "r_max"}
        if bad:
            raise ConfigError("unknown-field", f"unknown cells field {sorted(bad)[0]!r}",
                              field="cells")
        rings = cells.get("rings", 4)
        sectors = cells.get("sectors", 6)
        r_max = cells.get("r_max", 0.95)
        for name, val in (("rings", rings), ("sectors", sectors)):
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise ConfigError("bad-value", f"cells.{name} must be an integer >= 1",
                                  field="cells")
        if not isinstance(r_max, (int, float)) or isinstance(r_max, bool) or not 0 < r_max < 1:
            raise ConfigError("bad-value", "cells.r_max must lie in (0, 1)", field="cells")
        kw["rings"], kw["sectors"], kw["r_max"] = rings, sectors, float(r_max)

        level = data.get("level", 1e-3)
        if not isinstance(level, (int, float)) or isinstance(level, bool) or not 0 < level < 1:
            raise ConfigError("bad-value", "level must lie in (0, 1)", field="level")
        kw["level"] = float(level)
        pairs = data.get("pairs", True)
        if not isinstance(pairs, bool):
            raise ConfigError("bad-type", "pairs must be a boolean", field="pairs")
        kw["pairs"] = pairs

    if command == "gauge-check":
        tuples = data.get("tuples", 100)
        max_points = data.get("max_points", 12)
        if not isinstance(tuples, int) or isinstance(tuples, bool) or tuples < 1:
            raise ConfigError("bad-value", "tuples must be an integer >= 1", field="tuples")
        if not isinstance(max_points, int) or isinstance(max_points, bool) or max_points < 2:
            raise ConfigError("bad-value", "max_points must be an integer >= 2",
                              field="max_points")
        kw["tuples"], kw["max_points"] = tuples, max_points

    if command == "converge":
        n_list = data.get("n_list", [10, 20, 40])
        if (
            not isinstance(n_list, list)
            or not n_list
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in n_list)
        ):
            raise ConfigError("bad-value", "n_list must be a nonempty list of integers >= 1",
                              field="n_list")
        kw["n_list"] = tuple(sorted(set(n_list)))

    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# output helpers


def _sha256(path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 16)
            if not block:
                break
            h.update(block)
            size += len(block)
    return h.hexdigest(), size


def _record_output(outputs: list, dir_path, name: str):
    """Hash a freshly written file and record it."""
    digest, size = _sha256(dir_path / name)
    outputs.append({"path": name, "sha256": digest, "bytes": size})


def _write_points_csv(path, configs: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "point_index", "re", "im"])
        for i in range(configs.shape[0]):
            for j in range(configs.shape[1]):
                z = configs[i, j]
                writer.writerow([i, j, f"{z.real:.17g}", f"{z.imag:.17g}"])


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {
        "command": cfg.command,
        "seed": cfg.seed,
        "m": cfg.m,
        "delta": [cfg.delta.real, cfg.delta.imag],
        "output_dir": cfg.output_dir,
    }
    if cfg.command in ("sample", "basis", "verify-dpp"):
        echo["n"] = cfg.n
    if cfg.command in ("sample", "verify-dpp"):
        echo["samples"] = cfg.samples
        echo["sampler"] = cfg.sampler
        echo["mh"] = {"burn_in": cfg.mh.burn_in, "thinning": cfg.mh.thinning}
    if cfg.command == "verify-dpp":
        echo["cells"] = {"rings": cfg.rings, "sectors": cfg.sectors, "r_max": cfg.r_max}
        echo["level"] = cfg.level
        echo["pairs"] = cfg.pairs
    if cfg.command == "gauge-check":
        echo["tuples"] = cfg.tuples
        echo["max_points"] = cfg.max_points
    if cfg.command == "converge":
        echo["n_list"] = list(cfg.n_list)
    return echo


def _gauge_tuple(rng: RngStream, max_points: int) -> np.ndarray:
    """Random well-separated point tuple in {|z| <= 0.95}."""
    size = 2 + int(rng.random() * (max_points - 1))
    size = min(size, max_points)
    pts: list[complex] = []
    while len(pts) < size:
        for _ in range(100):
            z = 0.95 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            z = complex(z)
            if all(abs(z - p) > 1e-3 for p in pts):
                break
        pts.append(z)
    return np.array(pts)


# ---------------------------------------------------------------------------
# command execution


def run(cfg: ExperimentConfig, workers: int = 1) -> tuple[int, dict]:
    """Execute a configuration; returns (exit_code, manifest dict).

    Output files and ``manifest.json`` are written into ``cfg.output_dir``
    (created if needed).
    """
    from pathlib import Path

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    outputs: list[dict] = []
    passed: bool | None = None
    extra: dict = {}

    if cfg.command in ("sample", "verify-dpp"):
        params = HPParams(cfg.n, cfg.m, cfg.delta)
        rng = RngStream(cfg.seed)
        t = time.perf_counter()
        configs = sample_truncation_ensemble(
            params, cfg.samples, cfg.sampler, rng, mh=cfg.mh, workers=workers
        )
        timings["sampling"] = time.perf_counter() - t
        t = time.perf_counter()
        _write_points_csv(out_dir / "points.csv", configs)
        _record_output(outputs, out_dir, "points.csv")
        timings["write_points"] = time.perf_counter() - t

        if cfg.command == "verify-dpp":
            t = time.perf_counter()
            basis = orthonormal_basis(cfg.n, cfg.m, cfg.delta)
            kernel = finite_kernel(basis)
            partition = equal_mass_partition(
                WeightSpec("hp", cfg.m, cfg.delta), cfg.rings, cfg.sectors, cfg.r_max
            )
            report = verify_intensities(
                configs, kernel, partition, level=cfg.level, include_pairs=cfg.pairs
            )
            timings["verification"] = time.perf_counter() - t
            with open(out_dir / "report.json", "w") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            _record_output(outputs, out_dir, "report.json")
            passed = report.passed
            extra["max_abs_z"] = report.max_abs_z
            extra["bonferroni_z"] = report.threshold

    elif cfg.command == "basis":
        t = time.perf_counter()
        basis = orthonormal_basis(cfg.n, cfg.m, cfg.delta)
        timings["orthonormalization"] = time.perf_counter() - t
        write_basis_csv(basis, out_dir / "basis.csv")
        _record_output(outputs, out_dir, "basis.csv")

    elif cfg.command == "gauge-check":
        t = time.perf_counter()
        rng = RngStream(cfg.seed)
        rels = []
        for i in range(cfg.tuples):
            pts = _gauge_tuple(rng.substream(i), cfg.max_points)
            rels.append(gauge_identity_check(pts, cfg.m, cfg.delta))
        timings["gauge"] = time.perf_counter() - t
        max_rel = max(rels)
        passed = max_rel <= 1e-10
        extra["max_rel_error"] = max_rel
        extra["tolerance"] = 1e-10
        with open(out_dir / "report.json", "w") as fh:
            json.dump(
                {
                    "m": cfg.m,
                    "delta": [cfg.delta.real, cfg.delta.imag],
                    "tuples": cfg.tuples,
                    "max_points": cfg.max_points,
                    "tolerance": 1e-10,
                    "max_rel_error": max_rel,
                    "rel_errors": rels,
                    "passed": passed,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        _record_output(outputs, out_dir, "report.json")

    elif cfg.command == "converge":
        t = time.perf_counter()
        rows = convergence_profile(cfg.m, cfg.delta, cfg.n_list)
        timings["convergence"] = time.perf_counter() - t
        with open(out_dir / "convergence.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "sup_error", "grid_size", "m", "delta_re", "delta_im"])
            for row in rows:
                writer.writerow(
                    [
                        row.n,
                        f"{row.sup_error:.17g}",
                        row.grid_size,
                        cfg.m,
                        f"{cfg.delta.real:.17g}",
                        f"{cfg.delta.imag:.17g}",
                    ]
                )
        _record_output(outputs, out_dir, "convergence.csv")
        # Same rule as acceptance criterion 5: convergence is geometric at
        # delta = 0 but only of order n^-(m+1) otherwise, so delta != 0 is
        # judged by the observed order over the last two n, which must
        # reach m.
        sups = [row.sup_error for row in rows]
        passed = all(b < a for a, b in zip(sups, sups[1:]))
        order = None
        if len(rows) >= 2 and rows[-1].sup_error > 0:
            prev, last = rows[-2], rows[-1]
            order = math.log(prev.sup_error / last.sup_error) / math.log(last.n / prev.n)
        if cfg.delta == 0:
            if rows[-1].n >= 40:
                passed = passed and rows[-1].rel_error <= 1e-3
        elif order is not None:
            passed = passed and order >= cfg.m
        extra["sup_errors"] = sups
        extra["rel_error_final"] = rows[-1].rel_error
        extra["observed_order"] = order

    manifest = {
        "package": "hplab",
        "version": __version__,
        "command": cfg.command,
        "config": _config_echo(cfg),
        "workers": workers,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "wall_clock_s": round(time.perf_counter() - t0, 6),
        "outputs": outputs,
        "passed": passed,
        **extra,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    exit_code = 0 if passed in (None, True) else 1
    return exit_code, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hp-lab",
        description="Eigenvalue point processes of truncated random unitary matrices",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--workers", type=int, default=1, help="worker processes for sampling")
    parser.add_argument("--output-dir", default=None, help="override the configured output_dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        print(f"config error [not-found]: no such file {args.config!r}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error [bad-json]: {exc}", file=sys.stderr)
        return 2

    if isinstance(data, dict):
        if "command" in data and data["command"] != args.command:
            print(
                f"config error [command-mismatch]: config says {data['command']!r}, "
                f"command line says {args.command!r}",
                file=sys.stderr,
            )
            return 2
        data = dict(data)
        data["command"] = args.command
        if args.seed is not None:
            data["seed"] = args.seed
        if args.output_dir is not None:
            data["output_dir"] = args.output_dir
    if args.workers < 1:
        print("config error [bad-value]: --workers must be >= 1", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        where = f" ({exc.field})" if exc.field else ""
        print(f"config error [{exc.code}]{where}: {exc}", file=sys.stderr)
        return 2

    try:
        code, manifest = run(cfg, workers=args.workers)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    status = "pass" if manifest["passed"] in (None, True) else "FAIL"
    print(f"{cfg.command}: {status} (outputs in {cfg.output_dir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
