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
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .dpp import (
    convergence_profile,
    equal_mass_partition,
    gauge_identity_check,
    verify_intensities,
)
from .errors import ConfigError, NumericalError, check_params
from .orthopoly import finite_kernel, orthonormal_basis, write_basis_csv
from .rng import RngStream
from .sampling import HPParams, MHConfig, check_sampler
from .truncation import ensemble_threads, sample_truncation_ensemble
from .weights import WeightSpec, check_basis_size

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
_MH_KEYS = tuple(f.name for f in fields(MHConfig))
_CELL_KEYS = ("rings", "sectors", "r_max")


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


def _typed(val, name: str, typ, code="bad-type", field=None):
    """``val`` once it has type ``typ``; a JSON boolean is not a number."""
    if isinstance(val, bool) != (typ is bool) or not isinstance(val, typ):
        raise ConfigError(code, f"{name} must be {typ.__name__}", field=field or name)
    return val


def _require(data: dict, key: str, typ):
    if key not in data:
        raise ConfigError("missing-field", f"required field {key!r} is missing", field=key)
    return _typed(data[key], f"field {key!r}", typ, field=key)


def _int_at_least(val, name: str, lo: int, field: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < lo:
        raise ConfigError("bad-value", f"{name} must be an integer >= {lo}", field=field)
    return val


def _in_unit_interval(val, name: str, field: str) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not 0 < val < 1:
        raise ConfigError("bad-value", f"{name} must lie in (0, 1)", field=field)
    return float(val)


def _section(data: dict, key: str, allowed) -> dict:
    """The JSON object under ``key`` (empty when absent), holding only ``allowed`` keys."""
    sub = data.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError("bad-type", f"{key} must be an object", field=key)
    bad = set(sub) - set(allowed)
    if bad:
        raise ConfigError("unknown-field", f"unknown {key} field {sorted(bad)[0]!r}", field=key)
    return sub


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

    The parser checks the JSON shape: unknown and missing fields and wrong
    types.  Parameter rules belong to the library and are called from here:
    ``check_params`` for m and delta, ``HPParams`` for the ensemble size,
    ``check_basis_size`` for n wherever a Gram matrix is built,
    ``check_sampler`` for the sampler and its default, and ``MHConfig`` for
    the chain schedule.  Absent optional fields take the defaults of
    :class:`ExperimentConfig` and :class:`MHConfig`.  Every failure raises
    :class:`ConfigError` with a machine-readable ``code``.
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
    if "delta" not in data:
        raise ConfigError("missing-field", "required field 'delta' is missing", field="delta")
    delta = check_params(m, _parse_delta(data["delta"]))
    kw: dict = {"command": command, "seed": seed, "m": m, "delta": delta}

    if "output_dir" in data:
        kw["output_dir"] = _typed(data["output_dir"], "output_dir", str)
        if not kw["output_dir"]:
            raise ConfigError("bad-type", "output_dir must be a nonempty string",
                              field="output_dir")

    if command in ("sample", "basis", "verify-dpp"):
        kw["n"] = _require(data, "n", int)
        if command == "sample":
            HPParams(kw["n"], m, delta)
        else:
            check_basis_size(kw["n"])

    if command in ("sample", "verify-dpp"):
        kw["samples"] = _int_at_least(_require(data, "samples", int), "samples", 1, "samples")
        if "sampler" in data:
            _typed(data["sampler"], "sampler", str, "bad-value")
        kw["sampler"] = check_sampler(data.get("sampler"), delta)
        mh = _section(data, "mh", _MH_KEYS)
        for name, val in mh.items():
            _typed(val, f"mh.{name}", int, "bad-value", field="mh")
        kw["mh"] = MHConfig(**mh)

    if command == "verify-dpp":
        cells = _section(data, "cells", _CELL_KEYS)
        for name in ("rings", "sectors"):
            if name in cells:
                kw[name] = _int_at_least(cells[name], f"cells.{name}", 1, "cells")
        if "r_max" in cells:
            kw["r_max"] = _in_unit_interval(cells["r_max"], "cells.r_max", "cells")
        if "level" in data:
            kw["level"] = _in_unit_interval(data["level"], "level", "level")
        if "pairs" in data:
            kw["pairs"] = _typed(data["pairs"], "pairs", bool)

    if command == "gauge-check":
        if "tuples" in data:
            kw["tuples"] = _int_at_least(data["tuples"], "tuples", 1, "tuples")
        if "max_points" in data:
            kw["max_points"] = _int_at_least(data["max_points"], "max_points", 2, "max_points")

    if command == "converge" and "n_list" in data:
        n_list = data["n_list"]
        if not isinstance(n_list, list) or not n_list:
            raise ConfigError("bad-value", "n_list must be a nonempty list of integers",
                              field="n_list")
        for n in n_list:
            check_basis_size(_typed(n, "n_list entry", int, "bad-value", field="n_list"),
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
    # The bytes of csv.writer's default dialect: no field needs quoting.
    rows = (
        f"{i},{j},{z.real:.17g},{z.imag:.17g}"
        for i, row in enumerate(configs.tolist())
        for j, z in enumerate(row)
    )
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["sample_index,point_index,re,im", *rows, ""]))


def _config_echo(cfg: ExperimentConfig) -> dict:
    """The configuration as JSON, one entry per field of ``_KEYS[cfg.command]``;
    :func:`parse_config` reads it back to ``cfg``."""

    def value(key):
        if key == "delta":
            return [cfg.delta.real, cfg.delta.imag]
        if key == "mh":
            return {name: getattr(cfg.mh, name) for name in _MH_KEYS}
        if key == "cells":
            return {name: getattr(cfg, name) for name in _CELL_KEYS}
        if key == "n_list":
            return list(cfg.n_list)
        return getattr(cfg, key)

    return {key: value(key) for key in sorted(_KEYS[cfg.command])}


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


def run(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Execute a configuration; returns (exit_code, manifest dict).

    Output files and ``manifest.json`` are written into ``cfg.output_dir``
    (created if needed).  The manifest's ``workers`` counts sampling threads.
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
        if cfg.command == "verify-dpp":
            # Kernel and cells first: they use no randomness, and a Gram
            # matrix the moment series refuses ends the run before sampling.
            t = time.perf_counter()
            kernel = finite_kernel(orthonormal_basis(cfg.n, cfg.m, cfg.delta))
            partition = equal_mass_partition(
                WeightSpec("hp", cfg.m, cfg.delta), cfg.rings, cfg.sectors, cfg.r_max
            )
            timings["verification"] = time.perf_counter() - t
        params = HPParams(cfg.n, cfg.m, cfg.delta)
        rng = RngStream(cfg.seed)
        t = time.perf_counter()
        configs = sample_truncation_ensemble(params, cfg.samples, cfg.sampler, rng, mh=cfg.mh)
        timings["sampling"] = time.perf_counter() - t
        t = time.perf_counter()
        _write_points_csv(out_dir / "points.csv", configs)
        _record_output(outputs, out_dir, "points.csv")
        timings["write_points"] = time.perf_counter() - t

        if cfg.command == "verify-dpp":
            t = time.perf_counter()
            report = verify_intensities(
                configs, kernel, partition, level=cfg.level, include_pairs=cfg.pairs
            )
            timings["verification"] += time.perf_counter() - t
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
        max_rel = float(np.max(rels))
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
        "workers": ensemble_threads(cfg.samples, cfg.sampler),
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

    try:
        cfg = parse_config(data)
    except ConfigError as exc:
        where = f" ({exc.field})" if exc.field else ""
        print(f"config error [{exc.code}]{where}: {exc}", file=sys.stderr)
        return 2

    try:
        code, manifest = run(cfg)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    status = "pass" if manifest["passed"] in (None, True) else "FAIL"
    print(f"{cfg.command}: {status} (outputs in {cfg.output_dir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
