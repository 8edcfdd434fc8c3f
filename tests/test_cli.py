import csv
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hplab
from hplab import truncation
from hplab.cli import (
    _KEYS,
    COMMANDS,
    ExperimentConfig,
    _write_points_csv,
    main,
    parse_config,
    run,
)
from hplab.errors import ConfigError
from hplab.rng import RngStream


def _write(tmp_path, name, data):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def _base_sample(tmp_path, **over):
    data = {
        "command": "sample",
        "seed": 42,
        "n": 2,
        "m": 1,
        "delta": 1.0,
        "samples": 50,
        "sampler": "hp_rejection",
        "output_dir": str(tmp_path / "out"),
    }
    data.update(over)
    return data


def test_parse_config_happy_path(tmp_path):
    cfg = parse_config(_base_sample(tmp_path))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.command == "sample"
    assert cfg.delta == 1.0 + 0j
    assert cfg.sampler == "hp_rejection"
    assert cfg.mh.burn_in == 1000 and cfg.mh.thinning == 5


def test_parse_config_delta_forms(tmp_path):
    cfg = parse_config(_base_sample(tmp_path, delta=[1.0, 2.0]))
    assert cfg.delta == complex(1.0, 2.0)
    with pytest.raises(ConfigError) as err:
        parse_config(_base_sample(tmp_path, delta="one"))
    assert err.value.code == "bad-type"


def test_parse_config_default_sampler_tracks_delta(tmp_path):
    data = _base_sample(tmp_path)
    del data["sampler"]
    assert parse_config(data).sampler == "hp_rejection"
    data["delta"] = [-0.3, 0.0]
    assert parse_config(data).sampler == "hp_mh"


def test_parse_config_error_codes(tmp_path):
    cases = [
        ({"command": "warp"}, "bad-value"),
        (_base_sample(tmp_path, extra=1), "unknown-field"),
        (_base_sample(tmp_path, seed="x"), "bad-type"),
        (_base_sample(tmp_path, seed=-1), "bad-value"),
        (_base_sample(tmp_path, m=0), "bad-value"),
        (_base_sample(tmp_path, delta=-0.6), "delta-range"),
        (_base_sample(tmp_path, delta=-0.3), "sampler-delta"),
        (_base_sample(tmp_path, sampler="haar"), "sampler-delta"),
        (_base_sample(tmp_path, samples=0), "bad-value"),
        (_base_sample(tmp_path, mh={"thinning": 0}), "bad-value"),
        (_base_sample(tmp_path, mh={"pace": 3}), "unknown-field"),
        (_base_sample(tmp_path, mh=3), "bad-type"),
        (_base_sample(tmp_path, delta=True), "bad-type"),
        (_base_sample(tmp_path, output_dir=""), "bad-type"),
        (_base_sample(tmp_path, command="verify-dpp", level=1.5), "bad-value"),
        (_base_sample(tmp_path, command="verify-dpp", cells={"r_max": 1.0}), "bad-value"),
        (_base_sample(tmp_path, command="verify-dpp", cells=[4, 6]), "bad-type"),
        ({"command": "converge", "seed": 0, "m": 1, "delta": 0.0, "n_list": []}, "bad-value"),
        ([_base_sample(tmp_path)], "bad-type"),
    ]
    for key in ("n", "delta"):
        missing = _base_sample(tmp_path)
        del missing[key]
        cases.append((missing, "missing-field"))
    for data, code in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.code == code, data


def test_run_sample_outputs_and_checksums(tmp_path):
    cfg = parse_config(_base_sample(tmp_path))
    code, manifest = run(cfg)
    assert code == 0
    assert manifest["passed"] is None
    out = tmp_path / "out"
    with open(out / "points.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "point_index", "re", "im"]
    assert len(rows) == 1 + 50 * 2
    recorded = {o["path"]: o for o in manifest["outputs"]}
    assert set(recorded) == {"points.csv"}
    import hashlib

    digest = hashlib.sha256((out / "points.csv").read_bytes()).hexdigest()
    assert recorded["points.csv"]["sha256"] == digest
    assert (out / "manifest.json").exists()


def test_points_csv_matches_csv_writer(tmp_path):
    fixed = np.array([
        [0j, complex(-0.0, 0.0), -0.5 + 0.25j],
        [1e-300 - 0j, -1.5e-17 + 3j, complex(0.1, -0.0)],
    ])
    drawn = RngStream(5).standard_normal((40, 3)) + 1j * RngStream(6).standard_normal((40, 3))
    for configs in (fixed, drawn, fixed[:, :1], fixed[:0]):
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "point_index", "re", "im"])
            for i, row in enumerate(configs):
                for j, z in enumerate(row):
                    writer.writerow([i, j, f"{z.real:.17g}", f"{z.imag:.17g}"])
        _write_points_csv(tmp_path / "points.csv", configs)
        assert (tmp_path / "points.csv").read_bytes() == ref.read_bytes()


def test_run_sample_deterministic_across_workers(tmp_path, monkeypatch):
    # 600 samples are three chunks; the manifest records the threads used
    for cpus, out in ((1, "a"), (3, "b")):
        monkeypatch.setattr(truncation, "_cpu_count", lambda: cpus)
        cfg = parse_config(_base_sample(tmp_path, samples=600, output_dir=str(tmp_path / out)))
        _, manifest = run(cfg)
        assert manifest["workers"] == cpus
    assert (tmp_path / "a" / "points.csv").read_bytes() == (
        tmp_path / "b" / "points.csv"
    ).read_bytes()


def test_run_basis_csv(tmp_path):
    cfg = parse_config(
        {
            "command": "basis",
            "seed": 0,
            "n": 4,
            "m": 2,
            "delta": [1.0, 2.0],
            "output_dir": str(tmp_path),
        }
    )
    code, manifest = run(cfg)
    assert code == 0
    with open(tmp_path / "basis.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["n", "4", "m", "2"]
    assert len(rows) == 2 + 4


def test_main_basis_near_the_lower_delta_bound(tmp_path, capsys):
    # m = 1, Re delta = -0.45: the moment series once returned NaN here and
    # the command exited 1 with a traceback
    path = _write(tmp_path, "cfg.json", {"command": "basis", "seed": 0, "n": 4, "m": 1,
                                         "delta": -0.45, "output_dir": str(tmp_path / "out")})
    assert main(["basis", "--config", path]) == 0
    assert (tmp_path / "out" / "basis.csv").exists()
    capsys.readouterr()


def test_main_basis_exits_3_when_orthonormalization_fails(tmp_path, capsys):
    # (30, 1, 4i) is within the size cap, but one refinement step leaves the
    # orthonormality residual over 1e-9
    path = _write(tmp_path, "cfg.json", {"command": "basis", "seed": 0, "n": 30, "m": 1,
                                         "delta": [0.0, 4.0], "output_dir": str(tmp_path / "out")})
    assert main(["basis", "--config", path]) == 3
    assert "orthonormality residual" in capsys.readouterr().err
    assert not (tmp_path / "out" / "basis.csv").exists()


def test_run_verify_dpp_passes(tmp_path):
    cfg = parse_config(
        {
            "command": "verify-dpp",
            "seed": 7,
            "n": 2,
            "m": 1,
            "delta": 1.0,
            "samples": 3000,
            "cells": {"rings": 2, "sectors": 3, "r_max": 0.9},
            "output_dir": str(tmp_path),
        }
    )
    code, manifest = run(cfg)
    assert code == 0
    assert manifest["passed"] is True
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert len(report["cells"]) == 6
    assert len(report["pairs"]) == 15
    assert manifest["max_abs_z"] <= manifest["bonferroni_z"]


def test_run_gauge_check(tmp_path):
    cfg = parse_config(
        {
            "command": "gauge-check",
            "seed": 3,
            "m": 1,
            "delta": [(-0.3), 0.7],
            "tuples": 5,
            "max_points": 6,
            "output_dir": str(tmp_path),
        }
    )
    code, manifest = run(cfg)
    assert code == 0
    assert manifest["passed"] is True
    assert manifest["max_rel_error"] <= 1e-10
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["rel_errors"]) == 5


def test_run_converge_pass_and_fail(tmp_path):
    good = parse_config(
        {
            "command": "converge",
            "seed": 0,
            "m": 1,
            "delta": 0.0,
            "n_list": [4, 8, 16],
            "output_dir": str(tmp_path / "good"),
        }
    )
    code, manifest = run(good)
    assert code == 0 and manifest["passed"] is True
    with open(tmp_path / "good" / "convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "sup_error", "grid_size", "m", "delta_re", "delta_im"]
    sups = [float(r[1]) for r in rows[1:]]
    assert sups == sorted(sups, reverse=True)

    # at delta = 0 the rate is geometric, and from n = 40 on the run must
    # also reach a relative distance of 1e-3
    geometric = parse_config(
        {
            "command": "converge",
            "seed": 0,
            "m": 1,
            "delta": 0.0,
            "n_list": [10, 20, 40],
            "output_dir": str(tmp_path / "geometric"),
        }
    )
    code, manifest = run(geometric)
    assert code == 0 and manifest["passed"] is True
    assert manifest["rel_error_final"] <= 1e-3

    # delta != 0 converges at order n^-(m+1), not geometrically: at delta = 1
    # rel@40 is 7.5e-3, far above 1e-3, yet the observed order (1.90) meets
    # the gate of m = 1, so the run passes
    algebraic = parse_config(
        {
            "command": "converge",
            "seed": 0,
            "m": 1,
            "delta": 1.0,
            "n_list": [10, 20, 40],
            "output_dir": str(tmp_path / "algebraic"),
        }
    )
    code, manifest = run(algebraic)
    assert code == 0 and manifest["passed"] is True
    assert manifest["rel_error_final"] > 1e-3
    assert manifest["observed_order"] >= 1

    # before the asymptotic regime, at delta = 1+2i, the last step from n = 8
    # to 10 shows order 0.64 < m = 1: the profile decreases but is rejected
    bad = parse_config(
        {
            "command": "converge",
            "seed": 0,
            "m": 1,
            "delta": [1.0, 2.0],
            "n_list": [6, 8, 10],
            "output_dir": str(tmp_path / "bad"),
        }
    )
    code, manifest = run(bad)
    assert code == 1 and manifest["passed"] is False
    assert manifest["observed_order"] < 1
    assert manifest["sup_errors"] == sorted(manifest["sup_errors"], reverse=True)


def test_main_end_to_end(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _base_sample(tmp_path, samples=20))
    assert main(["sample", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "sample: pass" in out


def test_main_seed_override_changes_output(tmp_path):
    base = _base_sample(tmp_path, samples=20)
    path = _write(tmp_path, "cfg.json", base)
    assert main(["sample", "--config", path, "--output-dir", str(tmp_path / "s1")]) == 0
    assert main(["sample", "--config", path, "--output-dir", str(tmp_path / "s2"),
                 "--seed", "99"]) == 0
    a = (tmp_path / "s1" / "points.csv").read_bytes()
    b = (tmp_path / "s2" / "points.csv").read_bytes()
    assert a != b
    manifest = json.loads((tmp_path / "s2" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99


def test_main_error_exit_codes(tmp_path, capsys):
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["sample", "--config", str(bad)]) == 2
    # missing file
    assert main(["sample", "--config", str(tmp_path / "none.json")]) == 2
    # command mismatch
    path = _write(tmp_path, "b.json", {"command": "basis", "seed": 0, "n": 2, "m": 1,
                                       "delta": 0.0, "output_dir": str(tmp_path)})
    assert main(["sample", "--config", path]) == 2
    # config validation failure
    path = _write(tmp_path, "c.json", _base_sample(tmp_path, delta=-0.3))
    assert main(["sample", "--config", path]) == 2
    capsys.readouterr()


def test_main_exits_3_on_a_chunk_error(tmp_path, monkeypatch, capsys):
    # every QR after the first returns a Q that is not unitary, so a chunk
    # other than the first fails on its worker thread
    monkeypatch.setattr(truncation, "_cpu_count", lambda: 3)
    real_qr = np.linalg.qr
    calls = itertools.count()  # next() on it is atomic

    def qr(a):
        q, r = real_qr(a)
        return (q, r) if next(calls) == 0 else (1.001 * q, r)

    monkeypatch.setattr(np.linalg, "qr", qr)
    path = _write(tmp_path, "cfg.json", _base_sample(tmp_path, delta=0.0, sampler="haar",
                                                     samples=600))
    assert main(["sample", "--config", path]) == 3
    assert "not unitary" in capsys.readouterr().err


def test_hopeless_rejection_run_refused(tmp_path, capsys):
    # default sampler at Re delta >= 0 is hp_rejection; at N = 3, delta = 1+2i
    # it accepts 4.4e-8 of its proposals, so 4000 samples are refused
    data = {"seed": 1, "n": 2, "m": 1, "delta": [1.0, 2.0], "samples": 4000,
            "output_dir": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.json", data)
    t0 = time.perf_counter()
    assert main(["verify-dpp", "--config", path]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "4.36e-08" in err and "9.17e+10" in err


def test_rejection_run_with_underflowing_acceptance_refused(tmp_path, capsys):
    # on U(120) at delta = 1+2i the acceptance underflows to 0.0; the run is
    # still refused with exit 3, not a division by zero
    path = _write(tmp_path, "cfg.json", _base_sample(tmp_path, n=100, m=20, delta=[1.0, 2.0],
                                                     samples=10))
    assert main(["sample", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "accepts 0 of its Haar proposals" in err and "unboundedly many" in err


def test_mh_sampler_through_cli(tmp_path):
    cfg = parse_config(
        _base_sample(
            tmp_path,
            delta=[-0.25, 0.0],
            sampler="hp_mh",
            mh={"burn_in": 100, "thinning": 2},
            samples=30,
        )
    )
    code, manifest = run(cfg)
    assert code == 0
    assert manifest["config"]["mh"] == {"burn_in": 100, "thinning": 2}
    with open(tmp_path / "out" / "points.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    pts = np.array([complex(float(r[2]), float(r[3])) for r in rows[1:]])
    assert np.all(np.abs(pts) < 1.0)


def test_import_loads_no_scipy_stats_or_mpmath():
    # a fresh `import hplab.cli` pulls in none of these: scipy.stats and
    # mpmath dominated its set-up time, and each scipy.linalg call woke
    # SciPy's own BLAS threads, which then busy-waited
    code = (
        "import sys, hplab.cli\n"
        "loaded = [k for k in ('scipy.stats', 'mpmath', 'scipy.linalg') if k in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hplab.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "command, extra, where",
    [
        ("basis", {"n": 49}, "(n)"),
        ("converge", {"n_list": [10, 60]}, "(n_list)"),
        ("verify-dpp", {"n": 49, "samples": 100, "sampler": "haar"}, "(n)"),
    ],
)
def test_main_refuses_n_above_the_gram_cap(tmp_path, capsys, command, extra, where):
    # these runs once raised an uncaught ValueError (exit 1); verify-dpp had
    # already sampled and left points.csv behind
    data = {"seed": 1, "m": 1, "delta": 0.0, "output_dir": str(tmp_path / "out"), **extra}
    path = _write(tmp_path, "cfg.json", data)
    assert main([command, "--config", path]) == 2
    assert f"config error [bad-value] {where}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_dpp_builds_the_kernel_before_sampling(tmp_path, capsys):
    # the moment series refuses this Gram matrix; the run ends before the
    # sampler is called, so no points.csv is written and it takes no MH time
    data = {"seed": 1, "n": 2, "m": 1, "delta": [-0.3, 50.0], "samples": 2000,
            "sampler": "hp_mh", "output_dir": str(tmp_path / "out")}
    path = _write(tmp_path, "cfg.json", data)
    t0 = time.perf_counter()
    assert main(["verify-dpp", "--config", path]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "points.csv").exists()


def test_manifest_config_replays(tmp_path):
    # the echoed configuration holds exactly the command's fields and parses
    # back to the configuration that produced it
    configs = [
        _base_sample(tmp_path, samples=20),
        {"command": "basis", "seed": 1, "n": 3, "m": 2, "delta": [-0.3, 0.7]},
        {"command": "verify-dpp", "seed": 7, "n": 2, "m": 1, "delta": 1.0, "samples": 200,
         "cells": {"rings": 2, "sectors": 3}, "pairs": False},
        {"command": "gauge-check", "seed": 3, "m": 1, "delta": 0.5, "tuples": 2},
        {"command": "converge", "seed": 0, "m": 1, "delta": 0.0, "n_list": [8, 4]},
    ]
    assert sorted(c["command"] for c in configs) == sorted(COMMANDS)
    for i, data in enumerate(configs):
        cfg = parse_config({**data, "output_dir": str(tmp_path / f"run{i}")})
        _, manifest = run(cfg)
        assert set(manifest["config"]) == _KEYS[cfg.command]
        assert parse_config(manifest["config"]) == cfg
