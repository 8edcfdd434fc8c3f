"""The benchmark's own tests: every output check rejects a known-wrong input.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hplab  # noqa: E402
from hplab import cli, dpp, orthopoly, truncation  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def haar_configs():
    params = hplab.HPParams(2, 1, 0)
    return truncation.sample_truncation_ensemble(params, 4000, "haar", hplab.RngStream(11))


def test_intensity_check_rejects_configs_of_another_delta(haar_configs):
    assert checks.intensity_problems(haar_configs, orthopoly.orthonormal_basis(2, 1, 0)) == []
    assert checks.intensity_problems(haar_configs, orthopoly.orthonormal_basis(2, 1, 2))


def test_dpp_configs_checked_against_another_kernel_fail():
    basis = orthopoly.orthonormal_basis(3, 1, 0)
    stream = hplab.RngStream(5)
    configs = np.array([dpp.sample_projection_dpp(basis, stream) for _ in range(400)])
    assert checks.config_problems(configs, 3) == []
    assert checks.intensity_problems(configs, basis) == []
    assert checks.intensity_problems(configs, orthopoly.orthonormal_basis(3, 1, 2))


def test_config_check_rejects_malformed_configurations():
    good = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.25 - 0.5j]])
    assert checks.config_problems(good, 2) == []
    assert checks.config_problems(good, 3)
    outside = good.copy()
    outside[1, 0] = 1.0
    assert checks.config_problems(outside, 2)
    repeated = good.copy()
    repeated[0, 1] = repeated[0, 0]
    assert checks.config_problems(repeated, 2)
    assert checks.config_problems(np.full((2, 2), np.nan + 0j), 2)


def test_verify_dpp_check_reads_gate_and_points(tmp_path, haar_configs):
    cfg = {"command": "verify-dpp", "seed": 3, "n": 2, "m": 1, "delta": 0, "samples": 2000,
           "sampler": "haar", "output_dir": str(tmp_path)}
    code, _ = cli.run(cli.parse_config(cfg))
    assert checks.verify_dpp_problems(tmp_path, code, 2000, 2) == []
    assert checks.verify_dpp_problems(tmp_path, code, 2001, 2)

    # The gate's report for delta = 0 draws judged by the delta = 2 kernel.
    partition = dpp.equal_mass_partition(hplab.WeightSpec("hp", 1, 2), 4, 6, 0.95)
    wrong = dpp.verify_intensities(haar_configs[:2000], orthopoly.finite_kernel(
        orthopoly.orthonormal_basis(2, 1, 2)), partition)
    good_report = (tmp_path / "report.json").read_text()
    (tmp_path / "report.json").write_text(json.dumps(wrong.to_dict()))
    assert checks.verify_dpp_problems(tmp_path, 0, 2000, 2)
    (tmp_path / "report.json").write_text(good_report)

    rows = list(csv.reader(open(tmp_path / "points.csv")))
    rows[5][2] = "1.5"
    with open(tmp_path / "points.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert checks.verify_dpp_problems(tmp_path, 0, 2000, 2)


def test_basis_check_rejects_basis_of_another_delta():
    assert checks.basis_problems(orthopoly.orthonormal_basis(12, 2, 1 + 2j).coeffs, 2, 1 + 2j) == []
    wrong = orthopoly.orthonormal_basis(12, 2, 1).coeffs
    assert checks.basis_problems(wrong, 2, 1 + 2j)


def test_basis_check_compares_delta0_with_closed_form():
    coeffs = orthopoly.orthonormal_basis(20, 3, 0).coeffs
    assert checks.basis_problems(coeffs, 3, 0j) == []
    assert checks.basis_problems(coeffs * (1 + 1e-6), 3, 0j)


def test_basis_csv_round_trip(tmp_path):
    basis = orthopoly.orthonormal_basis(5, 2, -0.3 + 0.7j)
    orthopoly.write_basis_csv(basis, tmp_path / "basis.csv")
    coeffs, m, delta = checks.read_basis_csv(tmp_path / "basis.csv")
    assert (m, delta) == (2, -0.3 + 0.7j)
    assert np.array_equal(coeffs, basis.coeffs)


def test_profile_check_rejects_wrong_or_unconverged_profiles():
    ns = [10, 20, 40]
    sups = [row.sup_error for row in dpp.convergence_profile(1, 1, ns)]
    assert checks.profile_problems(ns, sups, 1, 1 + 0j) == []
    assert checks.profile_problems(ns, [s * 1.001 for s in sups], 1, 1 + 0j)
    assert checks.profile_problems(ns, sups, 1, 1 + 2j)
    # The rule itself: this profile decreases, but at order 0.64 < m = 1.
    short = [6, 8, 10]
    sups = [row.sup_error for row in dpp.convergence_profile(1, 1 + 2j, short)]
    assert [p for p in checks.profile_problems(short, sups, 1, 1 + 2j) if "order" in p]


def test_gauge_check_rejects_nonzero_error():
    assert checks.gauge_report_problems({"rel_errors": [1e-19, 3e-20]}, 2) == []
    assert checks.gauge_report_problems({"rel_errors": [1e-19, 1e-6]}, 2)
    assert checks.gauge_report_problems({"rel_errors": [1e-19]}, 2)


def test_tracer_records_nested_spans_and_restores_the_program():
    original = truncation.sample_haar_unitary
    tracer = Tracer()
    tracer.install()
    params = hplab.HPParams(2, 1, 0)
    try:
        tracer.active = True
        truncation.sample_truncation_ensemble(params, 10, "haar", hplab.RngStream(1))
        tracer.active = False
        truncation.sample_truncation_ensemble(params, 10, "haar", hplab.RngStream(1))
    finally:
        tracer.uninstall()
    assert truncation.sample_haar_unitary is original
    st = tracer.stats()
    assert st["truncation.sample_truncation_ensemble"].calls == 1
    assert st["sampling.sample_haar_unitary"].calls == 10
    assert st["truncation.eigenvalues"].calls == 10
    root = st["truncation.sample_truncation_ensemble"]
    assert 0 < root.self_s < root.total_s
    assert all(parent == 0 for _, _, _, parent in tracer.spans[1:])


def test_parse_importtime_subtracts_nested_hplab_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     hplab.errors",
        "import time:       900 |     160000 |       numpy",
        "import time:       970 |     161000 |     hplab.rng",
        "import time:       944 |     170000 |   hplab",
        "import time:      7224 |     177000 | hplab.cli",
    ])
    got = run._parse_importtime(text)
    assert got["rng"] == pytest.approx(0.161)
    assert got["cli"] == pytest.approx(0.007)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(w["name"]) for w in spec["workloads"]} == set(run.WORKLOADS) == set(jobs.RATE_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
