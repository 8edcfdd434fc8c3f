"""Per-layer metrics derived from untraced and traced rounds of the same jobs.

Every metric is reported on every workload; a layer the workload never calls
reads 0.  Times and call counts are per round: span totals over the traced
rounds, manifest timings over the untraced ones, each divided by the number
of rounds.  Counts and rates named after a job (``.haar``, ``.real``, ...)
are taken over that job's executions in the traced rounds.
"""

from __future__ import annotations

import checks

JOB_METRICS = {
    "matrix-verify": ("haar", "real", "complex"),
    "dpp-sample": ("real", "complex", "singular"),
}
MODULES = ("rng", "sampling", "truncation", "weights", "orthopoly", "dpp", "stats", "cli")

# (name, unit, better)
METRICS = (
    [
        ("sampling.haar_us", "us", "lower"),
        ("sampling.log_weight_us", "us", "lower"),
        ("sampling.self_s", "s", "lower"),
    ]
    + [(f"sampling.proposals_per_config.{j}", "count", "lower")
       for j in JOB_METRICS["matrix-verify"]]
    + [(f"sampling.acceptance_rate.{j}", "ratio", "higher") for j in ("real", "complex")]
    + [
        ("truncation.eig_us", "us", "lower"),
        ("truncation.self_s", "s", "lower"),
        ("cli.write_points_s", "s", "lower"),
        ("cli.verification_s", "s", "lower"),
        ("dpp.partition_s", "s", "lower"),
        ("dpp.verify_s", "s", "lower"),
    ]
    + [(f"dpp.sampler_ms_per_config.{j}", "ms", "lower") for j in JOB_METRICS["dpp-sample"]]
    + [(f"dpp.proposals_per_config.{j}", "count", "lower") for j in JOB_METRICS["dpp-sample"]]
    + [(f"dpp.acceptance_rate.{j}", "ratio", "higher") for j in JOB_METRICS["dpp-sample"]]
    + [
        ("dpp.envelope_restarts", "count", "lower"),
        ("orthopoly.evaluate_calls", "count", "lower"),
        ("orthopoly.evaluate_s", "s", "lower"),
        ("weights.weight_eval_calls", "count", "lower"),
        ("weights.weight_eval_s", "s", "lower"),
        ("weights.gram_s", "s", "lower"),
        ("weights.gram_us_per_entry", "us", "lower"),
        ("orthopoly.basis_self_s", "s", "lower"),
        ("dpp.convergence_self_s", "s", "lower"),
        ("dpp.gauge_ms_per_tuple", "ms", "lower"),
    ]
    + [(f"{m}.import_s", "s", "lower") for m in MODULES]
    + [
        ("orthopoly.quad_residual", "abs_err", "lower"),
        ("dpp.gauge_max_rel_error", "rel_err", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in METRICS}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, plain, traced, tracer, imports) -> dict[str, float]:
    """Per-layer metrics; ``plain[i]`` and ``traced[i]`` ran the same jobs."""
    st = tracer.stats()
    rounds = len(traced)

    def calls(name):
        return st[name].calls / rounds if name in st else 0

    def total(name):
        return st[name].total_s / rounds if name in st else 0.0

    def self_of(prefix):
        return sum(s.self_s for name, s in st.items() if name.startswith(prefix)) / rounds

    def mean_time(name, unit):
        return _ratio(total(name), calls(name)) * unit

    def job_stats(job_name):
        """Per-span-name stats over the traced executions of one job, and their work."""
        merged, work, outs = {}, 0, []
        for rnd in traced:
            for job, out, span_range in zip(rnd.jobs, rnd.outputs, rnd.span_ranges):
                if job.name != job_name or out is None:
                    continue
                work += job.work
                outs.append(out)
                for name, s in tracer.stats(*span_range).items():
                    acc = merged.setdefault(name, [0, 0.0])
                    acc[0] += s.calls
                    acc[1] += s.total_s
        return merged, work, outs

    m = {
        "sampling.haar_us": mean_time("sampling.sample_haar_unitary", 1e6),
        "sampling.log_weight_us": mean_time("sampling.hp_log_weight", 1e6),
        "sampling.self_s": self_of("sampling."),
    }
    matrix_jobs = JOB_METRICS["matrix-verify"] if workload == "matrix-verify" else ()
    for j in JOB_METRICS["matrix-verify"]:
        draws, configs = 0, 0
        if j in matrix_jobs:
            merged, configs, _ = job_stats(j)
            draws = merged.get("sampling.sample_haar_unitary", [0, 0.0])[0]
        m[f"sampling.proposals_per_config.{j}"] = _ratio(draws, configs)
        if j != "haar":
            m[f"sampling.acceptance_rate.{j}"] = _ratio(configs, draws)

    stage_s = {"write_points": 0.0, "verification": 0.0}
    for rnd in plain:
        for job, out in zip(rnd.jobs, rnd.outputs):
            if job.is_cli and out is not None:
                for stage in stage_s:
                    stage_s[stage] += out[1]["timings_s"].get(stage, 0.0) / len(plain)
    m.update({
        "truncation.eig_us": mean_time("truncation.eigenvalues", 1e6),
        "truncation.self_s": self_of("truncation."),
        "cli.write_points_s": stage_s["write_points"],
        "cli.verification_s": stage_s["verification"],
        "dpp.partition_s": total("dpp.equal_mass_partition"),
        "dpp.verify_s": total("dpp.verify_intensities"),
    })

    dpp_jobs = JOB_METRICS["dpp-sample"] if workload == "dpp-sample" else ()
    per_job = {}
    for j in JOB_METRICS["dpp-sample"]:
        secs = configs = proposals = points = 0
        if j in dpp_jobs:
            merged, configs, outs = job_stats(j)
            secs = merged.get("dpp.sample_projection_dpp", [0, 0.0])[1]
            proposals = sum(out[2] for out in outs)
            points = sum(out[1].size for out in outs)
        per_job[j] = (secs, configs, proposals, points)
    for j, (secs, configs, _, _) in per_job.items():
        m[f"dpp.sampler_ms_per_config.{j}"] = _ratio(secs, configs) * 1e3
    for j, (_, configs, proposals, _) in per_job.items():
        m[f"dpp.proposals_per_config.{j}"] = _ratio(proposals, configs)
    for j, (_, _, proposals, points) in per_job.items():
        m[f"dpp.acceptance_rate.{j}"] = _ratio(points, proposals)

    plans = tracer.captured.get("dpp._sampler_plan", [])
    gram_sizes = tracer.captured.get("weights.gram_matrix", [])
    entries = sum(n * (n + 1) // 2 for n in gram_sizes) / rounds
    bases = tracer.captured.get("orthopoly.orthonormal_basis", [])
    gauges = tracer.captured.get("dpp.gauge_identity_check", [])
    m.update({
        "dpp.envelope_restarts": (len(plans) - len(set(plans))) / rounds,
        "orthopoly.evaluate_calls": calls("orthopoly.evaluate"),
        "orthopoly.evaluate_s": total("orthopoly.evaluate"),
        "weights.weight_eval_calls": calls("weights.weight_eval"),
        "weights.weight_eval_s": total("weights.weight_eval"),
        "weights.gram_s": total("weights.gram_matrix"),
        "weights.gram_us_per_entry": _ratio(total("weights.gram_matrix"), entries) * 1e6,
        "orthopoly.basis_self_s": self_of("orthopoly.orthonormal_basis"),
        "dpp.convergence_self_s": self_of("dpp.convergence_profile"),
        "dpp.gauge_ms_per_tuple": mean_time("dpp.gauge_identity_check", 1e3),
    })
    m.update({f"{mod}.import_s": imports.get(mod, 0.0) for mod in MODULES})
    m["orthopoly.quad_residual"] = max(
        (checks.quadrature_residual(b.coeffs, b.m, b.delta) for b in bases), default=0.0
    )
    m["dpp.gauge_max_rel_error"] = max(gauges, default=0.0)
    plain_s = sum(sum(r.times) for r in plain)
    traced_s = sum(sum(r.times) for r in traced)
    m["trace.overhead_pct"] = 100.0 * _ratio(traced_s - plain_s, plain_s)
    return m
