"""Benchmark for hplab: time to a verified ensemble or analysis, per workload.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload matrix-verify --seed 1 --seconds 20 --trace 0

Workloads are ``matrix-verify``, ``dpp-sample`` and ``kernel-analysis`` (see
README.md).  A run first times a fresh interpreter importing ``hplab.cli``
(set-up), then repeats rounds of the workload's jobs until ``--seconds`` have
passed; every job starts with hplab's caches empty and every output is
checked.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` one untraced and one
traced round run and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("matrix-verify", "dpp-sample", "kernel-analysis")
SETUP_REPEATS = 3
TRACE_PAIRS = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "job1_per_s": "1/s", "job2_per_s": "1/s", "job3_per_s": "1/s"}


def _import_hplab():
    """Import hplab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hplab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import hplab from {SRC}: {exc}")
    import hplab

    if Path(hplab.__file__).resolve().parent != SRC / "hplab":
        raise SystemExit(f"bench: hplab was imported from {hplab.__file__}, not from {SRC}")


def measure_setup(importtime: bool):
    """Median wall time of a fresh interpreter importing ``hplab.cli``.

    With ``importtime`` the interpreter runs under ``-X importtime`` and the
    median import time of each hplab module (``"rng"``, ``"cli"``, ...) is
    returned as well: its cumulative time minus that of the hplab modules
    nested under it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, "-c", "import hplab.cli"]
    walls, per_module = [], {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing hplab.cli failed:\n{proc.stderr}")
        if importtime:
            for mod, secs in _parse_importtime(proc.stderr).items():
                per_module.setdefault(mod, []).append(secs)
    imports = {m: statistics.median(v) for m, v in per_module.items()}
    return statistics.median(walls), imports


def _parse_importtime(text: str) -> dict[str, float]:
    rows = []  # (depth, name, cumulative seconds)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cum) * 1e-6))
    out = {}
    for i, (depth, name, cum) in enumerate(rows):
        if not name.startswith("hplab."):
            continue
        nested, j = 0.0, i - 1
        while j >= 0 and rows[j][0] > depth:
            child_depth, child, child_cum = rows[j]
            if child_depth == depth + 1 and (child == "hplab" or child.startswith("hplab.")):
                nested += child_cum
            j -= 1
        out[name[len("hplab."):]] = cum - nested
    return out


class Round:
    """One pass over a workload's jobs: timings, outputs and verdicts."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times: list[float] = []
        self.outputs: list = []
        self.failed = 0
        self.problems: list[str] = []
        self.span_ranges: list[tuple[int, int]] = []


def run_round(jobs, tracer=None) -> Round:
    """Run each job with hplab's caches emptied first, time it, then check its output."""
    from jobs import clear_caches

    rnd = Round(jobs)
    for k, job in enumerate(jobs):
        clear_caches()
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = tracer.span(f"bench.{job.name}", job.execute) if tracer else job.execute()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.active = False
        rnd.times.append(elapsed)
        rnd.outputs.append(out)
        rnd.span_ranges.append((first_span, len(tracer.spans) if tracer else 0))
        if out is None:
            rnd.failed += 1
            continue
        rnd.problems += [f"job {k} ({job.name}): {p}" for p in job.check(out)]
    return rnd


def pooled_problems(rounds) -> list[str]:
    """Run each job's pooled check once on its outputs from all rounds."""
    pools = {}
    for rnd in rounds:
        for job, out in zip(rnd.jobs, rnd.outputs):
            if job.pooled_check is not None and out is not None:
                pools.setdefault(job.name, (job.pooled_check, []))[1].append(out)
    return [
        f"{name} (all rounds): {p}" for name, (check, outs) in pools.items() for p in check(outs)
    ]


def end_to_end(rounds, setup_s) -> dict[str, float]:
    """Rates are total work over total time across the run's rounds, so they average over
    the machine's drift and over the rounds' inputs; ``wall_s`` is the mean round."""
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.mean(sum(r.times) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for slot in range(3):
        work = secs = 0.0
        for rnd in rounds:
            for job, t, out in zip(rnd.jobs, rnd.times, rnd.outputs):
                if job.slot == slot and out is not None:
                    work += job.work
                    secs += t
        metrics[f"job{slot + 1}_per_s"] = work / secs if secs else 0.0
    return metrics


def measure(args, out: Path, setup_s, imports):
    """Run the rounds; returns (rounds, metrics, units).

    Untraced, rounds 0, 1, 2, ... run until ``args.seconds`` have passed.
    Traced, each of ``TRACE_PAIRS`` round indices runs once untraced and
    once traced, alternately, so that drift cancels in the overhead.
    """
    import jobs
    import layers
    from tracing import Tracer

    def build(r):
        return jobs.build(args.workload, args.seed, r, out)

    if args.trace:
        tracer = Tracer()
        plain, traced = [], []
        for r in range(TRACE_PAIRS):
            plain.append(run_round(build(r)))
            tracer.install()
            try:
                traced.append(run_round(build(r), tracer))
            finally:
                tracer.uninstall()
        metrics = layers.per_layer(args.workload, plain, traced, tracer, imports)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.csv.gz")
        return plain + traced, metrics, layers.UNITS
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        rounds.append(run_round(build(len(rounds))))
    return rounds, end_to_end(rounds, setup_s), E2E_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")

    _import_hplab()
    import jobs

    setup_s, imports = measure_setup(importtime=bool(args.trace))
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rounds, metrics, units = measure(args, out, setup_s, imports)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(len(r.jobs) for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems] + pooled_problems(rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload}: {attempted} jobs attempted, {failed} failed, "
          f"{len(rounds)} rounds, checks {'passed' if not problems else 'FAILED'}")
    aliases = dict(zip(("job1_per_s", "job2_per_s", "job3_per_s"), jobs.RATE_NAMES[args.workload]))
    for key, value in metrics.items():
        alias = f" ({aliases[key]})" if key in aliases else ""
        print(f"  {key}{alias} = {value:.6g} {units[key]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
