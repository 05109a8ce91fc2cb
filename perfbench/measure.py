"""Measure one workload in this process and print the result as one JSON line.

Started by ``run.py`` in a fresh interpreter with serial BLAS and the
package's own source on ``PYTHONPATH``. With ``--trace 0`` it sets up the
inputs several times (``setup_s`` is their median), then runs whole passes
of the workload until at least ``--seconds`` have been measured. With
``--trace 1`` it runs one untraced pass, then sets up and runs one pass
with every layer traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import feedback_kmeans
from speed import SpeedProbe
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, custom_means, run_pass, setup

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 7


def _check(workload, seed: int, passes) -> list[str]:
    """Problems found in the outputs: failed run or report checks, passes
    over the same inputs that disagree, and at the default seed a digest
    other than the pinned one."""
    problems = [p for result in passes for p in result.problems]
    digest = passes[0].digest
    if any(result.digest != digest for result in passes[1:]):
        problems.append("outputs differ between passes over the same inputs")
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name)
        if pinned != digest:
            problems.append(f"output digest {digest} != pinned {pinned}")
    return problems


def untraced(workload, seed: int, seconds: float, out: Path) -> dict:
    probe = SpeedProbe()
    raw_setup, setup_times = [], []
    for _ in range(workload.setup_repeats):
        # Set-up has no hook for sampling inside it; bracket it instead.
        first = len(probe.samples)
        probe.sample(3)
        start = perf_counter()
        inputs = setup(workload, seed, out)
        raw_setup.append(perf_counter() - start)
        probe.sample(3)
        setup_times.append(raw_setup[-1] / probe.factor(first))
    passes = []
    while sum(p.wall_s for p in passes) < seconds:
        passes.append(run_pass(workload, inputs, out, contextlib.nullcontext, probe))
    latencies = [t / p.speed for p in passes for t in p.log.latencies]
    walls = [p.wall_s / p.speed for p in passes]
    best, impact, cells = custom_means(passes[0])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "steps_per_s": (sum(p.log.steps for p in passes) / sum(walls), "1/s", len(walls)),
        "run_p50_s": (float(np.percentile(latencies, 50)), "s", len(latencies)),
        "run_p90_s": (float(np.percentile(latencies, 90)), "s", len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ok_frac": (1 - passes[0].failed / passes[0].attempted, "fraction", passes[0].attempted),
        "custom_best_mean": (best, "ratio", cells),
    }
    measured = {
        "custom_impact_mean": impact,
        "passes": len(passes),
        "raw_setup_s": statistics.median(raw_setup),
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "speed_factor": statistics.median(p.speed for p in passes),
    }
    return {"passes": passes, "metrics": metrics, "measured": measured}


def traced(workload, seed: int, out: Path, spans: Path) -> dict:
    """One untraced pass, then set-up and a pass with every layer traced;
    the spans are written to ``spans``."""
    probe = SpeedProbe()
    inputs = setup(workload, seed, out)
    base = run_pass(workload, inputs, out, contextlib.nullcontext, probe)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        inputs = setup(workload, seed, out)
        result = run_pass(workload, inputs, out, tracer.paused, probe)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(spans)
    log = result.log
    metrics = {
        name: (value / result.speed if unit == "s" else value, unit, 1)
        for name, (value, unit) in layer_metrics(tracer).items()
    }
    metrics.update({
        "engines.steps": (log.steps, "count", 1),
        "engines.stalled": (log.stalled, "count", 1),
        "engines.best_step_frac": (log.best_steps / max(log.refine_steps, 1), "fraction", log.refine_steps),
        "engines.sme_undo_frac": (log.sme_undos / max(log.sme_iterations, 1), "fraction", log.sme_iterations),
        "harness.fluctuation_dropped_k": (result.k_dropped, "count", result.k_attempted),
        "trace_overhead_frac": (
            (result.wall_s / result.speed) / (base.wall_s / base.speed) - 1, "fraction", 1
        ),
    })
    measured = {"wall_s": base.wall_s / base.speed, "traced_wall_s": result.wall_s / result.speed,
                "raw_wall_s": base.wall_s, "raw_traced_wall_s": result.wall_s}
    return {"passes": [base, result], "metrics": metrics, "measured": measured}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    (HERE / "out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / "out"))
    try:
        if args.trace:
            outcome = traced(workload, args.seed, out, HERE / "out" / f"spans-{workload.name}.jsonl")
        else:
            outcome = untraced(workload, args.seed, args.seconds, out)
        problems = _check(workload, args.seed, outcome["passes"])
    finally:
        shutil.rmtree(out)
    last = outcome["passes"][-1]
    print(json.dumps({
        "correct": not problems,
        "attempted": last.attempted,
        "failed": last.failed,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in outcome["metrics"].items()
        },
        "measured": outcome["measured"],
        "problems": problems,
        "failures": last.failures,
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": feedback_kmeans.__file__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
