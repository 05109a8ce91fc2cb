"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload drives the package through its public entry points the way
the command line does: ``harness.run_experiment`` per dataset, then
``ingest.write_report`` in CSV and JSON. Engine runs are observed by
rebinding ``harness.run_engine`` (see :class:`RunLog`); each returned trace
is checked while the pass clock is paused, so checking costs no measured
time and no trace is kept alive past its check.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import feedback_kmeans as fk
from feedback_kmeans import cli, engines, harness, ingest, synth
from speed import SpeedProbe


@dataclass(frozen=True)
class Workload:
    """A fixed job: n_datasets planted mixes of n_points, each run through
    the protocol grid described by ``experiment`` (ExperimentConfig fields
    other than the seed)."""

    name: str
    n_points: int
    n_datasets: int
    via_csv: bool
    experiment: dict
    setup_repeats: int


# Sizes are set so that one pass averages over enough independent datasets
# for its timings to spread little across seeds: one 20k-point dataset's
# Lloyd work varies by about 15% from seed to seed (more at k=16), which
# several datasets per pass average out. perfbench/README.md gives each
# workload's purpose.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_grid", 20_000, 4, True, {"repeats_per_cell": 1}, 3),
        Workload(
            "deep_refine", 5_000, 6, True,
            {"k_values": (16,), "sme_iterations": 50, "sm_iterations": 100, "repeats_per_cell": 1},
            3,
        ),
        Workload("small_grid", 400, 20, False, {"repeats_per_cell": 1}, 5),
    )
}


def dataset_seeds(workload: Workload, seed: int) -> list[int]:
    """Generator and experiment seed of each dataset, distinct per (seed, index)."""
    return [seed * 1000 + i for i in range(workload.n_datasets)]


def setup(workload: Workload, seed: int, scratch: Path) -> list:
    """Build the inputs: CSV workloads take the command line's data path
    (generate, write CSV, read it back standardized); the others standardize
    in memory."""
    datasets = []
    for ds_seed in dataset_seeds(workload, seed):
        config = synth.demo_generator_config(n_points=workload.n_points, seed=ds_seed)
        raw = synth.generate(config)
        if workload.via_csv:
            path = scratch / f"dataset-{ds_seed}.csv"
            ingest.write_csv(raw, path)
            dataset = ingest.read_csv(path, standardize=True)
        else:
            dataset, _ = synth.standardize(raw)
        profile = synth.build_oracle_profile(config, rng_seed=ds_seed)
        datasets.append((ds_seed, dataset, profile))
    return datasets


@dataclass
class RunLog:
    """Latency, step counts and check results of every engine run in a pass.

    ``pause`` is a callable returning a context manager that stops tracing
    while a trace is checked; ``probe`` samples the machine speed between
    runs, also paused and off the clock.
    """

    pause: object
    probe: SpeedProbe
    latencies: list[float] = field(default_factory=list)
    steps: int = 0
    stalled: int = 0
    best_steps: int = 0
    refine_steps: int = 0
    sme_iterations: int = 0
    sme_undos: int = 0
    bad_runs: int = 0
    check_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def install(self):
        original = harness.run_engine

        def observed(dataset, k, config):
            start = perf_counter()
            try:
                trace = original(dataset, k, config)
            finally:
                end = perf_counter()
                self.latencies.append(end - start)
            with self.pause():
                self._check(dataset, trace, config.method.value)
                self.probe.maybe()
            self.check_s += perf_counter() - end
            return trace

        harness.run_engine = observed
        return lambda: setattr(harness, "run_engine", original)

    def _check(self, dataset, trace, method: str) -> None:
        records = engines.trace_records(trace)
        # For method "sme" this also requires k to be the same at every step.
        violations = cli.validate_trace_records(records, method)
        for step in trace.steps:
            if step.clustering is not None:
                violations += fk.validate_clustering(dataset, step.clustering)
        if violations:
            self.bad_runs += 1
            self.problems.append(f"{method} run seed={trace.seed}: " + "; ".join(violations[:3]))
        self.steps += len(records)
        self.stalled += trace.stalled
        self.refine_steps += len(records) - 1
        self.best_steps += sum(rec["is_best"] for rec in records[1:])
        if method == "sme":
            for rec in records[1:]:
                # Children of a split at k take ids k-1 and k; merging exactly
                # that pair undoes the split.
                self.sme_iterations += 1
                self.sme_undos += rec["action"].endswith(f"+merge({rec['k'] - 1},{rec['k']})")
        for rec in records:
            self.digest.update(json.dumps(rec, sort_keys=True).encode() + b"\n")


@dataclass
class PassResult:
    wall_s: float  # measured seconds
    speed: float  # slowdown factor over the pass; wall_s / speed is in reference seconds
    log: RunLog
    reports: list  # ExperimentReport per dataset
    cells: int
    cell_failures: list[str]
    k_attempted: int
    k_dropped: int
    problems: list[str]
    digest: str  # SHA-256 of every report file and engine trace

    @property
    def attempted(self) -> int:
        """Operations: engine runs (cells) plus fluctuation k values."""
        return self.cells + self.k_attempted

    @property
    def failures(self) -> list[str]:
        """Every failed operation: cells that raised, runs that failed their
        check, and fluctuation k values the harness dropped."""
        dropped = [f"fluctuation dropped {self.k_dropped} k value(s)"] if self.k_dropped else []
        return self.cell_failures + self.log.problems + dropped

    @property
    def failed(self) -> int:
        return len(self.cell_failures) + self.log.bad_runs + self.k_dropped


def run_pass(workload: Workload, inputs: list, out: Path, pause, probe: SpeedProbe) -> PassResult:
    """One timed pass over every dataset, then its report checks.

    Check and probe time is excluded from wall_s. Every report must read
    back through ingest.read_report to the records it was written from.
    """
    log = RunLog(pause, probe)
    restore = log.install()
    written = []
    first_sample = len(probe.samples)
    probe.sample()
    try:
        start = perf_counter()
        for ds_seed, dataset, profile in inputs:
            config = harness.ExperimentConfig(seed=ds_seed, **workload.experiment)
            report = harness.run_experiment(dataset, config, profile)
            paths = out / f"report-{ds_seed}.csv", out / f"report-{ds_seed}.json"
            ingest.write_report(report, paths[0], format="csv")
            ingest.write_report(report, paths[1], format="json")
            written.append((config, report, paths))
        wall_s = perf_counter() - start - log.check_s
    finally:
        restore()
    probe.sample()
    problems = list(log.problems)
    digest = hashlib.sha256()
    with pause():
        for _, report, paths in written:
            for path in paths:
                if ingest.read_report(path) != report.record_dicts():
                    problems.append(f"{path.name} does not round-trip through read_report")
                digest.update(path.read_bytes())
    digest.update(log.digest.digest())
    reports = [report for _, report, _ in written]
    return PassResult(
        wall_s=wall_s,
        speed=probe.factor(first_sample),
        log=log,
        reports=reports,
        cells=sum(len(r.records) + len(r.failures) for r in reports),
        cell_failures=[
            f"cell {f.method} k={f.k} seed={f.seed}: {f.error}" for r in reports for f in r.failures
        ],
        k_attempted=sum(len(config.k_values) for config, _, _ in written),
        k_dropped=sum(
            len(set(config.k_values) - set(report.fluctuation_by_k or {}))
            for config, report, _ in written
        ),
        problems=problems,
        digest=digest.hexdigest(),
    )


def custom_means(result: PassResult) -> tuple[float, float, int]:
    """Mean customizability of each cell's best clustering, mean
    customizability impact, and the number of cells averaged."""
    records = [r for report in result.reports for r in report.records]
    return (
        statistics.fmean(r.custom_reference for r in records),
        statistics.fmean(r.custom_impact for r in records),
        len(records),
    )
