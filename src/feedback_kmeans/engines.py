"""The two refinement loops over an initial k-means clustering.

Both run in one loop, run_engine, and differ only in what one iteration
does (its step function):

SME: every iteration splits the worst-evaluated cluster, merges the
globally closest centroid pair (the fresh children included, so an
iteration may undo its own split) and evaluates once, after the pair;
the cluster count is preserved at every recorded step.

S/M: every iteration applies exactly one action, split or merge, chosen
from the worst cluster's size rank, merges with the nearest centroid, and
evaluates after each action; the cluster count may drift.

Both stop early once an evaluation reaches the configured target and always
continue from the current clustering, never rolling back; the trace derives
the best evaluation seen (strictly better per sense).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Action,
    Clustering,
    Dataset,
    FeedbackReport,
    RunTrace,
    TraceStep,
    as_integer,
    as_seed,
    parse_json,
)
from .feedback import FeedbackProvider
from .kmeans import KMeansConfig, lloyd
from .operators import (
    MIN_K,
    SMAction,
    closest_centroid_pair,
    distance_rows,
    is_splittable,
    merge_pair,
    nearest_cluster,
    sm_decide,
    split_cluster,
    worst_cluster,
)
from .rng import derive_seed


class Method(enum.Enum):
    SME = "sme"
    SM = "sm"


DEFAULT_ITERATIONS = {Method.SME: 6, Method.SM: 12}


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters shared by both loops.

    iterations defaults to DEFAULT_ITERATIONS for the method (filled in at
    construction), which makes a run of either perform the same number of
    elementary split/merge operators. A run stops early once an evaluation
    reaches target_evaluation.
    """

    method: Method
    feedback: FeedbackProvider
    seed: int
    iterations: int | None = None
    target_evaluation: float | None = None

    def __post_init__(self) -> None:
        iterations = DEFAULT_ITERATIONS[self.method] if self.iterations is None else self.iterations
        object.__setattr__(self, "iterations", as_integer("iterations", iterations))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


# One iteration of a loop: the actions to record, the clustering they
# produce and its distance rows, or None when no legal action remains
# (the run stalls).
_Step = tuple[tuple[Action, ...], Clustering, list[np.ndarray]] | None


def _split_step(
    dataset: Dataset,
    current: Clustering,
    distances: list[np.ndarray],
    report: FeedbackReport,
    seed: int,
    iteration: int,
) -> _Step:
    """Split the worst splittable cluster, falling back down the badness
    order; None when no cluster is splittable."""
    for target in report.sense.worst_first(report.per_cluster):
        if is_splittable(dataset, current, target):
            split_seed = derive_seed(seed, "split", iteration)
            return (Action.split(target),), *split_cluster(dataset, current, distances, target, split_seed)
    return None


def _sme_step(
    dataset: Dataset,
    current: Clustering,
    distances: list[np.ndarray],
    report: FeedbackReport,
    seed: int,
    iteration: int,
) -> _Step:
    """Split the worst splittable cluster, then merge the closest pair."""
    split = _split_step(dataset, current, distances, report, seed, iteration)
    if split is None:
        return None
    (action,), after_split, distances = split
    i, j = closest_centroid_pair(after_split)
    return (action, Action.merge(i, j)), *merge_pair(dataset, after_split, distances, i, j)


def _sm_step(
    dataset: Dataset,
    current: Clustering,
    distances: list[np.ndarray],
    report: FeedbackReport,
    seed: int,
    iteration: int,
) -> _Step:
    """Split or merge the worst cluster, as sm_decide rules; a split falls
    back to the next-worst splittable cluster."""
    worst = worst_cluster(report)
    if sm_decide(current, worst) is SMAction.MERGE:
        partner = nearest_cluster(current, worst)
        return (Action.merge(worst, partner),), *merge_pair(dataset, current, distances, worst, partner)
    return _split_step(dataset, current, distances, report, seed, iteration)


_STEPS = {Method.SME: _sme_step, Method.SM: _sm_step}


def run_engine(dataset: Dataset, k: int, config: EngineConfig) -> RunTrace:
    """Run the loop selected by config.method from a seeded k-means start.

    Every iteration applies one step of the method and evaluates the
    result. The run ends after the configured iterations, once an
    evaluation reaches the target, or early, flagged as stalled, when no
    legal action remains.

    The current clustering's point-to-centroid distances, one row per
    centroid, are built once from the start and carried through the split
    and merge operators; only the current step's rows are kept.
    """
    if k < MIN_K:
        raise ValueError(f"k={k} below the minimum cluster count")
    step = _STEPS[config.method]
    provider, target = config.feedback, config.target_evaluation
    current = lloyd(dataset, KMeansConfig(k=k, seed=derive_seed(config.seed, "init")))
    distances = distance_rows(dataset, current.centroids)
    report = provider.evaluate(dataset, current, provider.evaluation_rng(0))
    steps = [TraceStep(actions=(Action.init(),), clustering=current, feedback=report)]
    stalled = False
    for iteration in range(1, config.iterations + 1):
        if target is not None and provider.sense.reached(report.aggregate, target):
            break
        outcome = step(dataset, current, distances, report, config.seed, iteration)
        if outcome is None:
            stalled = True
            break
        actions, current, distances = outcome
        report = provider.evaluate(dataset, current, provider.evaluation_rng(iteration))
        steps.append(TraceStep(actions=actions, clustering=current, feedback=report))
    return RunTrace(steps=tuple(steps), seed=config.seed, stalled=stalled)


def best_clustering(trace: RunTrace) -> tuple[Clustering, float]:
    """The best-evaluated clustering of the trace and its evaluation."""
    return trace.steps[trace.best_step_index].clustering, trace.best_evaluation


def trace_records(trace: RunTrace) -> list[dict]:
    """Flat export records, one per step."""
    return [
        {
            "step": index,
            "action": "+".join(a.label() for a in step.actions),
            "k": step.k,
            "per_cluster_feedback": [float(v) for v in step.feedback.per_cluster],
            "aggregate": float(step.feedback.aggregate),
            "is_best": is_best,
        }
        for index, (step, is_best) in enumerate(zip(trace.steps, trace.best_flags))
    ]


def write_trace(trace: RunTrace, path: str | Path) -> None:
    """JSON-lines trace export: one record per step, stable key order."""
    lines = [json.dumps(rec, sort_keys=True) for rec in trace_records(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_records(path: str | Path) -> list[dict]:
    """Parse a JSON-lines trace export; a line that is not UTF-8 JSON is named."""
    with open(path, "rb") as handle:
        return [parse_json(line, f"{path}: line {n}") for n, line in enumerate(handle, start=1) if line.strip()]
