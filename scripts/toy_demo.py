"""Walkthrough of feedback-driven refinement on a 12-point toy layout.

Two horizontal bands (x = 0 and x = 10) are each spread across two
far-apart vertical groups, so a purely geometric 2-means mixes the bands.
The feedback used here scores each cluster by the variance of its x
coordinates (lower is better): external knowledge the geometric clustering
cannot see. Watching the trace shows the worst cluster being split, the
resulting pieces re-merged along x, and the best clustering ending up
x-homogeneous.

Run: python scripts/toy_demo.py
"""

import numpy as np

from feedback_kmeans import (
    Dataset,
    EngineConfig,
    Method,
    Sense,
    best_clustering,
    evaluate_per_cluster,
    run_engine,
)


class XVarianceFeedback:
    sense = Sense.LOWER_IS_BETTER

    def evaluate(self, dataset, clustering, rng=None):
        return evaluate_per_cluster(
            dataset,
            clustering,
            self.sense,
            lambda cid, members: float(np.var(dataset.points[members, 0])),
        )

    def evaluation_rng(self, step):
        return None


def toy_dataset() -> Dataset:
    points = []
    for y_base in (0.0, 30.0):
        for dy in range(3):
            points.append([0.0, y_base + dy])
            points.append([10.0, y_base + dy + 0.5])
    return Dataset(points=np.array(points), feature_names=("x", "y"))


def describe(dataset, clustering) -> str:
    parts = []
    for cid in range(clustering.k):
        xs = sorted({float(v) for v in dataset.points[clustering.members(cid), 0]})
        parts.append(f"cluster {cid}: x values {xs}")
    return "; ".join(parts)


def main() -> None:
    dataset = toy_dataset()
    config = EngineConfig(method=Method.SM, feedback=XVarianceFeedback(), seed=0, iterations=6)
    trace = run_engine(dataset, 2, config)

    print("feedback: per-cluster x variance (lower is better)\n")
    for index, (step, is_best) in enumerate(zip(trace.steps, trace.best_flags)):
        actions = "+".join(a.label() for a in step.actions)
        flag = "  <- new best" if is_best else ""
        print(f"step {index} [{actions}] k={step.k} aggregate={step.feedback.aggregate:.3f}{flag}")
        print(f"    {describe(dataset, step.clustering)}")
    best, evaluation = best_clustering(trace)
    print(f"\nbest clustering: step {trace.best_step_index}, aggregate {evaluation:.3f}, k={best.k}")
    print("every cluster is x-homogeneous:", all(
        np.var(dataset.points[best.members(c), 0]) == 0 for c in range(best.k)
    ))


if __name__ == "__main__":
    main()
