import numpy as np

from feedback_kmeans import Clustering, Dataset, KMeansConfig, Sense, evaluate_per_cluster, lloyd
from feedback_kmeans.kmeans import (
    TOLERANCE,
    assign_points,
    init_centroids,
    lloyd_history,
    repair_empty,
    update_centroids,
)
from feedback_kmeans.rng import substream

CONTRACT_MEMBERS = {"sense", "evaluate", "evaluation_rng"}


class NoisyPlugIn:
    """A feedback plug-in with only the contract's three members: each
    cluster scores 1 plus a uniform draw from the evaluation stream, higher
    is better."""

    sense = Sense.HIGHER_IS_BETTER

    def evaluate(self, dataset, clustering, rng):
        return evaluate_per_cluster(
            dataset, clustering, self.sense, lambda cid, members: 1.0 + rng.random()
        )

    def evaluation_rng(self, step):
        return substream(0, "plug-in", step)


class ConstantPlugIn:
    """A deterministic plug-in with only the contract's three members."""

    sense = Sense.HIGHER_IS_BETTER

    def evaluate(self, dataset, clustering, rng):
        return evaluate_per_cluster(dataset, clustering, self.sense, lambda cid, members: 1.0)

    def evaluation_rng(self, step):
        return None


def own_members(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("__")}


def make_dataset(points, feature_names=None, **kwargs) -> Dataset:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(points.shape[1]))
    return Dataset(points=points, feature_names=feature_names, **kwargs)


def weighted_rss(dataset: Dataset, assignment: np.ndarray, centroids: np.ndarray) -> float:
    """Size-weighted mean cluster RSS, computed as the flat global mean of
    squared point-to-assigned-centroid distances (the two forms agree
    algebraically)."""
    diff = dataset.points - centroids[assignment]
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def plain_lloyd(dataset: Dataset, config: KMeansConfig) -> tuple[Clustering, int]:
    """Lloyd with a full nearest-centroid pass on every iteration: the
    reference the bounded loop must equal. Returns (clustering, iterations)."""
    centroids = init_centroids(dataset, config.k, config.seed)
    assignment = assign_points(dataset, centroids)
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        new_centroids, _ = update_centroids(dataset, assignment, config.k)
        shift = float(np.max(np.einsum("kd,kd->k", new_centroids - centroids, new_centroids - centroids)))
        centroids = new_centroids
        assignment = assign_points(dataset, centroids)
        repaired = bool((np.bincount(assignment, minlength=config.k) == 0).any())
        if repaired:
            clustering = repair_empty(dataset, assignment, centroids)
            assignment, centroids = clustering.assignment, clustering.centroids
        if not repaired and shift <= TOLERANCE:
            break
    return Clustering(assignment=assignment, centroids=centroids), iterations


def objective_sequence(dataset: Dataset, config: KMeansConfig) -> list[float]:
    """Weighted RSS after init plus the first assignment, then after each
    Lloyd iteration. Lloyd is deterministic, so the state after t iterations
    is lloyd(...) capped at max_iterations=t."""
    centroids = init_centroids(dataset, config.k, config.seed)
    sequence = [weighted_rss(dataset, assign_points(dataset, centroids), centroids)]
    iterations = len(lloyd_history(dataset, config)[1]) - 1
    for t in range(1, iterations + 1):
        capped = lloyd(dataset, KMeansConfig(k=config.k, seed=config.seed, max_iterations=t))
        sequence.append(weighted_rss(dataset, capped.assignment, capped.centroids))
    return sequence
