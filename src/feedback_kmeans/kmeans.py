"""Lloyd's k-means with seeded random initialization.

Provides the individual steps (init / assign / update / empty-cluster
repair) as standalone operations because the split operator reuses the
assignment pass on its own, outside a full Lloyd loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Clustering, Dataset

# Lloyd stops once centroid movement, the maximum over centroids of the
# squared displacement between consecutive iterations, is at most this.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class KMeansConfig:
    """Lloyd loop parameters."""

    k: int
    seed: int
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared Euclidean distances.

    Computed from explicit differences (not the expanded-norm identity) so
    that exactly equal distances compare equal and ties stay deterministic.
    """
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def init_centroids(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """k distinct data points chosen uniformly without replacement.

    Sampling is over the distinct point values, in sorted row order, so the
    returned centroids are pairwise distinct even when the dataset contains
    duplicates. Each drawn value is its row's first occurrence.

    Raises:
        ValueError: if the dataset has fewer than k distinct points.
    """
    _, first = np.unique(dataset.row_ids, return_index=True)
    if k > first.size:
        raise ValueError(f"k exceeds distinct points: k={k}, distinct={first.size}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(first.size, size=k, replace=False)
    return dataset.points[first[chosen]]


def assign_points(dataset: Dataset, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per point; ties go to the lowest index."""
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    if centroids.shape[0] == 0:
        raise ValueError("centroids must be non-empty")
    if centroids.shape[1] != dataset.n_features:
        raise ValueError(
            f"centroid dimension {centroids.shape[1]} != dataset dimension {dataset.n_features}"
        )
    d2 = squared_distances(dataset.points, centroids)
    return d2.argmin(axis=1).astype(np.int64)


def update_centroids(
    dataset: Dataset, assignment: np.ndarray, k: int
) -> tuple[np.ndarray, list[int]]:
    """Arithmetic mean of each cluster's points.

    Each column's cluster sums accumulate in point order, as numpy's mean
    over the rows of a cluster does for two or more features.

    Returns (centroids, empties); centroids of empty ids are NaN so an
    accidental use without repair fails loudly.
    """
    assignment = np.asarray(assignment)
    if assignment.shape != (dataset.n_points,):
        raise ValueError(f"assignment has shape {assignment.shape} for {dataset.n_points} points")
    if assignment.dtype.kind not in "iu":
        raise ValueError(f"assignment must hold integer cluster ids, got dtype {assignment.dtype}")
    if assignment.min() < 0:
        raise ValueError("assignment refers to a negative cluster id")
    if assignment.max() >= k:
        raise ValueError("assignment refers to a cluster id >= k")
    assignment = assignment.astype(np.intp, copy=False)  # bincount takes no uint64
    counts = np.bincount(assignment, minlength=k)
    sums = np.stack(
        [np.bincount(assignment, weights=column, minlength=k) for column in dataset.points.T],
        axis=1,
    )
    with np.errstate(invalid="ignore"):
        centroids = sums / counts[:, None]
    return centroids, np.flatnonzero(counts == 0).tolist()


def repair_empty(
    dataset: Dataset,
    assignment: np.ndarray,
    centroids: np.ndarray,
    empties: list[int],
) -> Clustering:
    """Re-seed each empty cluster at the point farthest from its centroid.

    The chosen point (ties broken by lowest point index) moves to the empty
    cluster, whose centroid becomes that point; repeats until no cluster is
    empty. Points that are the sole member of their cluster are not eligible
    donors, otherwise a singleton could be drained and the repair would loop.
    """
    k = centroids.shape[0]
    if k > dataset.n_points:
        raise ValueError(
            f"cannot repair: k={k} exceeds dataset size {dataset.n_points}"
        )
    if not empties:
        return Clustering(assignment=assignment, centroids=centroids, k=k)
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    centroids = np.asarray(centroids, dtype=np.float64).copy()
    pending = sorted(int(e) for e in empties)
    while pending:
        empty = pending.pop(0)
        diff = dataset.points - centroids[assignment]
        dist = np.einsum("nd,nd->n", diff, diff)
        sizes = np.bincount(assignment, minlength=k)
        eligible = sizes[assignment] >= 2
        if not eligible.any():
            raise ValueError("cannot repair: no cluster has a point to spare")
        dist = np.where(eligible, dist, -np.inf)
        donor_point = int(np.argmax(dist))
        centroids[empty] = dataset.points[donor_point]
        assignment[donor_point] = empty
    return Clustering(assignment=assignment, centroids=centroids, k=k)


def weighted_rss(dataset: Dataset, assignment: np.ndarray, centroids: np.ndarray) -> float:
    """Size-weighted mean cluster RSS, computed as the flat global mean of
    squared point-to-assigned-centroid distances (the two forms agree
    algebraically)."""
    diff = dataset.points - centroids[assignment]
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def lloyd_history(dataset: Dataset, config: KMeansConfig) -> tuple[Clustering, list[float]]:
    """Run Lloyd's algorithm and record the objective after every iteration.

    history[0] is the weighted RSS right after initialization plus the
    first assignment; one entry follows per update+assign iteration. The
    sequence is non-increasing.
    """
    if config.k > dataset.n_points:
        raise ValueError(
            f"k={config.k} exceeds dataset size {dataset.n_points}"
        )
    centroids = init_centroids(dataset, config.k, config.seed)
    assignment = assign_points(dataset, centroids)
    # Centroids are distinct data points, so each owns at least itself and
    # the first assignment cannot leave a cluster empty.
    history = [weighted_rss(dataset, assignment, centroids)]
    for _ in range(config.max_iterations):
        # No cluster is empty here: see above, and the repair below.
        new_centroids, _ = update_centroids(dataset, assignment, config.k)
        shift = float(np.max(np.einsum("kd,kd->k", new_centroids - centroids, new_centroids - centroids)))
        centroids = new_centroids
        assignment = assign_points(dataset, centroids)
        repaired_after_assign = False
        sizes = np.bincount(assignment, minlength=config.k)
        if (sizes == 0).any():
            repaired = repair_empty(
                dataset, assignment, centroids, list(np.flatnonzero(sizes == 0))
            )
            assignment, centroids = repaired.assignment, repaired.centroids
            repaired_after_assign = True
        history.append(weighted_rss(dataset, assignment, centroids))
        if not repaired_after_assign and shift <= TOLERANCE:
            break
    return Clustering(assignment=assignment, centroids=centroids, k=config.k), history


def lloyd(dataset: Dataset, config: KMeansConfig) -> Clustering:
    """Seeded k-means; deterministic per (dataset, config)."""
    clustering, _ = lloyd_history(dataset, config)
    return clustering
