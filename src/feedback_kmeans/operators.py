"""Split and merge actions over a clustering, plus the selection rules.

Conventions shared by both operators: cluster ids stay dense (0..k-1) after
every action. A split removes the target centroid and appends the two
replacement centroids produced by a seeded 2-means on the target's points;
a merge removes the pair and appends the union, whose centroid is the
arithmetic mean of the union's raw points.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import Clustering, Dataset, FeedbackReport
from .kmeans import KMeansConfig, assign_points, lloyd, repair_empty

MIN_K = 2  # fewest clusters any clustering may have; no merge goes below it


class SMAction(enum.Enum):
    SPLIT = "split"
    MERGE = "merge"


def is_splittable(dataset: Dataset, clustering: Clustering, cluster_id: int) -> bool:
    """A cluster can be split iff it holds at least two distinct points."""
    members = clustering.members(cluster_id)
    if members.size < 2:
        return False
    pts = dataset.points[members]
    return bool((pts != pts[0]).any())


def bisect_cluster(
    dataset: Dataset, clustering: Clustering, target: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 2-means restricted to the target cluster's points.

    Returns (child_centroids, child_labels) with child_labels aligned to the
    target's members in ascending point-index order. This is the pre-global-
    reassignment stage of a split, exposed so the local improvement of a
    split can be measured on its own.
    """
    members = clustering.members(target)
    if members.size < 2:
        raise ValueError(f"cannot split singleton cluster {target}")
    child = lloyd(dataset.subset(members), KMeansConfig(k=2, seed=seed))
    return child.centroids, child.assignment


def split_cluster(dataset: Dataset, clustering: Clustering, target: int, seed: int) -> Clustering:
    """Replace the target cluster with two children, then re-derive every
    cluster as the set of points sharing the same closest centroid.

    The single global assignment pass (no centroid update afterwards) may
    move points between any clusters; clusters emptied by it are repaired.
    The result has k+1 clusters.
    """
    if not 0 <= target < clustering.k:
        raise ValueError(f"split target {target} out of range for k={clustering.k}")
    child_centroids, _ = bisect_cluster(dataset, clustering, target, seed)
    kept = np.delete(clustering.centroids, target, axis=0)
    new_centroids = np.vstack([kept, child_centroids])
    new_k = clustering.k + 1
    assignment = assign_points(dataset, new_centroids)
    if (np.bincount(assignment, minlength=new_k) == 0).any():
        return repair_empty(dataset, assignment, new_centroids)
    return Clustering(assignment=assignment, centroids=new_centroids, k=new_k)


def merge_pair(dataset: Dataset, clustering: Clustering, i: int, j: int) -> Clustering:
    """Replace clusters i and j by their union, appended as the last id.

    The union's centroid is the arithmetic mean of its raw points. No
    reassignment pass is run; k decreases by one.
    """
    if i == j:
        raise ValueError("cannot merge a cluster with itself")
    for cid in (i, j):
        if not 0 <= cid < clustering.k:
            raise ValueError(f"merge id {cid} out of range for k={clustering.k}")
    if clustering.k - 1 < MIN_K:
        raise ValueError(f"minimum cluster count: merging would leave fewer than {MIN_K} clusters")
    union_mask = (clustering.assignment == i) | (clustering.assignment == j)
    union_centroid = dataset.points[union_mask].mean(axis=0)
    kept = [c for c in range(clustering.k) if c not in (i, j)]
    new_centroids = np.vstack([clustering.centroids[kept], union_centroid])
    remap = np.empty(clustering.k, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    remap[[i, j]] = len(kept)
    return Clustering(
        assignment=remap[clustering.assignment],
        centroids=new_centroids,
        k=clustering.k - 1,
    )


def _centroid_distances(clustering: Clustering) -> np.ndarray:
    """(k, k) squared distances between centroids.

    Each entry is the 1 x d by d x 1 product diff @ diff of its pair, which
    is bit-identical to a per-pair ``diff @ diff``; einsum or a summed
    square may differ in the last bit and so flip near-ties.
    """
    c = clustering.centroids
    diff = c[:, None, :] - c[None, :, :]
    return np.matmul(diff[:, :, None, :], diff[:, :, :, None])[:, :, 0, 0]


def closest_centroid_pair(clustering: Clustering) -> tuple[int, int]:
    """Unordered pair of clusters with minimum squared centroid distance.

    Ties break to the lexicographically smallest (i, j).
    """
    if clustering.k < 2:
        raise ValueError("need at least 2 clusters to pick a pair")
    rows, cols = np.triu_indices(clustering.k, 1)  # pairs i < j in lexicographic order
    best = int(np.argmin(_centroid_distances(clustering)[rows, cols]))
    return int(rows[best]), int(cols[best])


def nearest_cluster(clustering: Clustering, target: int) -> int:
    """Cluster whose centroid is nearest the target's (ties -> lowest id)."""
    if clustering.k < 2:
        raise ValueError("need at least 2 clusters")
    if not 0 <= target < clustering.k:
        raise ValueError(f"cluster {target} out of range for k={clustering.k}")
    others = np.flatnonzero(np.arange(clustering.k) != target)
    return int(others[np.argmin(_centroid_distances(clustering)[target, others])])


def worst_cluster(report: FeedbackReport) -> int:
    """Cluster with the worst feedback value (ties -> lowest id)."""
    return report.sense.worst_first(report.per_cluster)[0]


def sm_decide(clustering: Clustering, worst: int) -> SMAction:
    """Split-or-merge rule: split the worst cluster when its size ranks in
    the top half (sizes sorted descending, ties by cluster id), else merge.

    Overrides: a singleton cannot be split, so a chosen Split becomes Merge;
    a Merge at k=2 would drop below the minimum cluster count, so it becomes
    Split. The caller splits the worst splittable cluster, and stalls when
    there is none (at k=2 with two singletons, for one).
    """
    if not 0 <= worst < clustering.k:
        raise ValueError(f"cluster {worst} out of range for k={clustering.k}")
    sizes = clustering.sizes()
    order = sorted(range(clustering.k), key=lambda cid: (-sizes[cid], cid))
    rank = order.index(worst)
    action = SMAction.SPLIT if rank < math.ceil(clustering.k / 2) else SMAction.MERGE
    if action is SMAction.SPLIT and sizes[worst] == 1:
        action = SMAction.MERGE
    if action is SMAction.MERGE and clustering.k == MIN_K:
        action = SMAction.SPLIT
    return action
