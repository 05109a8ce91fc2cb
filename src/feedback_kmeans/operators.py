"""Split and merge actions over a clustering, plus the selection rules.

Conventions shared by both operators: cluster ids stay dense (0..k-1) after
every action. A split removes the target centroid and appends the two
replacement centroids produced by a seeded 2-means on the target's points;
a merge removes the pair and appends the union, whose centroid is the
arithmetic mean of the union's raw points.

Both operators take the clustering's squared point-to-centroid distances
as a list of contiguous (n,) rows, one per centroid in centroid order, and
return the new clustering's list with it: the removed centroids' rows
leave and the new centroids' rows are appended, so an operator computes
and allocates only its new rows (for a split, by an ``assign_points`` pass
against the two children) and keeps the input's own arrays for the rest.
New rows are the rows of a ``column_distances`` result, not copies, and
equal the rows of a full pass bit for bit, so the split's
``nearest_rows`` scan over the rows is the full reassignment's.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import Clustering, Dataset, FeedbackReport
from .kmeans import KMeansConfig, assign_points, column_distances, lloyd, nearest_rows, repair_empty

MIN_K = 2  # fewest clusters any clustering may have; no merge goes below it


class SMAction(enum.Enum):
    SPLIT = "split"
    MERGE = "merge"


def is_splittable(dataset: Dataset, clustering: Clustering, cluster_id: int) -> bool:
    """A cluster can be split iff it holds at least two distinct points."""
    members = clustering.members(cluster_id)
    if members.size < 2:
        return False
    # Row ids are equal exactly when the rows are.
    ids = dataset.row_ids[members]
    return bool((ids != ids[0]).any())


def bisect_cluster(
    dataset: Dataset, clustering: Clustering, target: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 2-means on the target cluster's points: ``lloyd`` on its members.

    Returns (child_centroids, child_labels) with child_labels aligned to the
    target's members in ascending point-index order. This is the pre-global-
    reassignment stage of a split, exposed so the local improvement of a
    split can be measured on its own.
    """
    members = clustering.members(target)
    if members.size < 2:
        raise ValueError(f"cannot split singleton cluster {target}")
    child = lloyd(dataset, KMeansConfig(k=2, seed=seed), members)
    return child.centroids, child.assignment


def distance_rows(dataset: Dataset, centroids: np.ndarray) -> list[np.ndarray]:
    """The distances the operators carry: one contiguous (n,) array per
    centroid, in centroid order: the rows of one ``column_distances``
    result."""
    return list(column_distances(dataset.columns, centroids))


def _relabel(
    clustering: Clustering,
    distances: list[np.ndarray],
    drop: list[int],
    new_centroids: np.ndarray,
    new_rows: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The layout both operators share: the dropped ids leave, the kept ids
    keep their order and the new ids follow them.

    Returns the new centroids, the new distance rows (the clustering's own
    kept rows, then new_rows) and the old-to-new id map, in which each
    dropped id maps to the first new id.
    """
    n, k = clustering.assignment.size, clustering.k
    if len(distances) != k or any(np.shape(row) != (n,) for row in distances):
        shapes = sorted({np.shape(row) for row in distances})
        raise ValueError(f"distances have shape {len(distances)} rows of {shapes}, expected {k} rows of ({n},)")
    kept = [cid for cid in range(k) if cid not in drop]
    remap = np.full(k, len(kept), dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    rows = [distances[cid] for cid in kept] + new_rows
    return np.vstack([clustering.centroids[kept], new_centroids]), rows, remap


def split_cluster(
    dataset: Dataset, clustering: Clustering, distances: list[np.ndarray], target: int, seed: int
) -> tuple[Clustering, list[np.ndarray]]:
    """Replace the target cluster with two children, then re-derive every
    cluster as the set of points sharing the same closest centroid.

    distances are the clustering's distance rows. The target's row is
    replaced by the two children's, the rows of one ``assign_points`` pass
    against the children alone, and the single global assignment pass (no
    centroid update afterwards) is the nearest centroid over the result's
    rows, ties to the lowest id (``nearest_rows``); it may move
    points between any clusters, and clusters emptied by it are repaired,
    with their rows recomputed. Returns the clustering, with k+1 clusters,
    and its rows.
    """
    if not 0 <= target < clustering.k:
        raise ValueError(f"split target {target} out of range for k={clustering.k}")
    child_centroids, _ = bisect_cluster(dataset, clustering, target, seed)
    _, child_rows = assign_points(dataset, child_centroids)
    new_centroids, distances, _ = _relabel(clustering, distances, [target], child_centroids, list(child_rows))
    assignment = nearest_rows(distances, second=False)[0]
    empties = (np.bincount(assignment, minlength=len(new_centroids)) == 0).nonzero()[0]
    if empties.size:
        repaired = repair_empty(dataset.points, assignment, new_centroids)
        for cid, row in zip(empties, distance_rows(dataset, repaired.centroids[empties])):
            distances[cid] = row
        return repaired, distances
    return Clustering.adopt(assignment, new_centroids), distances


def merge_pair(
    dataset: Dataset, clustering: Clustering, distances: list[np.ndarray], i: int, j: int
) -> tuple[Clustering, list[np.ndarray]]:
    """Replace clusters i and j by their union, appended as the last id.

    The union's centroid is the arithmetic mean of its raw points. No
    reassignment pass is run; k decreases by one. distances are the
    clustering's distance rows; the merged clustering's rows, the kept
    ones and the union's, are returned with it.
    """
    if i == j:
        raise ValueError("cannot merge a cluster with itself")
    for cid in (i, j):
        if not 0 <= cid < clustering.k:
            raise ValueError(f"merge id {cid} out of range for k={clustering.k}")
    if clustering.k - 1 < MIN_K:
        raise ValueError(f"minimum cluster count: merging would leave fewer than {MIN_K} clusters")
    union_mask = (clustering.assignment == i) | (clustering.assignment == j)
    union_centroid = dataset.points.compress(union_mask, axis=0).mean(axis=0)[None, :]
    union_row = distance_rows(dataset, union_centroid)
    new_centroids, distances, remap = _relabel(clustering, distances, [i, j], union_centroid, union_row)
    return Clustering.adopt(remap[clustering.assignment], new_centroids), distances


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
