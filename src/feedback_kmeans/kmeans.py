"""Lloyd's k-means with seeded random initialization.

Provides the individual steps (init / assign / update / empty-cluster
repair) as kernels that take (d, n) feature columns and return arrays; only
``lloyd*`` and ``assign_points`` take a ``Dataset``, only ``lloyd*`` return
a ``Clustering``, and Lloyd runs on a whole dataset or on members of it.
Split reuses the assignment pass, against its two new centroids only, and
the repair; merge and the rules that pick a merge reuse the distance kernel.

One layout: every distance kernel reads (d, n) feature-major columns,
``Dataset.columns`` or a gather of them, and ``column_distances`` writes a
(k, n) result of centroid-major rows, which ``nearest_rows`` scans once
for the nearest ids and Lloyd's two bounds. One summation order: a
distance sums its squared differences in numpy einsum's two-lane order
(``_fold_lanes``), so neither the batch nor the CPU's SIMD width sets a
bit. One recompute path: each Lloyd pass recomputes the rows its bounds
cannot settle, reading the columns whole when that is every row and
gathering them otherwise.

Each kernel builds its squared differences one block of rows at a time,
in one buffer of at most _BLOCK_VALUES values, so a pass's temporaries are
its O(n*k) result plus that fixed buffer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Clustering, Dataset, as_integer, as_seed

# Lloyd stops once centroid movement, the maximum over centroids of the
# squared displacement between consecutive iterations, is at most this.
TOLERANCE = 1e-9

# Most values a distance kernel's difference buffer holds (1 MB of
# float64), so a pass's temporaries are O(n*k), not O(n*k*d).
_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class KMeansConfig:
    """Lloyd loop parameters."""

    k: int
    seed: int
    max_iterations: int = 100

    def __post_init__(self) -> None:
        for name in ("k", "max_iterations"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _block_rows(width: int) -> int:
    """Rows per block at width values a row: as many as _BLOCK_VALUES
    holds, and one at least."""
    return max(1, _BLOCK_VALUES // max(1, width))


def column_distances(columns: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, n) squared Euclidean distances from the (d, n) feature columns of
    n points to k float64 centroid rows: row c holds every point's distance
    to centroid c.

    Computed from explicit differences (not the expanded-norm identity) so
    that exactly equal distances compare equal and ties stay deterministic.
    Each entry is its d squared differences summed in one fixed order of
    IEEE adds, the order in which numpy's einsum ``nkd,nkd->nk`` sums a
    contiguous difference tensor (two lanes, see ``_fold_lanes``). Each
    multiply and add is its own ufunc call, never a fused multiply-add, so
    an entry's bits depend neither on the batch it is computed in nor on
    the CPU's SIMD features; where einsum's own loop does not fuse them
    (numpy's x86-64 baseline), they are einsum's bits.

    The columns are read in place, contiguous (``Dataset.columns`` or
    Lloyd's gather of them) or not (the merge rules' transposed centroids).
    Each group of centroids gets a (d, group, rows) slab of squared
    differences over a block of rows, from one broadcast subtraction and
    one multiplication, that ``_fold_lanes`` sums with one add per feature
    pair over whole (group, rows) planes straight into the result's rows:
    every inner loop is rows long, not d. The slab
    is the call's one buffer, of at most _BLOCK_VALUES values, so the
    call's memory is its (k, n) result plus that buffer, not n*k*d values.
    A block holds at most _BLOCK_VALUES // (2d) rows, so a group holds two
    centroids at that size and more in a shorter call.
    """
    d, n = columns.shape
    k = centroids.shape[0]
    out = np.empty((k, n))
    rows = max(1, min(n, _block_rows(2 * d)))
    group = max(1, min(k, _BLOCK_VALUES // max(1, d * rows)))
    buffer = np.empty(d * rows * group)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        block = columns[:, None, start : start + m]
        for first in range(0, k, group):
            g = min(group, k - first)
            slab = buffer[: d * g * m].reshape(d, g, m)
            np.subtract(block, centroids.T[:, first : first + g, None], out=slab)
            np.multiply(slab, slab, out=slab)
            _fold_lanes(slab, out[first : first + g, start : start + m])
    return out


@functools.cache
def _lane_order(d: int) -> tuple[int, ...]:
    """The feature pairs of d features in the order einsum adds them onto
    its two lanes: each chunk of four last pair first, then the rest."""
    chunked = d // 2 - d // 2 % 4
    order = [p for c in range(0, chunked, 4) for p in range(c + 3, c - 1, -1)]
    return (*order, *range(chunked, d // 2))


def _fold_lanes(squares: np.ndarray, out: np.ndarray) -> None:
    """out = the sum over axis 0 of squares, (d, ...), in einsum's order;
    squares is used as scratch.

    numpy's einsum sums a contiguous product in two lanes of a 128-bit
    vector: even features in lane 0, odd in lane 1. Each chunk of four
    feature pairs is added last pair first onto the running lanes, leftover
    pairs follow in order, an odd last feature goes onto lane 0, and the
    two lanes are added last; for d=8 that is
    ``(s0 + (s2 + (s4 + s6))) + (s1 + (s3 + (s5 + s7)))``. Each add here
    is one ``np.add`` over both lanes' planes, an IEEE add per entry, so
    no SIMD width or dispatch changes a bit. The lanes start from squares
    (never -0.0), which equal einsum's 0 + square.
    """
    d = squares.shape[0]
    order = _lane_order(d)
    if not order:  # d <= 1: the one square, or 0.0
        np.add.reduce(squares, axis=0, out=out)
        return
    first, *rest = order
    even = squares[: d - d % 2]
    pairs = even.reshape(d // 2, 2, *squares.shape[1:])
    lanes = pairs[first]
    lane0, lane1 = lanes
    for p in rest:
        np.add(pairs[p], lanes, out=lanes)
    if d % 2:
        np.add(squares[-1], lane0, out=lane0)
    np.add(lane0, lane1, out=out)


def own_squared_distances(columns: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """(n,) squared distance of each point, given by the (d, n) feature
    columns, to its own centroid, centroids[assignment]; assignment must
    hold valid ids.

    Each entry is the ``column_distances`` entry of its pair, bit for bit:
    a block of rows gathers its centroids' columns into one (d, rows)
    buffer, and their squared differences are summed by ``_fold_lanes``. A
    block holds about _BLOCK_VALUES // (2d) rows, so its squares and the
    fold's lane buffer (two values a row) fit in _BLOCK_VALUES.
    """
    d, n = columns.shape
    out = np.empty(n)
    rows = _block_rows(2 * d)
    buffer = np.empty(d * min(n, rows))
    centroid_columns = np.ascontiguousarray(centroids.T)
    for start in range(0, n, rows):
        block, m = slice(start, start + rows), min(rows, n - start)
        squares = buffer[: d * m].reshape(d, m)
        np.take(centroid_columns, assignment[block], axis=1, out=squares, mode="clip")
        np.subtract(columns[:, block], squares, out=squares)
        np.multiply(squares, squares, out=squares)
        _fold_lanes(squares, out[block])
    return out


def init_centroids(columns: np.ndarray, row_ids: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k distinct points of the (d, n) feature columns, as (k, d) rows,
    chosen uniformly without replacement.

    row_ids are the points' ``Dataset.row_ids``: they compare like the rows
    but need not be dense. Sampling is over the distinct ids in ascending
    order, so the centroids are pairwise distinct even among duplicate
    rows. Each drawn value is its row's first occurrence.

    Raises:
        ValueError: if the points hold fewer than k distinct rows.
    """
    # Row ids are ranks, so marking them lists the distinct ones in order.
    present = np.zeros(row_ids.max(initial=-1) + 1, dtype=bool)
    present[row_ids] = True
    distinct = present.nonzero()[0]
    if k > distinct.size:
        raise ValueError(f"k exceeds distinct points: k={k}, distinct={distinct.size}")
    rng = np.random.default_rng(seed)
    chosen = distinct[rng.choice(distinct.size, size=k, replace=False)]
    return columns.T[[np.argmax(row_ids == v) for v in chosen]]


def assign_points(dataset: Dataset, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(assignment, distances): the index of the nearest centroid per point,
    ties to the lowest index, and the (k, n) ``column_distances`` result of
    the dataset's columns whose rows ``nearest_rows`` scanned for it.
    """
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    if centroids.shape[0] == 0:
        raise ValueError("centroids must be non-empty")
    if centroids.shape[1] != dataset.n_features:
        raise ValueError(
            f"centroid dimension {centroids.shape[1]} != dataset dimension {dataset.n_features}"
        )
    if not np.isfinite(centroids).all():
        bad = np.flatnonzero(~np.isfinite(centroids).all(axis=1))
        raise ValueError(f"centroids must be finite: row(s) {bad[:5].tolist()} are not")
    d2 = column_distances(dataset.columns, centroids)
    assignment = nearest_rows(d2, second=False)[0]
    return assignment, d2


def update_centroids(columns: np.ndarray, assignment: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(k, d) cluster means from the (d, n) feature columns, k = len(counts).

    counts is ``bincount(assignment, minlength=k)``; each column's cluster
    sums accumulate in point order, as numpy's mean over a cluster's rows
    does for two or more features. bincount copies a strided column before
    summing, so a caller that needs many updates passes contiguous columns.
    The sums fill one (d, k) buffer and are divided once; an empty
    cluster's mean is NaN, and no warning is raised for it.
    """
    k = counts.size
    sums = np.empty((columns.shape[0], k))
    for row, column in zip(sums, columns):
        row[...] = np.bincount(assignment, weights=column, minlength=k)
    means = np.full((k, columns.shape[0]), np.nan)
    return np.divide(sums.T, counts[:, None], out=means, where=counts[:, None] > 0)


def repair_empty(columns: np.ndarray, assignment: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each empty cluster re-seeded at the point of the (d, n) feature
    columns farthest from its centroid, as new (assignment, centroids).

    The empty ids are those of the k = len(centroids) ids that no point is
    assigned to. In ascending id order, the chosen point (ties broken by
    lowest point index) moves to the empty cluster, whose centroid becomes
    that point. Points that are the sole member of their cluster are not
    eligible donors, otherwise a singleton could be drained and the repair
    would loop.
    """
    k = centroids.shape[0]
    if k > columns.shape[1]:
        raise ValueError(f"cannot repair: k={k} exceeds dataset size {columns.shape[1]}")
    empties = np.flatnonzero(np.bincount(assignment, minlength=k) == 0)
    assignment = np.asarray(assignment, dtype=np.int64).copy()
    centroids = np.asarray(centroids, dtype=np.float64).copy()
    for empty in empties:
        dist = own_squared_distances(columns, centroids, assignment)
        sizes = np.bincount(assignment, minlength=k)
        eligible = sizes[assignment] >= 2
        if not eligible.any():
            raise ValueError("cannot repair: no cluster has a point to spare")
        dist = np.where(eligible, dist, -np.inf)
        donor = int(np.argmax(dist))
        centroids[empty] = columns[:, donor]
        assignment[donor] = empty
    return assignment, centroids


def nearest_rows(rows, *, second: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Nearest centroid per point of k >= 1 distance rows, a (k, n) array
    or a list of (n,) rows: (nearest, best, second), the int64 nearest id
    (ties to the lowest id), its distance and the second-smallest distance
    (inf for k=1), as ``argmin`` and ``partition(1)`` over the stacked rows
    give them, bit for bit. With second=False the second-smallest distance
    is not tracked and None stands in its place.

    One scan over the rows, each an elementwise pass over n points: rows 0
    and 1 give the first best and second by a compare, a minimum and a
    maximum, and each later row moves a point only when it is strictly
    smaller than the running best.
    """
    first = rows[0]
    if len(rows) == 1:
        runner_up = np.full(first.size, np.inf) if second else None
        return np.zeros(first.size, dtype=np.int64), first.copy(), runner_up
    closer = np.less(rows[1], first)
    nearest = closer.astype(np.int64)
    best = np.minimum(first, rows[1])
    runner_up, above = (np.maximum(first, rows[1]), np.empty_like(best)) if second else (None, None)
    for cid in range(2, len(rows)):
        row = rows[cid]
        if second:
            # The new second is the old second, or the larger of the old best and the row.
            np.maximum(best, row, out=above)
            np.minimum(runner_up, above, out=runner_up)
        np.less(row, best, out=closer)
        np.putmask(nearest, closer, cid)
        np.minimum(best, row, out=best)
    return nearest, best, runner_up


def _bounds(distances: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's per-point state from a (k, n) distance result: the nearest
    ids, the distance to the nearest centroid (the upper bound) and to the
    second-nearest (the lower bound), as square roots taken in place."""
    nearest, best, second = nearest_rows(distances)
    return nearest, np.sqrt(best, out=best), np.sqrt(second, out=second)


# A row is recomputed unless its upper bound is below its lower bound by
# this relative margin, so rounding in the bounds never decides a row and
# near-ties always go to the argmin.
_SLACK = (1.0 - 1e-9) / (1.0 + 1e-9)


def lloyd_history(
    dataset: Dataset, config: KMeansConfig, members: np.ndarray | None = None
) -> tuple[Clustering, list[int]]:
    """Run Lloyd's algorithm, recomputing distances only for rows whose
    nearest centroid may have changed: on the members' points alone if
    given (ascending point indices, the assignment aligned to them).

    Each row keeps an upper bound on the distance to its own centroid and a
    lower bound on the distance to every other centroid. When the centroids
    move, the upper bound grows by the own centroid's movement and the lower
    bound shrinks by the largest movement (triangle inequality); a row whose
    upper bound stays below its lower bound keeps its centroid. The result
    equals a full nearest-centroid pass on every iteration, bit for bit.

    history[0] is n, the first full pass; one entry follows per update+assign
    iteration: the number of rows whose distances that pass recomputed. The
    last entry of a converged run is 0: once a pass (and no repair) has
    changed no assignment, the next update would sum the same members in
    the same order, give the same centroids bit for bit and so stop the
    loop with no movement, so that iteration is recorded and skipped.
    """
    columns, row_ids = dataset.columns, dataset.row_ids
    if members is not None:
        columns, row_ids = columns.take(members, axis=1), row_ids[members]
    n = columns.shape[1]
    centroids = init_centroids(columns, row_ids, config.k, config.seed)
    assignment, upper, lower = _bounds(column_distances(columns, centroids))
    # Centroids are distinct data points, so each owns at least itself and
    # the first assignment cannot leave a cluster empty.
    counts = np.bincount(assignment, minlength=config.k)
    history = [n]
    changed = True  # the centroids are not yet the means of the assignment
    for _ in range(config.max_iterations):
        if not changed:
            history.append(0)
            break
        # No cluster is empty here: see above, and the repair below.
        new_centroids = update_centroids(columns, assignment, counts)
        step = new_centroids - centroids
        moved2 = np.einsum("kd,kd->k", step, step)
        centroids = new_centroids
        moved = np.sqrt(moved2)
        upper += moved[assignment]
        lower -= moved.max()
        rows = (upper >= lower * _SLACK).nonzero()[0]
        # A full pass reads the columns as they are, with no gather.
        block = columns if rows.size == n else columns.take(rows, axis=1)
        old = assignment[rows]
        new, upper[rows], lower[rows] = _bounds(column_distances(block, centroids))
        changed = bool((new != old).any())
        assignment[rows] = new
        counts += np.bincount(new, minlength=config.k) - np.bincount(old, minlength=config.k)
        history.append(rows.size)
        repaired = bool((counts == 0).any())
        if repaired:
            assignment, centroids = repair_empty(columns, assignment, centroids)
            counts = np.bincount(assignment, minlength=config.k)
            # The repaired assignment need not be nearest-centroid: every
            # row recomputes on the next pass.
            lower.fill(-np.inf)
            changed = True
        if not repaired and moved2.max() <= TOLERANCE:
            break
    return Clustering.adopt(assignment, centroids), history


def lloyd(dataset: Dataset, config: KMeansConfig, members: np.ndarray | None = None) -> Clustering:
    """Seeded k-means, as ``lloyd_history``; deterministic per its arguments."""
    clustering, _ = lloyd_history(dataset, config, members)
    return clustering
