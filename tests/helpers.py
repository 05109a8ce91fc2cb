import math

import numpy as np

from feedback_kmeans import (
    Action,
    Clustering,
    Dataset,
    FeedbackReport,
    KMeansConfig,
    Method,
    RssFeedback,
    RunTrace,
    Sense,
    SMAction,
    TraceStep,
    aggregate_weighted,
    closest_centroid_pair,
    evaluate_per_cluster,
    is_splittable,
    lloyd,
    nearest_cluster,
    relative_change,
    sm_decide,
    validate_clustering,
    worst_cluster,
)
from feedback_kmeans.engines import trace_records
from feedback_kmeans.feedback import POP_BASELINE_EPSILON
from feedback_kmeans.kmeans import (
    TOLERANCE,
    assign_points,
    column_distances,
    init_centroids,
    lloyd_history,
    repair_empty,
    update_centroids,
)
from feedback_kmeans.rng import derive_seed, substream

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


class NanPlugIn:
    """A plug-in whose cluster 0 scores NaN and every other cluster 1."""

    sense = Sense.HIGHER_IS_BETTER

    def evaluate(self, dataset, clustering, rng):
        return evaluate_per_cluster(
            dataset, clustering, self.sense, lambda cid, members: math.nan if cid == 0 else 1.0
        )

    def evaluation_rng(self, step):
        return None


def own_members(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("__")}


def make_dataset(points, feature_names=None, **kwargs) -> Dataset:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(points.shape[1]))
    return Dataset(points=points, feature_names=feature_names, **kwargs)


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances between float64 rows, point-major as numpy's
    argmin and einsum references read them: the transpose view of
    ``column_distances(points.T, centroids)``."""
    return column_distances(points.T, centroids).T


def broadcast_squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The broadcast form of ``squared_distances``: the difference tensor
    is ``points[:, None, :] - centroids[None, :, :]``, reduced by einsum.
    A reference the kernel must equal byte for byte."""
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def lane_fold_squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``squared_distances`` entry by entry in Python floats, so that the
    kernel's summation order is pinned without numpy's einsum.

    Each squared difference is one subtraction and one multiplication. The
    squares add in two lanes, even features in lane 0 and odd in lane 1,
    both starting from 0.0: each chunk of four feature pairs folds onto the
    lanes last pair first, leftover pairs follow in order, an odd last
    feature goes onto lane 0, and the sum is lane 0 + lane 1.
    """
    out = np.empty((points.shape[0], centroids.shape[0]))
    for i, point in enumerate(points.tolist()):
        for j, centroid in enumerate(centroids.tolist()):
            squares = [(a - b) * (a - b) for a, b in zip(point, centroid)]
            pairs = len(squares) // 2
            chunked = pairs - pairs % 4
            order = [p for c in range(0, chunked, 4) for p in (c + 3, c + 2, c + 1, c)]
            lanes = [0.0, 0.0]
            for p in order + list(range(chunked, pairs)):
                lanes = [squares[2 * p] + lanes[0], squares[2 * p + 1] + lanes[1]]
            if len(squares) % 2:
                lanes[0] = squares[-1] + lanes[0]
            out[i, j] = lanes[0] + lanes[1]
    return out


def weighted_rss(dataset: Dataset, assignment: np.ndarray, centroids: np.ndarray) -> float:
    """Size-weighted mean cluster RSS, computed as the flat global mean of
    squared point-to-assigned-centroid distances (the two forms agree
    algebraically)."""
    diff = dataset.points - centroids[assignment]
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def cluster_means(dataset: Dataset, assignment, k: int) -> np.ndarray:
    """(k, d) means of each cluster's points through Lloyd's kernel; an
    empty id's row is NaN."""
    assignment = np.asarray(assignment, dtype=np.intp)
    return update_centroids(dataset.points.T, assignment, np.bincount(assignment, minlength=k))


def plain_lloyd(dataset: Dataset, config: KMeansConfig) -> tuple[Clustering, int]:
    """Lloyd with a full nearest-centroid pass on every iteration: the
    reference the bounded loop must equal. Returns (clustering, iterations).
    Its passes take numpy's argmin of the distance matrix, not the row scan
    Lloyd and ``assign_points`` share."""

    def nearest(centroids):
        return squared_distances(dataset.points, centroids).argmin(axis=1)

    centroids = init_centroids(dataset.points, dataset.row_ids, config.k, config.seed)
    assignment = nearest(centroids)
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        new_centroids = cluster_means(dataset, assignment, config.k)
        shift = float(np.max(np.einsum("kd,kd->k", new_centroids - centroids, new_centroids - centroids)))
        centroids = new_centroids
        assignment = nearest(centroids)
        repaired = bool((np.bincount(assignment, minlength=config.k) == 0).any())
        if repaired:
            clustering = repair_empty(dataset.points, assignment, centroids)
            assignment, centroids = clustering.assignment, clustering.centroids
        if not repaired and shift <= TOLERANCE:
            break
    return Clustering(assignment=assignment, centroids=centroids), iterations


def reference_split(dataset: Dataset, clustering: Clustering, target: int, seed: int) -> Clustering:
    """The split from its definition: ``plain_lloyd`` at k=2 on a dataset of
    the target's points alone, then a full reassignment pass over every
    centroid. The subset's row ids rank its rows in the order of the full
    dataset's, so its initial draw is the bisect's."""
    members = clustering.assignment == target
    subset = Dataset(points=dataset.points[members], feature_names=dataset.feature_names)
    child_centroids = plain_lloyd(subset, KMeansConfig(k=2, seed=seed))[0].centroids
    centroids = np.vstack([np.delete(clustering.centroids, target, axis=0), child_centroids])
    return repair_empty(dataset.points, assign_points(dataset, centroids)[0], centroids)


def reference_merge(dataset: Dataset, clustering: Clustering, i: int, j: int) -> Clustering:
    """The merge from its definition: the other clusters keep their order,
    and the union, centred on the mean of its points, comes last."""
    kept = [c for c in range(clustering.k) if c not in (i, j)]
    in_union = (clustering.assignment == i) | (clustering.assignment == j)
    assignment = np.full(clustering.assignment.size, len(kept), dtype=np.int64)
    for new_id, c in enumerate(kept):
        assignment[clustering.assignment == c] = new_id
    centroids = np.vstack([clustering.centroids[kept], dataset.points[in_union].mean(axis=0)])
    return Clustering(assignment=assignment, centroids=centroids)


def reference_run(
    dataset: Dataset, k: int, method: Method, provider, seed: int, iterations: int
) -> RunTrace:
    """``run_engine``'s run recomputed at every stage, with its seeds
    (``derive_seed(seed, "init")``, ``derive_seed(seed, "split", i)`` and
    ``evaluation_rng(i)``) and its selection rules: a ``plain_lloyd`` start,
    ``reference_split`` and ``reference_merge`` for the actions and
    ``reference_evaluate`` for every report. No distances are carried from
    one step to the next."""
    current = plain_lloyd(dataset, KMeansConfig(k=k, seed=derive_seed(seed, "init")))[0]
    report = reference_evaluate(provider, dataset, current, provider.evaluation_rng(0))
    steps = [TraceStep(actions=(Action.init(),), clustering=current, feedback=report)]
    for iteration in range(1, iterations + 1):
        worst = worst_cluster(report)
        if method is Method.SM and sm_decide(current, worst) is SMAction.MERGE:
            partner = nearest_cluster(current, worst)
            actions, current = (Action.merge(worst, partner),), reference_merge(dataset, current, worst, partner)
        else:
            order = report.sense.worst_first(report.per_cluster)
            targets = [cid for cid in order if is_splittable(dataset, current, cid)]
            if not targets:
                return RunTrace(steps=tuple(steps), seed=seed, stalled=True)
            actions = (Action.split(targets[0]),)
            current = reference_split(dataset, current, targets[0], derive_seed(seed, "split", iteration))
            if method is Method.SME:
                i, j = closest_centroid_pair(current)
                actions, current = actions + (Action.merge(i, j),), reference_merge(dataset, current, i, j)
        report = reference_evaluate(provider, dataset, current, provider.evaluation_rng(iteration))
        steps.append(TraceStep(actions=actions, clustering=current, feedback=report))
    return RunTrace(steps=tuple(steps), seed=seed, stalled=False)


def assert_same_run(actual: RunTrace, expected: RunTrace) -> None:
    """The two runs agree byte for byte: their trace records, every step's
    cluster sizes and centroids, the initial and best assignments, and
    whether they stalled."""
    assert trace_records(actual) == trace_records(expected)
    for got, want in zip(actual.steps, expected.steps, strict=True):
        assert got.clustering.sizes().tolist() == want.clustering.sizes().tolist()
        assert got.clustering.centroids.tobytes() == want.clustering.centroids.tobytes()
    for index in (0, expected.best_step_index):
        got, want = actual.steps[index].clustering, expected.steps[index].clustering
        assert got.assignment.tobytes() == want.assignment.tobytes()
    assert actual.stalled == expected.stalled


def objective_sequence(dataset: Dataset, config: KMeansConfig) -> list[float]:
    """Weighted RSS after init plus the first assignment, then after each
    Lloyd iteration. Lloyd is deterministic, so the state after t iterations
    is lloyd(...) capped at max_iterations=t."""
    centroids = init_centroids(dataset.points, dataset.row_ids, config.k, config.seed)
    sequence = [weighted_rss(dataset, assign_points(dataset, centroids)[0], centroids)]
    iterations = len(lloyd_history(dataset, config)[1]) - 1
    for t in range(1, iterations + 1):
        capped = lloyd(dataset, KMeansConfig(k=config.k, seed=config.seed, max_iterations=t))
        sequence.append(weighted_rss(dataset, capped.assignment, capped.centroids))
    return sequence


# ---------------------------------------------------------------- feedback reference
# The per-cluster reference that both built-in providers must equal exactly:
# one flatnonzero scan per cluster, a dict lookup per sampled point, and
# separate fit, popularity and noise steps.


def rss_cluster(points: np.ndarray, centroid: np.ndarray) -> float:
    """Mean squared distance of a cluster's points to its centroid."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] == 0:
        raise ValueError("rss_cluster requires a non-empty cluster")
    diff = points - np.asarray(centroid, dtype=np.float64)
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def segment_weight_rows(dataset: Dataset, indices, profile) -> np.ndarray:
    """True weight vectors of the given points, in order; the first point
    whose segment the profile lacks is named."""
    if dataset.bookings is None or dataset.hidden_segment is None:
        raise ValueError("oracle requires generator-labeled data")
    rows = []
    for seg in dataset.hidden_segment[np.asarray(indices, dtype=np.int64)].tolist():
        if seg not in profile.segment_weights:
            raise ValueError(f"segment {seg} missing from oracle profile")
        rows.append(profile.segment_weights[seg])
    return np.array(rows, dtype=np.float64).reshape(len(rows), profile.m)


def fit_weights(dataset: Dataset, sample_indices, profile) -> np.ndarray:
    """The exact maximizer of the mean noiseless score over the sample: the
    arithmetic mean of the sample's true segment weight vectors."""
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    if sample_indices.size == 0:
        raise ValueError("fit sample is empty")
    return segment_weight_rows(dataset, sample_indices, profile).mean(axis=0)


def popularity(dataset: Dataset, eval_indices, weights, profile, rng) -> float:
    """Mean of C - ||w - w*_seg(x)||^2 + eps over the evaluation points,
    eps ~ N(0, noise_sigma^2) drawn per point from rng."""
    eval_indices = np.asarray(eval_indices, dtype=np.int64)
    if eval_indices.size == 0:
        raise ValueError("evaluation sample is empty")
    true_w = segment_weight_rows(dataset, eval_indices, profile)
    diff = np.asarray(weights, dtype=np.float64) - true_w
    scores = profile.score_offset - np.einsum("nd,nd->n", diff, diff)
    noise = rng.normal(0.0, profile.noise_sigma, size=eval_indices.size)
    return float(np.mean(scores + noise))


def customizability_reference(dataset: Dataset, members, profile, rng) -> float:
    """One cluster's customizability from ascending members: rank by
    bookings, fit, sample, then draw the fitted and the baseline noise."""
    members = np.asarray(members, dtype=np.int64)
    n = members.size
    if n < 2:
        raise ValueError("customizability needs a cluster of at least 2 points")
    if dataset.bookings is None or dataset.hidden_segment is None:
        raise ValueError("oracle requires generator-labeled data")
    ranked = members[np.argsort(-dataset.bookings[members], kind="stable")]
    fit_count = profile.sample_size if n >= 2 * profile.sample_size else n // 2
    pool = ranked[fit_count : int(math.ceil(profile.eval_pool_fraction * n))]
    if pool.size == 0:
        pool = ranked[fit_count:]
    if pool.size <= profile.sample_size:
        eval_set = pool
    else:
        eval_set = np.sort(rng.choice(pool, size=profile.sample_size, replace=False))
    fitted = fit_weights(dataset, ranked[:fit_count], profile)
    pop_w = popularity(dataset, eval_set, fitted, profile, rng)
    pop_0 = popularity(dataset, eval_set, np.zeros(profile.m), profile, rng)
    if abs(pop_0) < POP_BASELINE_EPSILON:
        raise ValueError("degenerate price baseline")
    return relative_change(pop_0, pop_w)


def reference_evaluate(provider, dataset: Dataset, clustering: Clustering, rng) -> FeedbackReport:
    """A built-in provider's report computed cluster by cluster: members by
    one scan each, and for the oracle one rng.spawn(1) child per cluster in
    id order."""
    violations = validate_clustering(dataset, clustering)
    if violations:
        raise ValueError("invalid clustering: " + "; ".join(violations))
    values, sizes = [], []
    for cid in range(clustering.k):
        members = np.flatnonzero(clustering.assignment == cid)
        if isinstance(provider, RssFeedback):
            values.append(rss_cluster(dataset.points[members], clustering.centroids[cid]))
        else:
            values.append(customizability_reference(dataset, members, provider.profile, rng.spawn(1)[0]))
        sizes.append(members.size)
    return FeedbackReport(
        per_cluster=tuple(values), aggregate=aggregate_weighted(values, sizes), sense=provider.sense
    )
