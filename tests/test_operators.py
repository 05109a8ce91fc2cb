import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    Clustering,
    assign_points,
    FeedbackReport,
    KMeansConfig,
    Sense,
    SMAction,
    bisect_cluster,
    closest_centroid_pair,
    is_splittable,
    lloyd,
    merge_pair,
    nearest_cluster,
    repair_empty,
    sm_decide,
    split_cluster,
    validate_clustering,
    worst_cluster,
)
from feedback_kmeans import core, kmeans, operators
from feedback_kmeans.synth import demo_generator_config, generate, standardize
from helpers import cluster_means, make_dataset, reference_merge, reference_split, squared_distances


def clustering_from_assignment(dataset, assignment, k):
    """Clustering whose centroids are the exact means of their members."""
    centroids = cluster_means(dataset, assignment, k)
    assert not np.isnan(centroids).any()
    return Clustering(assignment=assignment, centroids=centroids)


def distances_of(dataset, clustering):
    """The clustering's squared distances as the operators take them: a
    list of contiguous rows, one per centroid."""
    return operators.distance_rows(dataset, clustering.centroids)


def row_bytes(rows):
    """Each row's bytes, in order, checking that each row is contiguous."""
    assert all(row.flags.c_contiguous for row in rows)
    return [row.tobytes() for row in rows]


def clustering_with_sizes(sizes):
    """1-d dataset + clustering with the given cluster sizes, well separated."""
    points = []
    assignment = []
    for cid, size in enumerate(sizes):
        for j in range(size):
            points.append([10.0 * cid + 0.1 * j])
            assignment.append(cid)
    ds = make_dataset(points)
    return ds, clustering_from_assignment(ds, np.array(assignment), len(sizes))


# ---------------------------------------------------------------- split

def test_bisect_two_distinct_points_forced():
    ds, clustering = clustering_with_sizes([2, 3])
    child_centroids, child_labels = bisect_cluster(ds, clustering, target=0, seed=1)
    assert sorted(child_centroids.tolist()) == [[0.0], [0.1]]
    assert sorted(child_labels.tolist()) == [0, 1]


def test_split_increases_k_and_stays_valid():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(40, 3)))
    clustering = clustering_from_assignment(ds, rng.integers(0, 3, 40), 3)
    out, _ = split_cluster(ds, clustering, distances_of(ds, clustering), target=1, seed=7)
    assert out.k == clustering.k + 1
    assert validate_clustering(ds, out) == []
    # multiset of points untouched: same dataset, same total
    assert out.sizes().sum() == ds.n_points


def test_split_rejects_singleton():
    ds = make_dataset([[0.0], [5.0], [6.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError, match="singleton"):
        split_cluster(ds, clustering, distances_of(ds, clustering), target=0, seed=0)


def test_split_rejects_duplicate_only_cluster():
    ds = make_dataset([[1.0], [1.0], [5.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 0, 1]), 2)
    assert not is_splittable(ds, clustering, 0)
    with pytest.raises(ValueError, match="distinct"):
        split_cluster(ds, clustering, distances_of(ds, clustering), target=0, seed=0)


def test_rows_that_differ_only_in_the_sign_of_a_zero_are_not_splittable():
    ds = make_dataset([[0.0, 1.0], [-0.0, 1.0], [5.0, 1.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 0, 1]), 2)
    assert not is_splittable(ds, clustering, 0)


def test_distance_rows_are_the_columns_of_squared_distances():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.normal(size=(300, 5)))
    centroids = rng.normal(size=(4, 5))
    rows = operators.distance_rows(ds, centroids)
    assert "columns" in vars(ds)  # read from the dataset's cached columns
    assert b"".join(row_bytes(rows)) == squared_distances(ds.points, centroids).T.tobytes()


def test_split_local_improvement_property():
    # size-weighted child RSS never exceeds the parent's contribution,
    # measured before the global reassignment pass
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(6, 60))
        ds = make_dataset(rng.normal(size=(n, 2)))
        k = int(rng.integers(2, 4))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        clustering = clustering_from_assignment(ds, assignment, k)
        target = int(rng.integers(0, k))
        if not is_splittable(ds, clustering, target):
            continue
        members = clustering.members(target)
        parent_diff = ds.points[members] - clustering.centroids[target]
        parent_cost = float(np.sum(parent_diff * parent_diff))
        child_centroids, child_labels = bisect_cluster(ds, clustering, target, seed=trial)
        child_diff = ds.points[members] - child_centroids[child_labels]
        child_cost = float(np.sum(child_diff * child_diff))
        assert child_cost <= parent_cost + 1e-12


def test_split_separates_heterogeneous_x_values():
    # a cluster mixing two far-apart x bands splits into x-homogeneous children
    ds = make_dataset([[0.0, 0.0], [0.0, 1.0], [10.0, 0.5], [10.0, 1.5], [50.0, 0.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 0, 0, 0, 1]), 2)
    child_centroids, child_labels = bisect_cluster(ds, clustering, target=0, seed=2)
    groups = [set(np.flatnonzero(child_labels == c)) for c in (0, 1)]
    assert {frozenset(g) for g in groups} == {frozenset({0, 1}), frozenset({2, 3})}


# ---------------------------------------------------------------- merge

def test_merge_two_singletons():
    ds = make_dataset([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 1, 2]), 3)
    merged, _ = merge_pair(ds, clustering, distances_of(ds, clustering), 0, 1)
    assert merged.k == 2
    # union appended as the last id
    np.testing.assert_array_equal(merged.centroids[1], [1.0, 1.0])
    assert merged.assignment.tolist() == [1, 1, 0]
    assert validate_clustering(ds, merged) == []


def test_merge_centroid_equals_size_weighted_mean():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(30, 2)))
    assignment = np.concatenate([np.arange(3), rng.integers(0, 3, 27)])
    clustering = clustering_from_assignment(ds, assignment, 3)
    merged, _ = merge_pair(ds, clustering, distances_of(ds, clustering), 0, 2)
    sizes = clustering.sizes()
    weighted = (
        sizes[0] * clustering.centroids[0] + sizes[2] * clustering.centroids[2]
    ) / (sizes[0] + sizes[2])
    np.testing.assert_allclose(merged.centroids[-1], weighted, rtol=0, atol=1e-12)
    # and equals the mean of the union's raw points
    union = ds.points[(clustering.assignment == 0) | (clustering.assignment == 2)]
    np.testing.assert_allclose(merged.centroids[-1], union.mean(axis=0), rtol=0, atol=1e-12)


def test_merge_preserves_point_multiset():
    ds, clustering = clustering_with_sizes([3, 2, 4])
    merged, _ = merge_pair(ds, clustering, distances_of(ds, clustering), 0, 1)
    assert merged.sizes().sum() == ds.n_points
    assert sorted(merged.sizes().tolist()) == sorted([4, 5])


def test_merge_minimum_cluster_count():
    ds, clustering = clustering_with_sizes([2, 2])
    with pytest.raises(ValueError, match="minimum cluster count"):
        merge_pair(ds, clustering, distances_of(ds, clustering), 0, 1)


def test_merge_rejects_same_or_invalid_ids():
    ds, clustering = clustering_with_sizes([2, 2, 2])
    with pytest.raises(ValueError):
        merge_pair(ds, clustering, distances_of(ds, clustering), 1, 1)
    with pytest.raises(ValueError):
        merge_pair(ds, clustering, distances_of(ds, clustering), 0, 5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_split_then_merge_keep_clusterings_valid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    ds = make_dataset(rng.normal(size=(n, 2)))
    k = int(rng.integers(2, 5))
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    clustering = clustering_from_assignment(ds, assignment, k)
    splittable = [c for c in range(k) if is_splittable(ds, clustering, c)]
    if not splittable:
        return
    target = splittable[int(rng.integers(0, len(splittable)))]
    grown, distances = split_cluster(ds, clustering, distances_of(ds, clustering), target, seed=seed)
    assert grown.k == k + 1
    assert validate_clustering(ds, grown) == []
    i, j = closest_centroid_pair(grown)
    shrunk, _ = merge_pair(ds, grown, distances, i, j)
    assert shrunk.k == k
    assert validate_clustering(ds, shrunk) == []
    assert shrunk.sizes().sum() == grown.sizes().sum() == n


def assert_same_clustering(actual, expected):
    assert actual.k == expected.k
    assert actual.assignment.tobytes() == expected.assignment.tobytes()
    assert actual.centroids.tobytes() == expected.centroids.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=4, max_value=200),
    d=st.integers(min_value=1, max_value=5),
    duplicate_heavy=st.booleans(),
    actions=st.lists(st.sampled_from(["split", "split", "merge"]), min_size=2, max_size=10),
)
def test_carried_distances_equal_a_full_recompute(seed, n, d, duplicate_heavy, actions):
    rng = np.random.default_rng(seed)
    if duplicate_heavy:  # a few distinct values, most points repeated
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    ds = make_dataset(points)
    k = int(min(rng.integers(2, 6), len(np.unique(points, axis=0))))
    if k < 2:
        return
    # Arbitrary groups' means sit near the overall mean, so splits often
    # empty a kept cluster and go through the repair.
    assignment = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    clustering = clustering_from_assignment(ds, assignment, k)
    distances = distances_of(ds, clustering)
    for step, action in enumerate(actions):
        splittable = [c for c in range(clustering.k) if is_splittable(ds, clustering, c)]
        if action == "split" and splittable:
            target = splittable[int(rng.integers(0, len(splittable)))]
            expected = reference_split(ds, clustering, target, seed + step)
            clustering, distances = split_cluster(ds, clustering, distances, target, seed + step)
            assert_same_clustering(clustering, expected)
        elif action == "merge" and clustering.k > 2:
            i, j = (int(c) for c in rng.choice(clustering.k, size=2, replace=False))
            expected = reference_merge(ds, clustering, i, j)
            clustering, distances = merge_pair(ds, clustering, distances, i, j)
            assert_same_clustering(clustering, expected)
        else:
            continue
        assert validate_clustering(ds, clustering) == []
        assert row_bytes(distances) == row_bytes(distances_of(ds, clustering))


def test_split_that_empties_a_kept_cluster_repairs_it_and_its_column():
    # Cluster 0's mean (10.33) loses points 0 and 1 to child 8.5 and point 30
    # to child 12.5, so the reassignment empties it.
    ds = make_dataset([[0.0], [1.0], [30.0], [8.0], [9.0], [12.0], [13.0]])
    clustering = clustering_from_assignment(ds, np.array([0, 0, 0, 1, 1, 1, 1]), 2)
    child_centroids, _ = bisect_cluster(ds, clustering, target=1, seed=0)
    centroids = np.vstack([clustering.centroids[:1], child_centroids])
    assert 0 not in assign_points(ds, centroids)[0]
    out, distances = split_cluster(ds, clustering, distances_of(ds, clustering), target=1, seed=0)
    assert_same_clustering(out, reference_split(ds, clustering, target=1, seed=0))
    assert out.centroids.tobytes() != centroids.tobytes()  # the repair moved centroid 0
    assert validate_clustering(ds, out) == []
    assert row_bytes(distances) == row_bytes(distances_of(ds, out))


@pytest.fixture
def copies(monkeypatch):
    """Per array a Clustering or Dataset is built from, whether it was
    copied: the value copies an array that is still writeable."""
    copied = []
    for name in ("_frozen_f64", "_frozen_i64"):
        def spy(values, *args, _original=getattr(core, name), **kwargs):
            stored = _original(values, *args, **kwargs)
            copied.append(stored is not values)
            return stored
        monkeypatch.setattr(core, name, spy)
    return copied


@pytest.mark.parametrize(
    "produce",
    [
        lambda ds, c: lloyd(ds, KMeansConfig(k=3, seed=0)),
        lambda ds, c: lloyd(ds, KMeansConfig(k=2, seed=0), c.members(0)),
        lambda ds, c: split_cluster(ds, c, distances_of(ds, c), target=0, seed=0),
        lambda ds, c: merge_pair(ds, c, distances_of(ds, c), 0, 1),
        lambda ds, c: repair_empty(ds.points, c.assignment, np.vstack([c.centroids, [[5.0]]])),
    ],
    ids=["lloyd", "lloyd_members", "split", "merge", "repair"],
)
def test_producers_hand_their_values_arrays_they_built_uncopied(copies, produce):
    ds, clustering = clustering_with_sizes([3, 4, 2])
    copies.clear()
    produce(ds, clustering)
    assert copies and not any(copies)


def test_operators_reject_a_distance_matrix_of_another_shape():
    ds, clustering = clustering_with_sizes([2, 3, 2])
    distances = distances_of(ds, clustering)
    point_major = squared_distances(ds.points, clustering.centroids)
    # A centroid short, a point short, and the point-major (n, k) layout.
    for bad in (distances[:2], [row[:-1] for row in distances], point_major):
        with pytest.raises(ValueError, match="distances have shape"):
            split_cluster(ds, clustering, bad, target=1, seed=0)
        with pytest.raises(ValueError, match="distances have shape"):
            merge_pair(ds, clustering, bad, 0, 1)


def test_new_rows_are_the_rows_of_one_kernel_result_not_copies():
    ds, clustering = clustering_with_sizes([3, 4, 2])
    rows = distances_of(ds, clustering)
    result = rows[0].base
    assert result.shape == (clustering.k, ds.n_points) and result.flags.c_contiguous
    assert all(row.flags.c_contiguous and row.base is result for row in rows)
    assert all(np.shares_memory(row, result) for row in rows)
    out, grown = split_cluster(ds, clustering, rows, target=1, seed=0)
    assert out.k == 4 and [row is rows[cid] for row, cid in zip(grown, (0, 2))] == [True, True]
    children = grown[2:]
    assert all(row.flags.c_contiguous for row in children)
    assert children[0].base is children[1].base
    assert children[0].base.shape == (2, ds.n_points)
    assert row_bytes(grown) == row_bytes(distances_of(ds, out))



@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=12),
)
def test_row_scan_nearest_equals_argmin_on_tied_grid_data(seed, n, d, k):
    # Integer-grid points and centroids, repeated centroids among them:
    # most points are equally near several centroids. Split and merge take
    # their ids from this scan over a list of distance rows.
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 3, size=(n, d)).astype(float)
    centroids = rng.integers(0, 3, size=(k, d)).astype(float)
    centroids[rng.random(k) < 0.3] = centroids[0]
    d2 = squared_distances(points, centroids)
    got, _, _ = kmeans.nearest_rows(list(np.ascontiguousarray(d2.T)))
    assert got.dtype == np.int64
    assert got.tobytes() == d2.argmin(axis=1).astype(np.int64).tobytes()


@pytest.fixture(scope="module")
def large_clustering():
    """20k generated points in 16 clusters with their exact means, and the
    clustering's distance rows."""
    ds, _ = standardize(generate(demo_generator_config(n_points=20_000, seed=3)))
    seeds = ds.points[np.random.default_rng(0).choice(ds.n_points, 16, replace=False)]
    clustering = clustering_from_assignment(ds, squared_distances(ds.points, seeds).argmin(axis=1), 16)
    return ds, clustering, distances_of(ds, clustering)


@pytest.mark.parametrize(
    "operate, dropped, new_rows",
    [
        (lambda ds, c, d: split_cluster(ds, c, d, target=3, seed=1), [3], 2),
        (lambda ds, c, d: merge_pair(ds, c, d, 3, 5), [3, 5], 1),
    ],
    ids=["split", "merge"],
)
def test_operators_keep_each_row_and_allocate_only_the_new_rows(large_clustering, operate, dropped, new_rows):
    # Copying the kept rows into one new (k±1, n) array peaked at 3.4 MB
    # for the split and 2.7 MB for the merge here (1.4 and 1.3 MB without
    # it), where this budget is 2.0 and 1.8 MB: the new rows, the distance
    # kernel's block buffer and four vectors of n floats (the split's
    # running minimum, its nearest ids, masks).
    ds, clustering, distances = large_clustering
    operate(ds, clustering, distances)  # first-use caches, such as row ids
    tracemalloc.start()
    try:
        _, rows = operate(ds, clustering, distances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [cid for cid in range(clustering.k) if cid not in dropped]
    assert len(rows) == len(kept) + new_rows
    assert all(row is distances[cid] for row, cid in zip(rows, kept))
    assert all(row.flags.c_contiguous and row.shape == (ds.n_points,) for row in rows[len(kept) :])
    row_size = ds.n_points * 8
    assert peak <= new_rows * row_size + kmeans._BLOCK_VALUES * 8 + 4 * row_size


# ---------------------------------------------------------------- closest pair

def _brute_force_pair(centroids):
    best = None
    best_d = np.inf
    k = len(centroids)
    for i in range(k):
        for j in range(i + 1, k):
            d = float(np.sum((centroids[i] - centroids[j]) ** 2))
            if d < best_d:
                best_d = d
                best = (i, j)
    return best


def _clustering_with_centroids(centroids):
    centroids = np.asarray(centroids, dtype=float)
    k = len(centroids)
    return Clustering(assignment=np.arange(k), centroids=centroids)


def test_closest_pair_simple():
    clustering = _clustering_with_centroids([[0, 0], [1, 0], [9, 9]])
    assert closest_centroid_pair(clustering) == (0, 1)


def test_closest_pair_tie_is_lexicographic():
    # pairs (0,1) and (1,2) are exactly equidistant
    clustering = _clustering_with_centroids([[0.0], [2.0], [4.0]])
    assert closest_centroid_pair(clustering) == (0, 1)
    # all pairs exactly equidistant: corners of a right isoceles layout
    square = _clustering_with_centroids([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    assert closest_centroid_pair(square) == (0, 1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_closest_pair_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(6, 3))
    clustering = _clustering_with_centroids(centroids)
    assert closest_centroid_pair(clustering) == _brute_force_pair(centroids)
    for target in range(6):
        diffs = {c: centroids[c] - centroids[target] for c in range(6) if c != target}
        expected = min(diffs, key=lambda c: (float(diffs[c] @ diffs[c]), c))
        assert nearest_cluster(clustering, target) == expected


def test_nearest_cluster():
    clustering = _clustering_with_centroids([[0, 0], [1, 0], [9, 9]])
    assert nearest_cluster(clustering, 2) == 1
    assert nearest_cluster(clustering, 0) == 1
    # tie between ids 0 and 2 resolves to the lowest id
    tie = _clustering_with_centroids([[0.0], [1.0], [2.0]])
    assert nearest_cluster(tie, 1) == 0


# ---------------------------------------------------------------- worst cluster

def test_worst_cluster_rss_is_argmax():
    report = FeedbackReport(per_cluster=(0.1, 0.9, 0.3), aggregate=0.4, sense=Sense.LOWER_IS_BETTER)
    assert worst_cluster(report) == 1


def test_worst_cluster_custom_is_argmin():
    report = FeedbackReport(per_cluster=(0.5, -0.2, 0.5), aggregate=0.3, sense=Sense.HIGHER_IS_BETTER)
    assert worst_cluster(report) == 1


def test_worst_cluster_tie_lowest_id():
    report = FeedbackReport(per_cluster=(0.5, 0.5, 0.5), aggregate=0.5, sense=Sense.LOWER_IS_BETTER)
    assert worst_cluster(report) == 0
    report = FeedbackReport(per_cluster=(0.5, 0.5), aggregate=0.5, sense=Sense.HIGHER_IS_BETTER)
    assert worst_cluster(report) == 0


# ---------------------------------------------------------------- sm_decide

def test_sm_decide_top_half_splits():
    ds, clustering = clustering_with_sizes([10, 4, 2])
    assert sm_decide(clustering, 0) is SMAction.SPLIT


def test_sm_decide_bottom_half_merges():
    ds, clustering = clustering_with_sizes([10, 4, 2])
    assert sm_decide(clustering, 2) is SMAction.MERGE


def test_sm_decide_largest_splits_smallest_merges():
    for sizes in ([5, 4, 3], [9, 2, 2, 2], [7, 6, 5, 4, 3]):
        ds, clustering = clustering_with_sizes(sizes)
        assert sm_decide(clustering, 0) is SMAction.SPLIT
        assert sm_decide(clustering, len(sizes) - 1) is SMAction.MERGE


def test_sm_decide_singleton_override():
    # singleton in the top half (by tie rank) cannot be split
    ds, clustering = clustering_with_sizes([1, 1, 1])
    assert sm_decide(clustering, 0) is SMAction.MERGE


def test_sm_decide_k2_merge_becomes_split():
    ds, clustering = clustering_with_sizes([4, 2])
    assert sm_decide(clustering, 1) is SMAction.SPLIT


def test_sm_decide_k2_singleton_worst_retargets_split():
    # merging is barred at k=2 and the worst cluster cannot be split; the
    # other cluster can donate a split, so the action remains Split
    ds, clustering = clustering_with_sizes([4, 1])
    assert sm_decide(clustering, 1) is SMAction.SPLIT


def test_sm_decide_rule_table_consistency():
    # every returned action must be applicable somewhere in the clustering
    rng = np.random.default_rng(8)
    for _ in range(60):
        k = int(rng.integers(2, 6))
        sizes = [int(rng.integers(1, 6)) for _ in range(k)]
        if sum(sizes) < k:
            continue
        ds, clustering = clustering_with_sizes(sizes)
        for worst in range(k):
            action = sm_decide(clustering, worst)
            if action is SMAction.MERGE:
                assert k > 2
            elif sizes != [1, 1]:  # k=2 singletons: no legal action, the run stalls
                assert any(s >= 2 for s in sizes)
