import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    KMeansConfig,
    assign_points,
    init_centroids,
    lloyd,
    repair_empty,
    update_centroids,
    validate_clustering,
)
from feedback_kmeans import kmeans
from feedback_kmeans.kmeans import lloyd_history, squared_distances

from helpers import make_dataset, objective_sequence, plain_lloyd, weighted_rss


# ---------------------------------------------------------------- init

def test_init_forced_selection_with_exactly_k_points():
    ds = make_dataset([[0, 0], [5, 5], [9, 1]])
    centroids = init_centroids(ds, k=3, seed=0)
    assert sorted(centroids.tolist()) == sorted(ds.points.tolist())


def test_init_deterministic_per_seed():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.normal(size=(200, 4)))
    first = init_centroids(ds, k=5, seed=99)
    second = init_centroids(ds, k=5, seed=99)
    np.testing.assert_array_equal(first, second)


def test_init_seeds_differ():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.normal(size=(1000, 3)))
    a = init_centroids(ds, k=3, seed=0)
    b = init_centroids(ds, k=3, seed=1)
    assert not np.array_equal(a, b)


def test_init_errors_on_too_few_distinct_points():
    ds = make_dataset([[1, 1], [1, 1], [2, 2]])
    with pytest.raises(ValueError, match="k exceeds distinct points"):
        init_centroids(ds, k=3, seed=0)
    centroids = init_centroids(ds, k=2, seed=0)
    assert len(np.unique(centroids, axis=0)) == 2


def _sorted_distinct_draw(ds, k, seed):
    # The draw as a sort of the dataset's own rows makes it.
    distinct = np.unique(ds.points, axis=0)
    rng = np.random.default_rng(seed)
    return distinct[rng.choice(distinct.shape[0], size=k, replace=False)]


def test_init_on_subset_matches_sorted_distinct_draw():
    rng = np.random.default_rng(5)
    pool = rng.integers(0, 4, size=(30, 3)).astype(float)
    ds = make_dataset(pool[rng.integers(0, 30, size=300)])  # many duplicate rows
    members = np.flatnonzero(ds.points[:, 0] != 1.0)  # drops some distinct rows
    sub = ds.subset(members)
    np.testing.assert_array_equal(sub.points, ds.points[members])
    distinct = len(np.unique(sub.points, axis=0))
    assert distinct < len(np.unique(ds.points, axis=0))
    for k in (1, 2, 5, distinct):
        for seed in range(6):
            np.testing.assert_array_equal(
                init_centroids(sub, k, seed), _sorted_distinct_draw(sub, k, seed)
            )
            np.testing.assert_array_equal(
                init_centroids(ds, k, seed), _sorted_distinct_draw(ds, k, seed)
            )
    with pytest.raises(ValueError, match=f"k exceeds distinct points: k={distinct + 1}, distinct={distinct}"):
        init_centroids(sub, distinct + 1, seed=0)


def test_subset_row_ids_compare_like_rows():
    ds = make_dataset([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0], [0.0, 1.0], [3.0, 0.0]])
    assert ds.row_ids.tolist() == [2, 1, 2, 0, 3]
    sub = ds.subset(np.array([0, 2, 4]))
    assert sub.row_ids.tolist() == [2, 2, 3]
    assert not sub.row_ids.flags.writeable
    assert sub.bookings is None and sub.hidden_segment is None


# ---------------------------------------------------------------- assign

def test_assign_point_on_centroid():
    ds = make_dataset([[3.0, 3.0]])
    centroids = np.array([[0.0, 0.0], [9.0, 9.0], [3.0, 3.0]])
    assert assign_points(ds, centroids).tolist() == [2]


def test_assign_tie_goes_to_lowest_index():
    ds = make_dataset([[1.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert assign_points(ds, centroids).tolist() == [0]


def test_assign_hand_computed_two_centroids():
    # squared distances to (0,0) / (10,0): (4,1) -> 17 vs 37; (6,-1) -> 37 vs 17
    ds = make_dataset([[4.0, 1.0], [6.0, -1.0]])
    centroids = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert assign_points(ds, centroids).tolist() == [0, 1]


def test_assign_rejects_dimension_mismatch():
    ds = make_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension"):
        assign_points(ds, np.zeros((2, 3)))


def test_assign_rejects_non_finite_centroids():
    # argmin over a NaN column picks it for every row
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"centroids must be finite: row\(s\) \[0\]"):
            assign_points(ds, [[bad, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match=r"row\(s\) \[1, 2\]"):
        assign_points(ds, [[0.0, 0.0], [np.nan, np.nan], [1.0, np.inf]])


def test_squared_distances_rows_do_not_depend_on_the_batch():
    # The bounded Lloyd recomputes subsets of rows and must get the values a
    # full pass would.
    rng = np.random.default_rng(8)
    for n, k, d in ((500, 7, 8), (40, 1, 3), (30, 16, 5), (9, 2, 1)):
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        centroids = rng.normal(size=(k, d))
        full = squared_distances(points, centroids)
        for rows in (np.arange(1), np.flatnonzero(rng.random(n) < 0.3), rng.integers(0, n, 3)):
            assert squared_distances(points[rows], centroids).tobytes() == full[rows].tobytes()


# ---------------------------------------------------------------- update

def test_update_single_cluster_mean():
    ds = make_dataset([[0.0, 0.0], [2.0, 0.0]])
    centroids, empties = update_centroids(ds, np.array([0, 0]), k=1)
    np.testing.assert_array_equal(centroids, [[1.0, 0.0]])
    assert empties == []


def test_update_reports_empties():
    ds = make_dataset([[0.0, 0.0], [2.0, 0.0]])
    centroids, empties = update_centroids(ds, np.array([0, 0]), k=2)
    assert empties == [1]
    assert np.isnan(centroids[1]).all()


def test_update_matches_independent_summation():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(50, 3)))
    assignment = rng.integers(0, 3, size=50)
    assignment[:3] = [0, 1, 2]
    centroids, empties = update_centroids(ds, assignment, k=3)
    assert empties == []
    for cid in range(3):
        members = ds.points[assignment == cid]
        expected = [sum(float(p[d]) for p in members) / len(members) for d in range(3)]
        np.testing.assert_allclose(centroids[cid], expected, rtol=0, atol=1e-12)


def test_update_rejects_bad_ids():
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="negative cluster id"):
        update_centroids(ds, np.array([0, -1, 1]), k=2)
    with pytest.raises(ValueError, match="cluster id >= k"):
        update_centroids(ds, np.array([0, 2, 1]), k=2)
    with pytest.raises(ValueError, match=r"assignment has shape \(2,\) for 3 points"):
        update_centroids(ds, np.array([0, 1]), k=2)
    with pytest.raises(ValueError, match="integer cluster ids, got dtype float64"):
        update_centroids(ds, np.array([0.0, 1.0, 1.0]), k=2)
    centroids, empties = update_centroids(ds, np.array([0, 1, 1], dtype=np.uint64), k=2)
    np.testing.assert_array_equal(centroids, [[0.0, 0.0], [1.5, 0.0]])
    assert empties == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=6),
)
def test_update_equals_per_cluster_mean_bit_for_bit(seed, n, d, k):
    # d starts at 2: numpy's mean sums a single column pairwise, while the
    # update (and numpy's mean over two or more columns) sums in row order.
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4))
    assignment = rng.integers(0, k, size=n)  # some ids may stay empty
    centroids, empties = update_centroids(ds, assignment, k)
    assert empties == [c for c in range(k) if not (assignment == c).any()]
    for cid in range(k):
        if cid in empties:
            assert np.isnan(centroids[cid]).all()
        else:
            np.testing.assert_array_equal(centroids[cid], ds.points[assignment == cid].mean(axis=0))


def test_update_single_feature_is_the_row_order_mean():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(200, 1)))
    assignment = rng.integers(0, 3, size=200)
    centroids, _ = update_centroids(ds, assignment, k=3)
    for cid in range(3):
        column = ds.points[assignment == cid, 0]
        total = 0.0
        for value in column:
            total += value
        assert centroids[cid, 0] == total / column.size
        np.testing.assert_allclose(centroids[cid, 0], column.mean(), rtol=1e-13)


# ---------------------------------------------------------------- repair

def test_repair_moves_farthest_point():
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [0.0, 0.0]])
    assignment = np.array([0, 0, 0])  # everything ties to cluster 0
    repaired = repair_empty(ds, assignment, centroids)
    assert repaired.assignment.tolist() == [0, 0, 1]  # farthest point moved
    np.testing.assert_array_equal(repaired.centroids[1], [5.0, 0.0])
    assert validate_clustering(ds, repaired) == []


def test_repair_without_empties_is_identity():
    ds = make_dataset([[0.0, 0.0], [5.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [5.0, 0.0]])
    assignment = np.array([0, 1])
    repaired = repair_empty(ds, assignment, centroids)
    np.testing.assert_array_equal(repaired.assignment, assignment)
    np.testing.assert_array_equal(repaired.centroids, centroids)


def test_repair_line_dataset_passes_validation():
    ds = make_dataset([[float(i), 0.0] for i in range(10)])
    centroids = np.array([[0.0, 0.0], [9.0, 0.0], [100.0, 0.0]])
    assignment = assign_points(ds, centroids)  # cluster 2 ends up empty
    assert 2 not in assignment
    repaired = repair_empty(ds, assignment, centroids)
    assert validate_clustering(ds, repaired) == []


def test_repair_never_drains_a_singleton_donor():
    # all points sit on their centroids (distance ties everywhere); the
    # donor must come from the 2-point cluster, not the singleton, or the
    # repair would just move the hole around
    ds = make_dataset([[5.0], [0.0], [0.0]])
    assignment = np.array([1, 0, 0])
    centroids = np.array([[0.0], [5.0], [7.0]])  # cluster 2 empty
    repaired = repair_empty(ds, assignment, centroids)
    assert validate_clustering(ds, repaired) == []
    assert repaired.assignment[0] == 1  # the singleton kept its point
    assert sorted(repaired.sizes().tolist()) == [1, 1, 1]


def test_repair_impossible_when_k_exceeds_points():
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="repair"):
        repair_empty(ds, np.array([0, 1]), np.zeros((3, 2)))


# ---------------------------------------------------------------- lloyd

def test_lloyd_recovers_separated_blobs(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=2, seed=5))
    assert validate_clustering(two_blobs, clustering) == []
    for cid in range(2):
        segments = two_blobs.hidden_segment[clustering.members(cid)]
        _, counts = np.unique(segments, return_counts=True)
        assert counts.max() / counts.sum() >= 0.95


def test_lloyd_every_point_its_own_cluster():
    ds = make_dataset([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [9.0, 9.0]])
    clustering = lloyd(ds, KMeansConfig(k=4, seed=0))
    assert sorted(clustering.assignment.tolist()) == [0, 1, 2, 3]
    assert weighted_rss(ds, clustering.assignment, clustering.centroids) == 0.0


def test_lloyd_no_worse_than_first_assignment():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.normal(size=(120, 4)))
    for seed in range(5):
        objective = objective_sequence(ds, KMeansConfig(k=4, seed=seed))
        assert objective[-1] <= objective[0] + 1e-12


def test_lloyd_deterministic_bit_for_bit(two_blobs):
    a = lloyd(two_blobs, KMeansConfig(k=3, seed=21))
    b = lloyd(two_blobs, KMeansConfig(k=3, seed=21))
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_lloyd_assignment_is_idempotent_after_convergence(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=3, seed=4))
    again = assign_points(two_blobs, clustering.centroids)
    np.testing.assert_array_equal(again, clustering.assignment)


def test_lloyd_rejects_oversized_k():
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        lloyd(ds, KMeansConfig(k=3, seed=0))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=6, max_value=40),
    k=st.integers(min_value=2, max_value=5),
)
def test_lloyd_objective_monotone(seed, n, k):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(n, 2)))
    k = min(k, len(np.unique(ds.points, axis=0)))
    config = KMeansConfig(k=k, seed=seed)
    assert validate_clustering(ds, lloyd(ds, config)) == []
    objective = objective_sequence(ds, config)
    for earlier, later in zip(objective, objective[1:]):
        assert later <= earlier + 1e-12 * max(1.0, abs(earlier))


def _assert_bounded_equals_plain(ds, config):
    clustering, history = lloyd_history(ds, config)
    reference, iterations = plain_lloyd(ds, config)
    np.testing.assert_array_equal(clustering.assignment, reference.assignment)
    assert clustering.centroids.tobytes() == reference.centroids.tobytes()
    assert len(history) == iterations + 1
    assert history[0] == ds.n_points
    assert all(0 <= rows <= ds.n_points for rows in history)
    return history


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=1, max_value=5),
    grid=st.booleans(),
    k_draw=st.integers(min_value=1, max_value=200),
)
def test_bounded_lloyd_equals_plain_lloyd(seed, n, d, grid, k_draw):
    rng = np.random.default_rng(seed)
    if grid:  # duplicate-heavy, with exact distance ties
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    ds = make_dataset(points)
    k = 1 + (k_draw - 1) % len(np.unique(points, axis=0))
    _assert_bounded_equals_plain(ds, KMeansConfig(k=k, seed=seed))


def test_bounded_lloyd_equals_plain_lloyd_through_a_repair(monkeypatch):
    # After the first update, cluster 1 loses both its points to other
    # clusters, and the loop repairs it.
    ds = make_dataset(
        [[4, 0, 0], [0, 2, 4], [2, 2, 4], [3, 4, 1], [0, 2, 3],
         [4, 1, 2], [3, 4, 0], [3, 3, 0], [3, 0, 0]]
    )
    repairs = []

    def counted(*args):
        repairs.append(args)
        return repair_empty(*args)

    monkeypatch.setattr(kmeans, "repair_empty", counted)
    history = _assert_bounded_equals_plain(ds, KMeansConfig(k=4, seed=4))
    assert len(repairs) == 1
    assert history == [9, 9, 9, 0]  # the pass after the repair recomputes every row


def test_bounded_lloyd_equals_plain_lloyd_on_a_planted_mix():
    rng = np.random.default_rng(16)
    means = rng.normal(size=(12, 8)) * 3.0
    ds = make_dataset(means[rng.integers(0, 12, 5000)] + rng.normal(size=(5000, 8)))
    history = _assert_bounded_equals_plain(ds, KMeansConfig(k=16, seed=3))
    assert sum(history[2:]) < 0.5 * ds.n_points * len(history[2:])  # most rows skip


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=0, seed=1)
    with pytest.raises(ValueError):
        KMeansConfig(k=2, seed=1, max_iterations=0)
