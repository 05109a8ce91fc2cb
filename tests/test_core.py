import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feedback_kmeans import (
    Clustering,
    Dataset,
    FeedbackReport,
    OracleProfile,
    Sense,
    validate_clustering,
)

from helpers import make_dataset


def test_minimal_valid_clustering():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 0, 0], centroids=[[0.5, 0.5]], k=1)
    assert validate_clustering(ds, clustering) == []


def test_empty_cluster_reported():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 1, 1], centroids=np.zeros((3, 2)), k=3)
    violations = validate_clustering(ds, clustering)
    assert violations == ["cluster 2 empty"]


def test_assignment_length_mismatch():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 1], centroids=np.zeros((2, 2)), k=2)
    violations = validate_clustering(ds, clustering)
    assert len(violations) == 1
    assert "assignment length mismatch" in violations[0]


def test_centroid_count_and_dimension_mismatches():
    ds = make_dataset([[0, 0], [1, 1]])
    clustering = Clustering(assignment=[0, 1], centroids=np.zeros((3, 2)), k=2)
    assert any("centroid count mismatch" in v for v in validate_clustering(ds, clustering))
    clustering = Clustering(assignment=[0, 1], centroids=np.zeros((2, 5)), k=2)
    assert any("centroid dimension mismatch" in v for v in validate_clustering(ds, clustering))


def test_assignment_out_of_range():
    ds = make_dataset([[0, 0], [1, 1]])
    clustering = Clustering(assignment=[0, 7], centroids=np.zeros((2, 2)), k=2)
    assert validate_clustering(ds, clustering) == ["assignment value out of range"]


def test_dataset_invariants():
    with pytest.raises(ValueError, match="empty"):
        Dataset(points=np.zeros((0, 2)), feature_names=("a", "b"))
    with pytest.raises(ValueError, match="feature_names"):
        make_dataset([[1, 2]], feature_names=("only-one",))
    with pytest.raises(ValueError, match="one entry per point"):
        make_dataset([[1, 2], [3, 4]], bookings=[5])
    with pytest.raises(ValueError, match="non-negative"):
        make_dataset([[1, 2]], bookings=[-1])
    with pytest.raises(ValueError, match="one entry per point"):
        make_dataset([[1, 2], [3, 4]], hidden_segment=[0, 0, 0])
    with pytest.raises(ValueError, match="origins"):
        make_dataset([[1, 2], [3, 4]], origins=("AAA",))
    with pytest.raises(ValueError, match=r"finite: row\(s\) \[1, 3\]"):
        make_dataset([[0.0, 1.0], [np.nan, 1.0], [2.0, 3.0], [4.0, -np.inf]])
    with pytest.raises(ValueError, match=r"bookings must be integral: entry\(s\) \[0, 1\]"):
        make_dataset([[0.0], [1.0]], bookings=[1.7, 2.2])
    with pytest.raises(ValueError, match=r"hidden_segment must be integral: entry\(s\) \[0, 1\]"):
        make_dataset([[0.0], [1.0]], hidden_segment=[0.9, 1.5])
    with pytest.raises(ValueError, match="bookings must be integral"):
        make_dataset([[0.0], [1.0]], bookings=[1.0, np.nan])
    assert make_dataset([[0.0], [1.0]], bookings=[1.0, 2.0]).bookings.tolist() == [1, 2]


def test_dataset_points_are_read_only():
    ds = make_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


@pytest.mark.parametrize(
    "caller, stored",
    [
        (np.array([0, 1]), lambda a: Clustering(assignment=a, centroids=[[0.0], [1.0]], k=2).assignment),
        (np.array([[0.0], [1.0]]), lambda c: Clustering(assignment=[0, 1], centroids=c, k=2).centroids),
        (np.array([[0.0], [1.0]]), lambda p: Dataset(points=p, feature_names=("a",)).points),
        (np.array([3, 4]), lambda b: make_dataset([[0.0], [1.0]], bookings=b).bookings),
        (np.array([0, 1]), lambda s: make_dataset([[0.0], [1.0]], hidden_segment=s).hidden_segment),
        (np.array([1.0, 0.0]), lambda w: OracleProfile(segment_weights={0: w}).segment_weights[0]),
    ],
    ids=["assignment", "centroids", "points", "bookings", "hidden_segment", "segment_weights"],
)
def test_construction_leaves_the_callers_array_writeable(caller, stored):
    kept = stored(caller)
    before = kept.copy()
    caller[0] += 1  # raises if construction froze the caller's own array
    assert not kept.flags.writeable
    np.testing.assert_array_equal(kept, before)


def test_duplicate_points_are_allowed():
    ds = make_dataset([[1.0, 2.0], [1.0, 2.0]])
    assert ds.n_points == 2


def test_feedback_report_requires_values():
    with pytest.raises(ValueError):
        FeedbackReport(per_cluster=(), aggregate=0.0, sense=Sense.LOWER_IS_BETTER)


def test_sense_better_is_strict():
    assert Sense.HIGHER_IS_BETTER.better(1.0, 0.5)
    assert not Sense.HIGHER_IS_BETTER.better(0.5, 0.5)
    assert Sense.LOWER_IS_BETTER.better(0.5, 1.0)
    assert not Sense.LOWER_IS_BETTER.better(1.0, 1.0)


def test_sense_worst_first_breaks_ties_to_lowest_id():
    values = (0.5, 2.0, 0.5, 2.0, 1.0)
    assert Sense.LOWER_IS_BETTER.worst_first(values) == [1, 3, 4, 0, 2]
    assert Sense.HIGHER_IS_BETTER.worst_first(values) == [0, 2, 4, 1, 3]


def test_sense_reached_is_inclusive():
    assert Sense.HIGHER_IS_BETTER.reached(0.5, 0.5)
    assert Sense.HIGHER_IS_BETTER.reached(0.6, 0.5)
    assert not Sense.HIGHER_IS_BETTER.reached(0.4, 0.5)
    assert Sense.LOWER_IS_BETTER.reached(0.5, 0.5)
    assert Sense.LOWER_IS_BETTER.reached(0.4, 0.5)
    assert not Sense.LOWER_IS_BETTER.reached(0.6, 0.5)


@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_accepted_clusterings_are_surjective_with_sizes_summing(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    # surjective by construction: first k points get ids 0..k-1
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    points = rng.normal(size=(n, 3))
    ds = Dataset(points=points, feature_names=("a", "b", "c"))
    clustering = Clustering(assignment=assignment, centroids=rng.normal(size=(k, 3)), k=k)
    assert validate_clustering(ds, clustering) == []
    sizes = clustering.sizes()
    assert sizes.sum() == n
    assert (sizes > 0).all()
    for cid in range(k):
        assert cid in assignment
