import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feedback_kmeans import (
    Clustering,
    CustomizabilityFeedback,
    Dataset,
    OracleProfile,
    RssFeedback,
    Sense,
    aggregate_weighted,
    customizability_cluster,
    fit_weights,
    load_oracle_profile,
    popularity,
    provider_from_name,
    relative_change,
    rss_cluster,
    save_oracle_profile,
    update_centroids,
)
from feedback_kmeans.rng import substream
from helpers import make_dataset


def labeled_dataset(points, segments, bookings=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if bookings is None:
        bookings = np.arange(n, 0, -1)  # strictly decreasing, ties impossible
    return Dataset(
        points=points,
        feature_names=tuple(f"f{i}" for i in range(points.shape[1])),
        bookings=np.asarray(bookings),
        hidden_segment=np.asarray(segments),
    )


def segment_blocks(sizes_by_segment, dim=2, seed=0):
    """Dataset with the requested number of points per segment id."""
    rng = np.random.default_rng(seed)
    points, segments = [], []
    for seg, size in sizes_by_segment.items():
        points.extend(rng.normal(loc=seg * 5.0, size=(size, dim)).tolist())
        segments.extend([seg] * size)
    return labeled_dataset(points, segments, bookings=rng.integers(0, 500, len(points)))


# ---------------------------------------------------------------- rss

def test_rss_single_point_on_centroid():
    assert rss_cluster(np.array([[2.0, 3.0]]), np.array([2.0, 3.0])) == 0.0


def test_rss_symmetric_pair():
    points = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert rss_cluster(points, np.array([1.0, 0.0])) == 1.0


def test_rss_matches_two_pass_summation():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20, 4))
    centroid = rng.normal(size=4)
    total = 0.0
    for p in points:
        total += sum((float(p[d]) - float(centroid[d])) ** 2 for d in range(4))
    assert abs(rss_cluster(points, centroid) - total / 20) <= 1e-12


def test_rss_rejects_empty():
    with pytest.raises(ValueError):
        rss_cluster(np.zeros((0, 2)), np.zeros(2))


# ---------------------------------------------------------------- aggregate

def test_aggregate_single_cluster():
    assert aggregate_weighted([3.7], [12]) == 3.7


def test_aggregate_unweighted_mean():
    assert aggregate_weighted([1.0, 3.0], [1, 1]) == 2.0


def test_aggregate_weighted_mean():
    assert aggregate_weighted([1.0, 3.0], [3, 1]) == 1.5  # (3*1 + 1*3) / 4


def test_aggregate_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        aggregate_weighted([1.0, 2.0], [1])


@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_aggregate_matches_loop_oracle(values, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 50, size=len(values))
    expected = sum(v * s for v, s in zip(values, sizes)) / sizes.sum()
    assert abs(aggregate_weighted(values, sizes) - expected) <= 1e-9 * max(1.0, abs(expected))


# ---------------------------------------------------------------- relative change

def test_relative_change_paper_example():
    assert relative_change(1.0, 1.5) == 0.5


def test_relative_change_identity():
    assert relative_change(3.25, 3.25) == 0.0


def test_relative_change_negative_reference():
    assert relative_change(-2.0, -1.0) == 0.5


def test_relative_change_degenerate_baseline():
    with pytest.raises(ValueError, match="degenerate baseline"):
        relative_change(1e-13, 1.0)


@given(
    reference=st.floats(min_value=1e-6, max_value=1e6),
    delta=st.floats(min_value=-1e6, max_value=1e6),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_relative_change_translation_covariant(reference, delta, sign):
    reference = sign * reference
    got = relative_change(reference, reference + delta)
    expected = delta / abs(reference)
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


# ---------------------------------------------------------------- fit_weights

def profile_two_segments(noise=0.0, **kwargs):
    return OracleProfile(
        segment_weights={0: np.array([1.0, 0.0]), 1: np.array([0.0, 2.0])},
        noise_sigma=noise,
        **kwargs,
    )


def test_fit_weights_homogeneous_sample():
    ds = labeled_dataset([[0, 0]] * 6, [1] * 6)
    w = fit_weights(ds, np.arange(6), profile_two_segments())
    np.testing.assert_array_equal(w, [0.0, 2.0])


def test_fit_weights_mixed_sample_is_mean():
    ds = labeled_dataset([[0, 0]] * 4, [0, 0, 1, 1])
    w = fit_weights(ds, np.arange(4), profile_two_segments())
    np.testing.assert_allclose(w, [0.5, 1.0], atol=1e-15)


def test_fit_weights_maximizes_mean_score_on_grid():
    # independent oracle: dense grid scan over the 2-d weight space
    profile = profile_two_segments()
    ds = labeled_dataset([[0, 0]] * 5, [0, 0, 0, 1, 1])
    fitted = fit_weights(ds, np.arange(5), profile)

    true_w = np.array([profile.segment_weights[int(s)] for s in ds.hidden_segment])

    def mean_score(w):
        diff = w - true_w
        return float(np.mean(profile.score_offset - np.einsum("nd,nd->n", diff, diff)))

    grid = np.linspace(-0.5, 2.5, 61)  # resolution 0.05
    best_grid = max(
        ((gx, gy) for gx in grid for gy in grid),
        key=lambda g: mean_score(np.array(g)),
    )
    assert abs(fitted[0] - best_grid[0]) <= 0.05
    assert abs(fitted[1] - best_grid[1]) <= 0.05
    assert mean_score(fitted) >= mean_score(np.array(best_grid)) - 1e-12


def test_fit_weights_requires_labels():
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="generator-labeled"):
        fit_weights(ds, [0, 1], profile_two_segments())


def test_fit_weights_unknown_segment():
    ds = labeled_dataset([[0, 0]], [7])
    with pytest.raises(ValueError, match="segment 7"):
        fit_weights(ds, [0], profile_two_segments())
    # the first unknown id in sample order is named, below or between known ids
    gapped = OracleProfile(segment_weights={0: [1.0, 0.0], 2: [0.0, 2.0]}, noise_sigma=0.0)
    ds = labeled_dataset([[0, 0]] * 4, [2, 1, -1, 0])
    with pytest.raises(ValueError, match="segment 1 missing"):
        fit_weights(ds, np.arange(4), gapped)
    with pytest.raises(ValueError, match="segment -1 missing"):
        fit_weights(ds, [3, 2, 1], gapped)


# ---------------------------------------------------------------- popularity

def test_popularity_exact_at_true_weights():
    profile = profile_two_segments(noise=0.0)
    ds = labeled_dataset([[0, 0]] * 4, [1] * 4)
    rng = substream(1)
    assert popularity(ds, np.arange(4), np.array([0.0, 2.0]), profile, rng) == 10.0


def test_popularity_zero_weights_closed_form():
    profile = OracleProfile(segment_weights={0: np.array([2.0, 0.0])}, noise_sigma=0.0)
    ds = labeled_dataset([[0, 0]] * 3, [0] * 3)
    value = popularity(ds, np.arange(3), np.zeros(2), profile, substream(2))
    assert value == 6.0  # C - ||w*||^2 = 10 - 4


def test_popularity_true_weights_dominate():
    profile = profile_two_segments(noise=0.0)
    ds = labeled_dataset([[0, 0]] * 5, [0] * 5)
    best = popularity(ds, np.arange(5), np.array([1.0, 0.0]), profile, substream(3))
    rng = np.random.default_rng(4)
    for _ in range(25):
        other = rng.normal(size=2)
        assert popularity(ds, np.arange(5), other, profile, substream(3)) <= best


# ---------------------------------------------------------------- customizability

def pure_cluster_dataset(n, seg=0, weights=(2.0, 0.0)):
    profile = OracleProfile(segment_weights={seg: np.array(weights)}, noise_sigma=0.0)
    ds = labeled_dataset([[0.0, 0.0]] * n, [seg] * n, bookings=np.arange(n, 0, -1))
    return ds, profile


def test_customizability_closed_form():
    ds, profile = pure_cluster_dataset(40)
    # 40 points, sample_size 100: the oracle fits on the 20 most-booked
    # points and evaluates on the other 20.
    fitted = fit_weights(ds, np.arange(20), profile)
    pop_w = popularity(ds, np.arange(20, 40), fitted, profile, substream(5))
    pop_0 = popularity(ds, np.arange(20, 40), np.zeros(2), profile, substream(5))
    assert pop_w == 10.0
    assert pop_0 == 6.0
    value = customizability_cluster(ds, np.arange(40), profile, substream(5))
    assert abs(value - (10.0 - 6.0) / 6.0) <= 1e-12
    assert abs(value - (pop_w - pop_0) / abs(pop_0)) <= 1e-12


def test_customizability_zero_weight_segment():
    ds, profile = pure_cluster_dataset(20, weights=(0.0, 0.0))
    value = customizability_cluster(ds, np.arange(20), profile, substream(6))
    assert value == 0.0


def test_customizability_requires_two_points():
    ds, profile = pure_cluster_dataset(5)
    with pytest.raises(ValueError, match="at least 2"):
        customizability_cluster(ds, np.array([0]), profile, substream(7))


def test_customizability_requires_labels():
    profile = profile_two_segments()
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="generator-labeled"):
        customizability_cluster(ds, np.arange(2), profile, substream(8))


def test_customizability_reproducible_per_substream():
    ds = segment_blocks({0: 300, 1: 300}, seed=9)
    profile = profile_two_segments(noise=0.05, sample_size=50, eval_pool_fraction=1.0)
    a = customizability_cluster(ds, np.arange(600), profile, substream(10, 0))
    b = customizability_cluster(ds, np.arange(600), profile, substream(10, 0))
    assert a == b
    c = customizability_cluster(ds, np.arange(600), profile, substream(10, 1))
    assert c != a  # distinct substream draws a different sample


def test_customizability_fluctuation_is_small_relative_to_value():
    ds = segment_blocks({0: 400, 1: 400}, seed=12)
    profile = profile_two_segments(noise=0.05, sample_size=50, eval_pool_fraction=1.0)
    values = [
        customizability_cluster(ds, np.arange(800), profile, substream(11, j))
        for j in range(10)
    ]
    spread = max(values) - min(values)
    assert spread < 0.5 * abs(np.mean(values))


def test_pure_cluster_beats_mixed_cluster():
    # with no noise, a 50/50 mixture of two segments with differing weights
    # never customizes better than its strongest constituent segment alone:
    # mixing costs p(1-p)||wa - wb||^2 of fitted popularity and the zero-
    # weight baseline is bounded below by the max-norm segment's baseline
    rng = np.random.default_rng(13)
    trials = 0
    for trial in range(14):
        w0 = rng.normal(size=3)
        w1 = rng.normal(size=3)
        w0 *= 0.9 * np.sqrt(10.0) / max(1.0, float(np.linalg.norm(w0)))
        w1 *= 0.9 * np.sqrt(10.0) / max(1.0, float(np.linalg.norm(w1)))
        if np.allclose(w0, w1) or min(np.linalg.norm(w0), np.linalg.norm(w1)) < 0.3:
            continue
        trials += 1
        strongest = 0 if np.linalg.norm(w0) >= np.linalg.norm(w1) else 1
        profile = OracleProfile(
            segment_weights={0: w0, 1: w1}, noise_sigma=0.0, sample_size=20
        )
        n = 120
        # alternate segments with strictly decreasing bookings so the fit
        # half and the eval half carry the exact same 50/50 composition
        mixed_segments = [0, 1] * n
        ds = labeled_dataset(
            [[0.0]] * (2 * n + n),
            mixed_segments + [strongest] * n,
            bookings=np.arange(3 * n, 0, -1),
        )
        mixed = customizability_cluster(ds, np.arange(2 * n), profile, substream(trial, 0))
        pure = customizability_cluster(
            ds, np.arange(2 * n, 3 * n), profile, substream(trial, 1)
        )
        assert pure >= mixed - 1e-9
    assert trials >= 8


# ---------------------------------------------------------------- provider evaluation

def test_evaluate_single_cluster_aggregate_is_value():
    ds = make_dataset([[0.0, 0.0], [2.0, 0.0]])
    clustering = Clustering(assignment=[0, 0], centroids=[[1.0, 0.0]], k=1)
    report = RssFeedback().evaluate(ds, clustering)
    assert report.aggregate == report.per_cluster[0] == 1.0
    assert report.sense is Sense.LOWER_IS_BETTER


def test_evaluate_rss_matches_flat_global_sum():
    rng = np.random.default_rng(14)
    ds = make_dataset(rng.normal(size=(200, 5)))
    assignment = np.concatenate([np.arange(4), rng.integers(0, 4, 196)])
    centroids, _ = update_centroids(ds, assignment, 4)
    clustering = Clustering(assignment=assignment, centroids=centroids, k=4)
    report = RssFeedback().evaluate(ds, clustering)
    diff = ds.points - centroids[assignment]
    flat = float(np.sum(diff * diff) / ds.n_points)
    assert abs(report.aggregate - flat) <= 1e-12


def test_evaluate_custom_on_exact_segment_recovery():
    # noiseless oracle on a clustering that exactly recovers the segments:
    # each per-cluster value has the closed form ||w*||^2 / (C - ||w*||^2)
    weights = {0: np.array([2.0, 0.0]), 1: np.array([0.0, 1.0])}
    profile = OracleProfile(segment_weights=weights, noise_sigma=0.0, sample_size=10)
    rng = np.random.default_rng(15)
    n = 60
    points = np.vstack([rng.normal(0, 1, (n, 2)), rng.normal(8, 1, (n, 2))])
    ds = labeled_dataset(points, [0] * n + [1] * n, bookings=rng.integers(0, 50, 2 * n))
    assignment = np.array([0] * n + [1] * n)
    centroids, _ = update_centroids(ds, assignment, 2)
    clustering = Clustering(assignment=assignment, centroids=centroids, k=2)
    provider = CustomizabilityFeedback(profile.with_rng_seed(3))
    report = provider.evaluate(ds, clustering, provider.evaluation_rng(0))
    for cid, seg_weights in weights.items():
        norm2 = float(seg_weights @ seg_weights)
        expected = norm2 / (profile.score_offset - norm2)
        assert abs(report.per_cluster[cid] - expected) <= 1e-9
    assert report.sense is Sense.HIGHER_IS_BETTER


def test_report_aggregate_recomputes_from_per_cluster_values(planted_small):
    dataset, profile = planted_small
    from feedback_kmeans import KMeansConfig, lloyd

    clustering = lloyd(dataset, KMeansConfig(k=4, seed=1))
    sizes = clustering.sizes()
    for provider in (RssFeedback(), CustomizabilityFeedback(profile.with_rng_seed(2))):
        report = provider.evaluate(dataset, clustering, provider.evaluation_rng(0))
        recomputed = sum(v * s for v, s in zip(report.per_cluster, sizes)) / sizes.sum()
        assert abs(report.aggregate - recomputed) <= 1e-12


def test_evaluate_rejects_invalid_clustering():
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0]])
    bad = Clustering(assignment=[0, 0], centroids=np.zeros((2, 2)), k=2)
    with pytest.raises(ValueError, match="invalid clustering"):
        RssFeedback().evaluate(ds, bad)


# ---------------------------------------------------------------- profile & providers

def test_profile_rejects_overlong_weights():
    with pytest.raises(ValueError, match="exceeds"):
        OracleProfile(segment_weights={0: np.array([4.0, 0.0])}, score_offset=10.0)


def test_profile_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="length"):
        OracleProfile(segment_weights={0: np.array([1.0]), 1: np.array([1.0, 0.0])})


def test_profile_json_round_trip(tmp_path):
    profile = OracleProfile(
        segment_weights={0: np.array([1.0, 0.5, 0.0]), 3: np.array([0.0, 2.0, 1.0])},
        noise_sigma=0.07,
        sample_size=64,
        eval_pool_fraction=0.25,
    )
    path = tmp_path / "oracle.json"
    save_oracle_profile(profile, path)
    loaded = load_oracle_profile(path, rng_seed=42)
    assert loaded.m == 3
    assert loaded.rng_seed == 42
    assert loaded.noise_sigma == profile.noise_sigma
    assert loaded.sample_size == profile.sample_size
    assert loaded.eval_pool_fraction == profile.eval_pool_fraction
    for seg in (0, 3):
        np.testing.assert_array_equal(loaded.segment_weights[seg], profile.segment_weights[seg])
    # schema is exactly the documented one
    payload = json.loads(path.read_text())
    assert set(payload) == {"m", "segments", "C", "noise_sigma", "sample_size", "eval_pool_fraction"}


def test_provider_from_name():
    assert provider_from_name("rss").kind == "rss"
    with pytest.raises(ValueError, match="oracle profile"):
        provider_from_name("custom")
    profile = profile_two_segments()
    assert provider_from_name("custom", profile).kind == "custom"
    with pytest.raises(ValueError, match="unknown feedback provider"):
        provider_from_name("silhouette")
