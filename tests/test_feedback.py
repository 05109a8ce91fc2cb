import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    Clustering,
    CustomizabilityFeedback,
    Dataset,
    FeedbackReport,
    OracleProfile,
    RssFeedback,
    Sense,
    aggregate_weighted,
    customizability_cluster,
    evaluate_per_cluster,
    load_oracle_profile,
    provider_from_name,
    relative_change,
    save_oracle_profile,
)
from feedback_kmeans import feedback
from feedback_kmeans.rng import substream
from helpers import (
    cluster_means,
    fit_weights,
    make_dataset,
    popularity,
    reference_evaluate,
    rss_cluster,
    segment_weight_rows,
)


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
    clustering = Clustering(assignment=[0, 0], centroids=[[1.0, 0.0]])
    report = RssFeedback().evaluate(ds, clustering)
    assert report.aggregate == report.per_cluster[0] == 1.0
    assert report.sense is Sense.LOWER_IS_BETTER


def test_evaluate_rss_matches_flat_global_sum():
    rng = np.random.default_rng(14)
    ds = make_dataset(rng.normal(size=(200, 5)))
    assignment = np.concatenate([np.arange(4), rng.integers(0, 4, 196)])
    centroids = cluster_means(ds, assignment, 4)
    clustering = Clustering(assignment=assignment, centroids=centroids)
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
    centroids = cluster_means(ds, assignment, 2)
    clustering = Clustering(assignment=assignment, centroids=centroids)
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
    bad = Clustering(assignment=[0, 0], centroids=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="invalid clustering"):
        RssFeedback().evaluate(ds, bad)


# ---------------------------------------------------------------- one grouping against the reference

def outcome(evaluate):
    """The report, or the message of the ValueError raised instead."""
    try:
        return evaluate()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_matches_reference(dataset, clustering, profile, step=0):
    """Both providers' outcomes equal the reference's; returns the
    customizability provider's."""
    for provider in (RssFeedback(), CustomizabilityFeedback(profile)):
        got = outcome(lambda: provider.evaluate(dataset, clustering, provider.evaluation_rng(step)))
        expected = outcome(
            lambda: reference_evaluate(provider, dataset, clustering, provider.evaluation_rng(step))
        )
        assert got == expected
    return got


def covering_assignment(rng, n, k):
    """A shuffled assignment in which every cluster has at least 2 points."""
    return rng.permutation(np.concatenate([np.repeat(np.arange(k), 2), rng.integers(0, k, n - 2 * k)]))


@st.composite
def oracle_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=4, max_value=60))
    k = draw(st.integers(min_value=1, max_value=min(6, n // 2)))
    # Few distinct rows and booking counts: duplicate points and tied
    # bookings everywhere. Segment 2 is rare, and some profiles lack it.
    points = rng.integers(0, draw(st.integers(1, 3)), size=(n, 2)).astype(float)
    dataset = labeled_dataset(
        points,
        rng.choice(3, size=n, p=[0.45, 0.45, 0.1]),
        bookings=rng.integers(0, draw(st.integers(1, 4)), size=n),
    )
    clustering = Clustering(assignment=covering_assignment(rng, n, k), centroids=rng.normal(size=(k, 2)))
    profile = OracleProfile(
        segment_weights={seg: rng.uniform(-1.0, 1.0, 2) for seg in range(draw(st.integers(2, 3)))},
        noise_sigma=draw(st.sampled_from([0.0, 0.05])),
        sample_size=draw(st.integers(min_value=1, max_value=8)),
        eval_pool_fraction=draw(st.sampled_from([0.1, 0.2, 0.5, 1.0])),
        rng_seed=seed,
    )
    return dataset, clustering, profile


@settings(max_examples=150, deadline=None)
@given(case=oracle_cases(), step=st.integers(min_value=0, max_value=3))
def test_evaluate_equals_the_per_cluster_reference(case, step):
    # clusters of 2..60 points against sample sizes 1..8: many are smaller
    # than 2 * sample_size, and some sample a segment the profile lacks
    assert_matches_reference(*case, step=step)


def test_evaluate_equals_the_reference_beyond_256_clusters():
    # cluster ids above 255 take the 16-bit grouping key
    rng = np.random.default_rng(16)
    n, k = 1500, 300
    dataset = labeled_dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, n), bookings=rng.integers(0, 5, n))
    assignment = covering_assignment(rng, n, k)
    centroids = cluster_means(dataset, assignment, k)
    clustering = Clustering(assignment=assignment, centroids=centroids)
    report = assert_matches_reference(dataset, clustering, profile_two_segments(noise=0.05, sample_size=2))
    assert len(report.per_cluster) == k


def test_grouping_beyond_65536_clusters_keeps_ascending_members():
    # ids above 65,535 are sorted as int64
    rng = np.random.default_rng(17)
    k = (1 << 16) + 1
    assignment = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, 500)]))
    dataset = make_dataset(np.zeros((assignment.size, 1)))
    clustering = Clustering(assignment=assignment, centroids=np.zeros((k, 1)))
    groups = []
    evaluate_per_cluster(
        dataset, clustering, Sense.HIGHER_IS_BETTER, lambda cid, members: groups.append(members) or 1.0
    )
    flat = np.concatenate(groups)
    ids = np.repeat(np.arange(k), [g.size for g in groups])
    assert np.array_equal(assignment[flat], ids)
    assert (np.diff(flat)[np.diff(ids) == 0] > 0).all()


def test_members_come_in_the_given_point_order():
    ds = make_dataset(np.zeros((6, 1)))
    clustering = Clustering(assignment=[1, 0, 1, 0, 1, 0], centroids=[[0.0], [0.0]])
    seen = {}

    def record(cid, members):
        seen[cid] = members.tolist()
        return 0.0

    evaluate_per_cluster(ds, clustering, Sense.LOWER_IS_BETTER, record)
    assert seen == {0: [1, 3, 5], 1: [0, 2, 4]}
    evaluate_per_cluster(ds, clustering, Sense.LOWER_IS_BETTER, record, np.array([4, 5, 0, 3, 1, 2]))
    assert seen == {0: [5, 3, 1], 1: [4, 0, 2]}


def test_oracle_ranks_ascending_and_ranked_members_alike():
    rng = np.random.default_rng(18)
    ds = segment_blocks({0: 150, 1: 150}, seed=18)
    ds = labeled_dataset(ds.points, ds.hidden_segment, bookings=rng.integers(0, 6, 300))  # heavy ties
    profile = profile_two_segments(noise=0.05, sample_size=20, eval_pool_fraction=0.5)
    members = np.flatnonzero(rng.random(300) < 0.7)
    ranked = ds.booking_rank[np.isin(ds.booking_rank, members)]
    assert not np.array_equal(ranked, members)
    assert customizability_cluster(ds, members, profile, substream(19)) == customizability_cluster(
        ds, ranked, profile, substream(19)
    )


def test_missing_segment_raises_only_when_sampled():
    # cluster 0's fit set is its top half by bookings, and with sample_size 2
    # its evaluation set is the rest: every point is sampled. Cluster 1 has
    # 10 points, fits on the top 2, and samples 2 of its next 3.
    profile = OracleProfile(segment_weights={0: [1.0, 0.0]}, noise_sigma=0.05, sample_size=2, eval_pool_fraction=0.5)
    segments = [0] * 4 + [0] * 9 + [5]
    bookings = [9, 8, 7, 6] + list(range(50, 41, -1)) + [0]
    ds = labeled_dataset(np.zeros((14, 1)), segments, bookings=bookings)
    clustering = Clustering(assignment=[0] * 4 + [1] * 10, centroids=[[0.0], [0.0]])
    # segment 5 sits on cluster 1's least-booked point, which is never drawn
    report = assert_matches_reference(ds, clustering, profile)
    assert len(report.per_cluster) == 2
    # once that point is among the most-booked, it is fitted on and named
    bookings[-1] = 99
    ds = labeled_dataset(np.zeros((14, 1)), segments, bookings=bookings)
    message = assert_matches_reference(ds, clustering, profile)
    assert message == "ValueError: segment 5 missing from oracle profile"


def test_missing_segment_in_the_fit_set_is_named_before_the_evaluation_set():
    profile = OracleProfile(segment_weights={0: [1.0, 0.0]}, noise_sigma=0.0, sample_size=2)
    # 4 points: fit on the top 2 (segments 0 and 8), evaluate on the other 2
    # (segments 7 and 0); the fit set's 8 is named although 7 < 8
    ds = labeled_dataset(np.zeros((4, 1)), [0, 8, 7, 0], bookings=[4, 3, 2, 1])
    clustering = Clustering(assignment=[0, 0, 0, 0], centroids=[[0.0]])
    assert assert_matches_reference(ds, clustering, profile) == "ValueError: segment 8 missing from oracle profile"
    ds = labeled_dataset(np.zeros((4, 1)), [0, 0, 7, 0], bookings=[4, 3, 2, 1])
    assert assert_matches_reference(ds, clustering, profile) == "ValueError: segment 7 missing from oracle profile"


def test_segment_table_belongs_to_its_profile():
    # The first profile knows segment 7; a second profile that lacks it
    # must still name it on the same dataset, and the first must not.
    ds = labeled_dataset(np.zeros((4, 1)), [0, 8, 7, 0], bookings=[4, 3, 2, 1])
    clustering = Clustering(assignment=[0, 0, 0, 0], centroids=[[0.0]])
    weights = {0: [1.0, 0.0], 7: [0.0, 1.0], 8: [0.5, 0.5]}
    full = OracleProfile(segment_weights=weights, noise_sigma=0.0, sample_size=2)
    assert isinstance(assert_matches_reference(ds, clustering, full), FeedbackReport)
    lacking = OracleProfile(segment_weights={0: weights[0], 8: weights[8]}, noise_sigma=0.0, sample_size=2)
    assert assert_matches_reference(ds, clustering, lacking) == "ValueError: segment 7 missing from oracle profile"
    assert isinstance(assert_matches_reference(ds, clustering, full), FeedbackReport)


def test_rng_seed_copy_evaluates_like_a_fresh_profile():
    ds = segment_blocks({0: 40, 1: 40, 2: 40}, seed=21)
    assignment = np.repeat([0, 1], 60)
    clustering = Clustering(assignment=assignment, centroids=cluster_means(ds, assignment, 2))
    weights = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [0.5, -0.5]}
    base = OracleProfile(segment_weights=weights, sample_size=5)
    provider = CustomizabilityFeedback(base)
    provider.evaluate(ds, clustering, provider.evaluation_rng(0))  # base is used before it is copied
    copy = base.with_rng_seed(9)
    fresh = OracleProfile(segment_weights=weights, sample_size=5, rng_seed=9)
    copied, rebuilt = (
        CustomizabilityFeedback(p).evaluate(ds, clustering, substream(9, "eval", 3)) for p in (copy, fresh)
    )
    assert np.array(copied.per_cluster).tobytes() == np.array(rebuilt.per_cluster).tobytes()
    assert copied.aggregate == rebuilt.aggregate


INT64_EDGE = 2**63 - 1


@st.composite
def segment_lookup_cases(draw):
    """A profile with 1..4 int64 segment ids, and a dataset whose labels are
    mostly the profile's ids and otherwise every edge of a search among
    them: below the smallest, above the largest, between two, negative and
    +-(2**63 - 1)."""
    ids = sorted(draw(st.lists(st.integers(-INT64_EDGE, INT64_EDGE), min_size=1, max_size=4, unique=True)))
    edges = [-INT64_EDGE, INT64_EDGE, -1, ids[0] - 1, ids[-1] + 1]
    edges += [draw(st.integers(a + 1, b - 1)) for a, b in zip(ids, ids[1:]) if b - a > 1]
    present = st.sampled_from(ids)
    absent = st.sampled_from([e for e in edges if e <= INT64_EDGE and e not in ids])  # holds ids[0] - 1
    n = draw(st.integers(min_value=4, max_value=30))
    segments = draw(st.lists(st.one_of(present, present, absent), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dataset = labeled_dataset(rng.normal(size=(n, 2)), segments, bookings=rng.integers(0, 4, size=n))
    k = draw(st.integers(min_value=1, max_value=2))
    clustering = Clustering(assignment=covering_assignment(rng, n, k), centroids=rng.normal(size=(k, 2)))
    profile = OracleProfile(
        segment_weights={seg: rng.uniform(-1.0, 1.0, 2) for seg in ids},
        noise_sigma=0.05,
        sample_size=draw(st.integers(min_value=1, max_value=4)),
        rng_seed=seed,
    )
    return dataset, clustering, profile, rng.permutation(n)


@settings(max_examples=150, deadline=None)
@given(case=segment_lookup_cases())
def test_segment_lookup_equals_the_reference_at_every_search_edge(case):
    dataset, clustering, profile, order = case
    assert_matches_reference(dataset, clustering, profile)
    # every point, in any order: the same rows, or the same point named
    got = outcome(lambda: feedback._segment_weight_rows(dataset, order, profile))
    expected = outcome(lambda: segment_weight_rows(dataset, order, profile))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.tobytes() == expected.tobytes()


def test_threads_share_one_profile_over_datasets_with_different_labels():
    # The same points labelled two ways, evaluated by more threads than
    # cores that switch often: each thread's values equal the serial ones,
    # so no lookup sees the other dataset's labels.
    first = segment_blocks({0: 60, 1: 60, 2: 60}, seed=23)
    second = labeled_dataset(first.points, first.hidden_segment[::-1], bookings=first.bookings)
    assignment = np.repeat([0, 1, 2], 60)
    clustering = Clustering(assignment=assignment, centroids=cluster_means(first, assignment, 3))
    provider = CustomizabilityFeedback(
        OracleProfile(segment_weights={0: [1.0, 0.0], 1: [0.0, 1.0], 2: [0.5, -0.5]}, sample_size=5)
    )

    def evaluate_all(dataset):
        return [provider.evaluate(dataset, clustering, provider.evaluation_rng(step)) for step in range(40)]

    serial = [evaluate_all(ds) for ds in (first, second)]
    assert serial[0][0].per_cluster != serial[1][0].per_cluster
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(evaluate_all, ds) for ds in (first, second) * 2]
            shared = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert shared == serial * 2


@pytest.mark.parametrize(
    "assignment, message",
    [
        ([0, 0, 1, 1, 1, 2], "degenerate price baseline"),
        ([0, 0, 1, 2, 2, 2], "customizability needs a cluster of at least 2 points"),
    ],
    ids=["degenerate-first", "singleton-first"],
)
def test_first_failing_cluster_in_id_order_names_the_error(assignment, message):
    # segment 1's ||w*||^2 equals C, so a cluster of it has a zero baseline
    profile = OracleProfile(
        segment_weights={0: [1.0, 0.0], 1: [2.0, 0.0]}, score_offset=4.0, noise_sigma=0.0, sample_size=2
    )
    segments = [0, 0] + [1] * 3 + [0] if assignment[2] == 1 else [0, 0, 0] + [1] * 3
    ds = labeled_dataset(np.zeros((6, 1)), segments)
    clustering = Clustering(assignment=assignment, centroids=np.zeros((3, 1)))
    provider = CustomizabilityFeedback(profile)
    with pytest.raises(ValueError, match=f"^{message}$"):
        provider.evaluate(ds, clustering, provider.evaluation_rng(0))
    assert assert_matches_reference(ds, clustering, profile) == f"ValueError: {message}"


# ---------------------------------------------------------------- profile & providers

def test_profile_rejects_overlong_weights():
    with pytest.raises(ValueError, match="exceeds"):
        OracleProfile(segment_weights={0: np.array([4.0, 0.0])}, score_offset=10.0)


def test_profile_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="length"):
        OracleProfile(segment_weights={0: np.array([1.0]), 1: np.array([1.0, 0.0])})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"noise_sigma": float("nan")}, "noise_sigma must be a finite int or float, got nan"),
        ({"score_offset": float("inf")}, "score_offset must be a finite int or float, got inf"),
        ({"eval_pool_fraction": "0.2"}, "eval_pool_fraction must be a finite int or float, got '0.2'"),
        ({"segment_weights": {0: np.array([np.nan, 0.0])}}, "segment 0: weights must be finite, got [nan, 0.0]"),
        ({"sample_size": 40.5}, "sample_size must be an integer, got 40.5"),
        ({"sample_size": True}, "sample_size must be an integer, got True"),
        ({"m": 2.0}, "m must be an integer, got 2.0"),
        ({"rng_seed": 3.5}, "rng_seed must be an integer, got 3.5"),
        ({"rng_seed": "3"}, "rng_seed must be an integer, got '3'"),
        ({"rng_seed": None}, "rng_seed must be an integer, got None"),
        ({"rng_seed": True}, "rng_seed must be an integer, got True"),
    ],
    ids=["nan-noise", "inf-offset", "string-fraction", "nan-weight", "fractional-sample-size", "bool-sample-size",
         "float-m", "fractional-seed", "string-seed", "null-seed", "bool-seed"],
)
def test_profile_rejects_a_field_that_is_not_a_finite_number(fields, message):
    # Each of these used to build a profile whose every evaluation was nan,
    # or was stored truncated, or raised a TypeError at the first use.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OracleProfile(**{"segment_weights": {0: np.array([1.0, 0.0])}, **fields})


def test_rng_seed_copy_checks_its_seed():
    profile = profile_two_segments()
    with pytest.raises(ValueError, match="^rng_seed must be an integer, got '3'$"):
        profile.with_rng_seed("3")
    assert type(profile.with_rng_seed(np.uint64(3)).rng_seed) is int


def test_rng_seed_copy_shares_the_checked_profile():
    # Re-running the profile's checks rebuilt every weight and the table per copy.
    profile = profile_two_segments(rng_seed=1)
    copy = profile.with_rng_seed(5)
    assert (copy.rng_seed, profile.rng_seed) == (5, 1)
    assert copy._segment_table is profile._segment_table
    assert copy.segment_weights is profile.segment_weights


def test_profiles_compare_by_identity():
    # the generated field-wise __eq__ compared dicts of arrays and raised
    a, b = profile_two_segments(), profile_two_segments()
    assert a != b
    assert a not in [b]
    assert a == a and a in [b, a]
    assert len({a, b, a}) == 2


def test_profile_json_round_trip(tmp_path):
    profile = OracleProfile(
        segment_weights={0: np.array([1.0, 0.5, 0.0]), 3: np.array([0.0, 2.0, 1.0])},
        noise_sigma=0.07,
        sample_size=64,
        eval_pool_fraction=0.25,
    )
    path = tmp_path / "oracle.json"
    save_oracle_profile(profile, path)
    loaded = load_oracle_profile(path)
    assert loaded.m == 3
    assert loaded.rng_seed == 0  # run configuration: each run re-seeds the profile
    assert loaded.noise_sigma == profile.noise_sigma
    assert loaded.sample_size == profile.sample_size
    assert loaded.eval_pool_fraction == profile.eval_pool_fraction
    for seg in (0, 3):
        np.testing.assert_array_equal(loaded.segment_weights[seg], profile.segment_weights[seg])
    # schema is exactly the documented one
    payload = json.loads(path.read_text())
    assert set(payload) == {"m", "segments", "C", "noise_sigma", "sample_size", "eval_pool_fraction"}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda payload: [payload], "top level must be a JSON object"),
        (lambda payload: {**payload, "segments": [[1.0, 0.5]]}, "field 'segments' must be a JSON object"),
        (lambda payload: {**payload, "m": 2.9}, "m must be an integer, got 2.9"),
        (lambda payload: {**payload, "C": None}, "float"),
        (lambda payload: {k: v for k, v in payload.items() if k != "noise_sigma"}, "missing field 'noise_sigma'"),
        (lambda payload: {**payload, "noise_sigma": float("nan")}, "noise_sigma must be a finite int or float, got nan"),
        (lambda payload: {**payload, "C": "10"}, "C must be a finite int or float, got '10'"),
        # The scalar checks come before the segments' ||w*||^2 <= C check.
        (lambda payload: {**payload, "C": -1}, "C must be positive"),
        (lambda payload: {**payload, "segments": {"0": [float("nan"), 0.5]}}, "segment 0: weights must be finite"),
        (lambda payload: {**payload, "rng_seed": 5}, "unknown top level key(s) rng_seed (accepted: m, segments, C, "),
        # Each of these keys once loaded as segment 1 or 10, silently.
        (lambda payload: {**payload, "segments": {"1": [1.0, 0.0], "01": [0.0, 2.0]}},
         "segment id must be an integer, got '01'"),
        (lambda payload: {**payload, "segments": {"0": [1.0, 0.0], "1_0": [0.0, 2.0]}},
         "segment id must be an integer, got '1_0'"),
        (lambda payload: {**payload, "segments": {"0": [1.0, 0.0], "-0": [0.0, 2.0]}}, "segment 0 is given twice"),
    ],
    ids=["top-level-list", "segments-list", "fractional-m", "null-C", "missing-field", "nan-literal", "string-C",
         "negative-C", "nan-weight", "unknown-key", "zero-padded-id", "underscored-id", "repeated-id"],
)
def test_malformed_profile_file_is_a_named_error(tmp_path, change, message):
    path = tmp_path / "oracle.json"
    save_oracle_profile(profile_two_segments(), path)
    path.write_text(json.dumps(change(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=rf"^oracle profile {re.escape(str(path))}: .*{re.escape(message)}"):
        load_oracle_profile(path)


@pytest.mark.parametrize(
    "segments, message",
    [
        ({True: [1.0]}, "segment id must be an integer, got True"),
        ({1.5: [1.0]}, "segment id must be an integer, got 1.5"),
        ({"+1": [1.0]}, "segment id must be an integer, got '+1'"),
        ({1: [1.0], "1": [0.5]}, "segment 1 is given twice"),
    ],
)
def test_profile_segment_ids_are_integers_given_once(segments, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OracleProfile(segment_weights=segments)


def test_profile_segment_ids_round_trip(tmp_path):
    profile = OracleProfile(segment_weights={"-3": [1.0], np.int64(12): [0.5], "0": [0.0]})
    assert list(profile.segment_weights) == [-3, 12, 0]
    assert all(type(seg) is int for seg in profile.segment_weights)
    path = tmp_path / "oracle.json"
    save_oracle_profile(profile, path)
    assert set(json.loads(path.read_text())["segments"]) == {"-3", "12", "0"}
    loaded = load_oracle_profile(path)
    assert {seg: w.tolist() for seg, w in loaded.segment_weights.items()} == {-3: [1.0], 12: [0.5], 0: [0.0]}


def test_provider_from_name():
    assert isinstance(provider_from_name("rss"), RssFeedback)
    with pytest.raises(ValueError, match="oracle profile"):
        provider_from_name("custom")
    profile = profile_two_segments()
    assert isinstance(provider_from_name("custom", profile), CustomizabilityFeedback)
    with pytest.raises(ValueError, match="unknown feedback provider"):
        provider_from_name("silhouette")
